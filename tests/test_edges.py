"""Edge enumeration of ``build_graph`` against two oracles.

``_reference_chunk_edges`` is the earlier per-sample enumerator, kept here
verbatim: it builds a dense block of candidate cells per sample point and
filters it.  The graphs it builds must be reproduced bit for bit wherever
no sample range runs past both ends of a non-periodic axis.  There it lost
the cells past the top end, and both enumerators are checked against
``_brute_graph`` instead, which tests every (box, sample, cell) triple.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setdyn import boxdyn, flows, mapzoo
from setdyn.boxdyn import (
    _KEY_BITS,
    BoxSet,
    _image_spread,
    build_graph,
    initial_cover,
    unpack_codes,
)
from setdyn.errors import NumericsError

SYSTEMS = mapzoo.list_systems()


def _eval_chunk(system, chunk_coords: np.ndarray, depth: int, offsets: np.ndarray):
    """Map all samples of a chunk of boxes; returns images (B, S, dim)."""
    domain = system.domain
    h = domain.box_width(depth)
    corners = np.asarray(domain.lower) + chunk_coords * h
    pts = corners[:, None, :] + offsets[None, :, :] * h
    B, S, dim = pts.shape
    flat = domain.wrap(pts.reshape(-1, dim))
    return np.asarray(system.forward(flat), dtype=float).reshape(B, S, dim)


def _reference_chunk_edges(
    system,
    boxset: BoxSet,
    chunk_lo: int,
    chunk_hi: int,
    epsilon: float,
    offsets: np.ndarray,
    samples_per_axis: int,
):
    """Deterministic edge keys (src_idx << _KEY_BITS | dst_idx) for one box chunk."""
    domain = system.domain
    depth = boxset.depth
    dim = domain.dim
    n_axis = 1 << depth
    h = domain.box_width(depth)
    lo = np.asarray(domain.lower)
    coords = unpack_codes(boxset.codes[chunk_lo:chunk_hi], depth, dim)
    img = _eval_chunk(system, coords, depth, offsets)
    B, S, _ = img.shape

    bad = ~np.isfinite(img).all(axis=(1, 2))
    if np.any(bad):
        which = boxset.codes[chunk_lo:chunk_hi][bad][:8]
        raise NumericsError(f"non-finite map image on boxes with codes {which.tolist()}")

    if system.lipschitz_hint is not None:
        # the sample grid covers the box with radius h/(2(n-1)) in the max
        # metric, so L times that radius is a sound image pad
        cover_r = domain.max_box_width(depth) / (2.0 * (samples_per_axis - 1))
        pad = np.full(B, system.lipschitz_hint * cover_r)
    else:
        # covering radius of the image sample grid, estimated per box from the
        # spread of its sampled images
        pad = _image_spread(domain, img) / (2.0 * (samples_per_axis - 1))

    radius = epsilon + pad  # (B,)
    rad = np.repeat(radius, S)
    flat = img.reshape(B * S, dim)

    lo_f = (flat - lo - rad[:, None]) / h
    hi_f = (flat - lo + rad[:, None]) / h
    lo_i = np.ceil(lo_f - 1.0).astype(np.int64)
    hi_i = np.floor(hi_f).astype(np.int64)

    spans = (hi_i - lo_i + 1).max(axis=0)
    spans = np.minimum(spans, n_axis)
    offs_nd = np.stack(
        np.meshgrid(*[np.arange(int(s)) for s in spans], indexing="ij"), axis=-1
    ).reshape(-1, dim)

    cand = lo_i[:, None, :] + offs_nd[None, :, :]  # (P, K, dim)
    ok = np.all(cand <= hi_i[:, None, :], axis=-1)
    for ax, per in enumerate(domain.periodic):
        col = cand[..., ax]
        if per:
            cand[..., ax] = np.mod(col, n_axis)
        else:
            ok &= (col >= 0) & (col < n_axis)

    P, K, _ = cand.shape
    code = np.zeros((P, K), dtype=np.int64)
    for ax in range(dim):
        code = (code << depth) | cand[..., ax]
    src = np.repeat(np.arange(chunk_lo, chunk_hi, dtype=np.int64), S)
    src = np.repeat(src[:, None], K, axis=1)

    code = code[ok]
    src = src[ok]
    dst = boxset.indices_of(code)
    good = dst >= 0
    keys = (src[good] << _KEY_BITS) | dst[good]
    return np.unique(keys)


def _csr(n, src, dst):
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


def _reference_graph(system, boxset, epsilon, samples):
    """(indptr, indices) as the per-sample enumerator builds them."""
    offsets = boxdyn._sample_offsets(boxset.domain.dim, samples)
    n = boxset.count
    parts = [
        _reference_chunk_edges(system, boxset, lo, min(lo + boxdyn._CHUNK_BOXES, n),
                               epsilon, offsets, samples)
        for lo in range(0, n, boxdyn._CHUNK_BOXES)
    ]
    keys = np.unique(np.concatenate(parts))
    return _csr(n, keys >> _KEY_BITS, keys & ((1 << _KEY_BITS) - 1))


def _brute_graph(system, boxset, epsilon, samples):
    """(indptr, indices) from testing every cell, and every lift of it on a
    periodic axis, against the ball around every sample image: the closed
    cell c meets the ball iff (x - lo - r)/h - 1 <= c <= (x - lo + r)/h on
    every axis."""
    domain = system.domain
    depth, dim = boxset.depth, domain.dim
    n = 1 << depth
    h = domain.box_width(depth)
    offsets = boxdyn._sample_offsets(dim, samples)
    img = _eval_chunk(system, boxset.coords(), depth, offsets)
    B, S, _ = img.shape
    if system.lipschitz_hint is not None:
        cover_r = domain.max_box_width(depth) / (2.0 * (samples - 1))
        pad = np.full(B, system.lipschitz_hint * cover_r)
    else:
        pad = _image_spread(domain, img) / (2.0 * (samples - 1))
    rad = (epsilon + pad)[:, None, None]
    lo_f = (img - np.asarray(domain.lower) - rad) / h - 1.0
    hi_f = (img - np.asarray(domain.lower) + rad) / h
    cells = np.arange(n)
    hit = np.ones((B, S, 1), dtype=bool)
    for ax in range(dim):
        if domain.periodic[ax]:
            k = int(np.max(np.abs([lo_f[..., ax], hi_f[..., ax]]))) // n + 2
            cells = np.arange(-k, k + 1)[:, None] * n + np.arange(n)[None, :]
        else:
            cells = np.arange(n)[None, :]
        meets = ((lo_f[..., ax, None, None] <= cells)
                 & (cells <= hi_f[..., ax, None, None])).any(axis=-2)  # (B, S, n)
        # cell codes are row-major over axes
        hit = (hit[..., :, None] & meets[..., None, :]).reshape(B, S, -1)
    src, code = np.nonzero(hit.any(axis=1))
    dst = boxset.indices_of(code)
    keep = dst >= 0
    return _csr(B, src[keep], dst[keep])


def _assert_same(graph, want):
    indptr, indices = want
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)


def _cached(system):
    """The system with its forward map memoised on the input points, so the
    graph and its oracle share the map evaluations."""
    memo = {}

    def forward(pts):
        key = pts.tobytes()
        if key not in memo:
            memo[key] = system.forward(pts)
        return memo[key]

    return dataclasses.replace(system, forward=forward)


def _check_against_reference(system, boxset, epsilon, samples):
    system = _cached(system)
    graph = build_graph(system, boxset, epsilon, samples_per_axis=samples)
    _assert_same(graph, _reference_graph(system, boxset, epsilon, samples))
    return graph


# ---------------------------------------------------------------------------
# bitwise agreement with the per-sample enumerator
# ---------------------------------------------------------------------------

_DEPTH = {"cat_map": 5, "circle_semistable": 8, "cubic_interval": 8,
          "nested_rings": 5, "periodic_spot": 6, "nf_timeq": 4}


@pytest.mark.parametrize("samples", [2, 3, 4])
@pytest.mark.parametrize("name", SYSTEMS)
def test_every_system_matches_reference(name, samples):
    system = mapzoo.make_system(name, {})
    depth = _DEPTH[name]
    cover = initial_cover(system.domain, depth)
    graph = _check_against_reference(system, cover, system.domain.max_box_width(depth), samples)
    assert graph.n_edges > 0


def test_criterion_1_graph_matches_reference():
    system = mapzoo.make_system("cat_map", {})
    graph = _check_against_reference(system, initial_cover(system.domain, 8),
                                     system.domain.max_box_width(8), 4)
    assert graph.n_edges == 36 * graph.n_boxes


@pytest.mark.parametrize("depth,epsilon", [(7, 2.0 ** -6), (8, 2.0 ** -7)])
def test_criterion_4_stage_graphs_match_reference(depth, epsilon):
    # the stages of criterion 4 below its deepest (depth 9) one
    system = mapzoo.make_system("nested_rings", {"step": 0.02})
    _check_against_reference(system, initial_cover(system.domain, depth), epsilon, 3)


def test_criterion_5_system_graph_matches_reference():
    # criterion 5's rescaled normal form, on the depth-6 core-scan graph
    rho0 = 0.05
    base = flows.NormalFormParams(q=5, p=1, mu=0.0, delta=0.0, B=1.0, C=-1.0, omega=(1.0,))
    res = flows.rescale(base, rho0, 0.0)
    system = mapzoo.make_system(
        "nf_timeq",
        {"q": 5, "p": 1, "mu": res.mu, "delta": res.delta, "B": 1.0, "C": -1.0,
         "omega1": 1.0, "radius": 3 * rho0},
    )
    _check_against_reference(system, initial_cover(system.domain, 6), 0.0046875, 3)


@pytest.mark.parametrize("name,depth,eps_frac,samples", [
    ("cat_map", 6, 1.0, 4),
    ("circle_semistable", 7, 1.0, 4),
    ("cubic_interval", 7, 0.25, 4),
    ("nested_rings", 6, 1.0, 3),
    ("periodic_spot", 6, 1.0, 3),
    ("nf_timeq", 5, 1.0, 3),
])
def test_criterion_12_graphs_match_reference(name, depth, eps_frac, samples):
    system = mapzoo.make_system(name, {})
    h = system.domain.max_box_width(depth)
    _check_against_reference(system, initial_cover(system.domain, depth), h * eps_frac, samples)


def test_cat_map_seam_boxes_match_reference():
    system = mapzoo.make_system("cat_map", {})
    depth = 6
    cover = initial_cover(system.domain, depth)
    img = _eval_chunk(system, cover.coords(), depth, boxdyn._sample_offsets(2, 4))
    # the wrapped images of these boxes lie on both sides of a seam
    split = np.any(img.max(axis=1) - img.min(axis=1) > 0.5, axis=-1)
    seam = BoxSet(system.domain, depth, cover.codes[split])
    assert 0 < seam.count < cover.count
    for eps in (0.0, 0.02, 0.3):
        _check_against_reference(system, seam, eps, 4)
        _check_against_reference(system, seam.dilate(), eps, 4)


def test_nested_rings_fat_pad_boxes_match_reference():
    system = mapzoo.make_system("nested_rings", {"step": 0.02})
    depth = 7
    cover = initial_cover(system.domain, depth)
    img = _eval_chunk(system, cover.coords(), depth, boxdyn._sample_offsets(2, 3))
    spread = _image_spread(system.domain, img)
    fat = spread > 4 * np.median(spread)
    rim = BoxSet(system.domain, depth, cover.codes[fat])
    assert 0 < rim.count < cover.count // 10
    _check_against_reference(system, rim, 2.0 ** -6, 3)
    # fat-pad boxes mixed with thin ones in the same chunks
    _check_against_reference(system, rim.dilate(2), 2.0 ** -6, 3)


@pytest.mark.parametrize("name,depth", [("cat_map", 6), ("nested_rings", 6),
                                        ("cubic_interval", 9), ("nf_timeq", 5)])
def test_partial_box_sets_match_reference(name, depth):
    system = mapzoo.make_system(name, {})
    cover = initial_cover(system.domain, depth)
    rng = np.random.default_rng(3)
    h = system.domain.max_box_width(depth)
    for frac in (0.05, 0.5):
        subset = BoxSet(system.domain, depth, cover.codes[rng.random(cover.count) < frac])
        _check_against_reference(system, subset, h, 3)
    few = BoxSet(system.domain, depth, rng.choice(cover.codes, 5, replace=False))
    _check_against_reference(system, few.dilate(2), h, 4)


# ---------------------------------------------------------------------------
# against the brute-force oracle
# ---------------------------------------------------------------------------


def _reference_pad(system, boxset, samples):
    """The earlier empirical pad report: a second map pass over up to 256
    evenly spaced boxes, then the median of their image spreads."""
    take = min(boxset.count, 256)
    idx = np.linspace(0, boxset.count - 1, take).astype(np.int64)
    coords = unpack_codes(boxset.codes[idx], boxset.depth, boxset.domain.dim)
    offsets = boxdyn._sample_offsets(boxset.domain.dim, samples)
    spread = _image_spread(boxset.domain, _eval_chunk(system, coords, boxset.depth, offsets))
    spread = spread[np.isfinite(spread)]
    return float(np.median(spread) / (2.0 * (samples - 1)))


@pytest.mark.parametrize("name,depth,samples,keep,workers", [
    ("nested_rings", 3, 3, 1.0, 1),  # fewer boxes than probes
    ("nested_rings", 6, 3, 1.0, 1),
    ("nested_rings", 6, 2, 0.6, 2),
    ("nf_timeq", 5, 3, 1.0, 2),
    ("nf_timeq", 6, 4, 0.4, 1),
])
def test_empirical_pad_matches_second_map_pass(name, depth, samples, keep, workers):
    system = mapzoo.make_system(name, {})
    full = initial_cover(system.domain, depth)
    mask = np.random.default_rng(depth).random(full.count) < keep
    boxset = BoxSet(system.domain, depth, full.codes[mask])
    g = build_graph(system, boxset, system.domain.max_box_width(depth), samples, workers=workers)
    assert g.pad == _reference_pad(system, boxset, samples)


@pytest.mark.parametrize("name,depth,epsilon,samples,n_edges", [
    ("periodic_spot", 3, 0.5, 4, 3200),
    ("nf_timeq", 3, 0.3, 4, 4096),
])
def test_balls_wider_than_the_domain_keep_every_edge(name, depth, epsilon, samples, n_edges):
    # a sample range runs past both ends of a non-periodic axis; the cells
    # at the top end must still be reached
    system = _cached(mapzoo.make_system(name, {}))
    cover = initial_cover(system.domain, depth)
    graph = build_graph(system, cover, epsilon, samples_per_axis=samples)
    _assert_same(graph, _brute_graph(system, cover, epsilon, samples))
    assert graph.n_edges == n_edges
    assert len(_reference_graph(system, cover, epsilon, samples)[1]) < n_edges


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(SYSTEMS),
    depth=st.integers(0, 4),
    eps_boxes=st.floats(0.0, 40.0),
    samples=st.integers(2, 4),
    keep=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_graph_matches_brute_force(name, depth, eps_boxes, samples, keep, seed):
    system = _cached(mapzoo.make_system(name, {}))
    cover = initial_cover(system.domain, depth)
    rng = np.random.default_rng(seed)
    codes = cover.codes[rng.random(cover.count) < keep]
    if len(codes) == 0:
        codes = cover.codes[:1]
    boxset = BoxSet(system.domain, depth, codes)
    epsilon = eps_boxes * system.domain.max_box_width(depth)
    graph = build_graph(system, boxset, epsilon, samples_per_axis=samples)
    _assert_same(graph, _brute_graph(system, boxset, epsilon, samples))
