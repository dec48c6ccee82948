"""Edge enumeration of ``build_graph`` against two oracles.

``_reference_chunk_edges`` is the earlier per-sample enumerator, kept here
with only its samples taken from ``_eval_chunk``: it builds a dense block
of candidate cells per sample point and filters it.  The graphs it builds must be reproduced bit for bit wherever
no sample range runs past both ends of a non-periodic axis.  There it lost
the cells past the top end, and both enumerators are checked against
``_brute_graph`` instead, which tests every (box, sample, cell) triple.

Both oracles map every box's samples on their own, in one batch, with no
point shared between boxes (``_eval_chunk``), while ``build_graph`` maps
each distinct lattice point of its box set once.  Both take a sample's
coordinate from its integer lattice index.
"""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setdyn import boxdyn, chain, flows, mapzoo
from setdyn.boxdyn import (
    _KEY_BITS,
    BoxSet,
    Domain,
    build_graph,
    initial_cover,
    unpack_codes,
)
from setdyn.errors import ConfigError, NumericsError

SYSTEMS = mapzoo.list_systems()


def _eval_chunk(system, chunk_coords: np.ndarray, depth: int, samples: int):
    """Map every sample of a chunk of boxes, each box on its own; returns
    images (B, S, dim).

    A sample's coordinate comes from its integer lattice index, so that
    neighbouring boxes give a shared point the same double: with den = k-1
    for odd k and 2(k-1) for even k, the sample at offset o of box c has
    index c*den + o*den, and sits at lo + cell*h + o'*h with
    (cell, m) = divmod(index, den) and o' the offset of m/den in the grid.
    """
    domain = system.domain
    offsets = _float_grid(domain.dim, samples)
    den = samples - 1 if samples % 2 else 2 * (samples - 1)
    index = chunk_coords[:, None, :] * den + np.rint(offsets * den).astype(np.int64)
    pts = _lattice_coordinates(domain, depth, samples, index)
    B, S, dim = pts.shape
    flat = domain.wrap(pts.reshape(-1, dim))
    return np.asarray(system.forward(flat), dtype=float).reshape(B, S, dim)


def _float_grid(dim: int, samples: int) -> np.ndarray:
    """A box's sample offsets (S, dim) as floats: ``np.linspace``'s grid
    with corners, axis 0 slowest, then the centre when ``samples`` is
    even.  The oracles build it here, so that they do not read the build's
    integer grid."""
    axis = np.linspace(0.0, 1.0, samples)
    grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    if samples % 2 == 0:
        grid = np.concatenate([grid, np.full((1, dim), 0.5)])
    return grid


def _image_spread(domain, img: np.ndarray) -> np.ndarray:
    """Largest per-axis extent of each box's sampled images (B, S, dim),
    offsets taken the short way round on periodic axes.  The oracles
    compute it here, on their own layout, so that they do not check the
    build's kernel against itself."""
    rel = domain.signed_diff(img, img[:, :1, :])
    return (rel.max(axis=1) - rel.min(axis=1)).max(axis=-1)


def _lattice_coordinates(domain, depth: int, samples: int, index: np.ndarray) -> np.ndarray:
    """Coordinates lo + cell*h + o'*h of lattice indices (..., dim), with
    (cell, m) = divmod(index, den) and o' the offset of m/den in the grid."""
    h = domain.box_width(depth)
    offsets = _float_grid(domain.dim, samples)
    den = samples - 1 if samples % 2 else 2 * (samples - 1)
    cell, m = np.divmod(index, den)
    offset_of = np.zeros(den)
    for o in np.unique(offsets):
        if o < 1.0:
            offset_of[int(round(o * den))] = o
    return np.asarray(domain.lower) + cell * h + offset_of[m] * h


def _reference_chunk_edges(
    system,
    boxset: BoxSet,
    chunk_lo: int,
    chunk_hi: int,
    epsilon: float,
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
    img = _eval_chunk(system, coords, depth, samples_per_axis)
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
    n = boxset.count
    parts = [
        _reference_chunk_edges(system, boxset, lo, min(lo + boxdyn._CHUNK_BOXES, n),
                               epsilon, samples)
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
    img = _eval_chunk(system, boxset.coords(), depth, samples)
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


def _check_against_reference(system, boxset, epsilon, samples):
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
    img = _eval_chunk(system, cover.coords(), depth, 4)
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
    img = _eval_chunk(system, cover.coords(), depth, 3)
    spread = _image_spread(system.domain, img)
    fat = spread > 4 * np.median(spread)
    rim = BoxSet(system.domain, depth, cover.codes[fat])
    assert 0 < rim.count < cover.count // 10
    _check_against_reference(system, rim, 2.0 ** -6, 3)
    # fat-pad boxes mixed with thin ones in the same chunks
    _check_against_reference(system, rim.dilate().dilate(), 2.0 ** -6, 3)


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
    _check_against_reference(system, few.dilate().dilate(), h, 4)


# ---------------------------------------------------------------------------
# against the brute-force oracle
# ---------------------------------------------------------------------------


def _reference_pad(system, boxset, samples):
    """The earlier empirical pad report: a second map pass over up to 256
    evenly spaced boxes, then the median of their image spreads."""
    take = min(boxset.count, 256)
    idx = np.linspace(0, boxset.count - 1, take).astype(np.int64)
    coords = unpack_codes(boxset.codes[idx], boxset.depth, boxset.domain.dim)
    spread = _image_spread(boxset.domain, _eval_chunk(system, coords, boxset.depth, samples))
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
    system = mapzoo.make_system(name, {})
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
    system = mapzoo.make_system(name, {})
    cover = initial_cover(system.domain, depth)
    rng = np.random.default_rng(seed)
    codes = cover.codes[rng.random(cover.count) < keep]
    if len(codes) == 0:
        codes = cover.codes[:1]
    boxset = BoxSet(system.domain, depth, codes)
    epsilon = eps_boxes * system.domain.max_box_width(depth)
    graph = build_graph(system, boxset, epsilon, samples_per_axis=samples)
    _assert_same(graph, _brute_graph(system, boxset, epsilon, samples))


def _twist_3d(third_periodic: bool, lipschitz_hint):
    """A hand-built 3-D map: axis 0 periodic, axis 1 not, whose images leave
    the domain on axis 1, and axis 2 either.  The registry's systems have one
    or two axes, so this one takes the enumeration past 2^2 window corners."""
    domain = Domain((0.0, -1.0, 0.0), (1.0, 1.0, 2.0), (True, False, third_periodic))

    def forward(pts):
        x, y, z = np.asarray(pts, dtype=float).T
        return np.stack([2.0 * x + 0.3 * y + 0.1 * np.sin(np.pi * z),
                         0.8 * y + 0.5 * np.sin(2.0 * np.pi * x),
                         z + 0.25 * x * y + 0.2], axis=-1)

    return mapzoo.MapSystem(name="twist_3d", params={}, domain=domain, forward=forward,
                            lipschitz_hint=lipschitz_hint)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    third_periodic=st.booleans(),
    lipschitz_hint=st.sampled_from([None, 3.5]),
    depth=st.integers(0, 3),
    eps_boxes=st.floats(0.0, 12.0),
    samples=st.integers(2, 4),
    keep=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_3d_graph_matches_brute_force(third_periodic, lipschitz_hint, depth, eps_boxes, samples,
                                      keep, seed):
    # balls of up to 12 box diameters are wider than the domain at low
    # depths, so windows fold on the periodic axes and clip on the other
    system = _twist_3d(third_periodic, lipschitz_hint)
    cover = initial_cover(system.domain, depth)
    codes = cover.codes[np.random.default_rng(seed).random(cover.count) < keep]
    boxset = BoxSet(system.domain, depth, codes if len(codes) else cover.codes[:1])
    epsilon = eps_boxes * system.domain.max_box_width(depth)
    graph = build_graph(system, boxset, epsilon, samples_per_axis=samples)
    _assert_same(graph, _brute_graph(system, boxset, epsilon, samples))


# ---------------------------------------------------------------------------
# CSR assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_csr_is_assembled_without_a_second_graph_length_array(monkeypatch, workers):
    # each chunk's destinations are copied into the index array once; no
    # concatenate, in the calling process or a forked worker, returns an
    # array as long as the graph (cat_map d6: 4,096 boxes, four chunks)
    system = mapzoo.make_system("cat_map", {})
    cover = initial_cover(system.domain, 6)
    epsilon = system.domain.max_box_width(6)
    indptr, indices = _reference_graph(system, cover, epsilon, 4)
    n_edges = len(indices)
    assert cover.count == 4 * boxdyn._CHUNK_BOXES
    concatenate = np.concatenate

    def checked(*args, **kwargs):
        out = concatenate(*args, **kwargs)
        assert len(out) != n_edges, "an array of graph length was concatenated"
        return out

    monkeypatch.setattr(np, "concatenate", checked)
    graph = build_graph(system, cover, epsilon, samples_per_axis=4, workers=workers)
    monkeypatch.undo()
    assert graph.indices.dtype == np.int32
    _assert_same(graph, (indptr, indices))


# ---------------------------------------------------------------------------
# shared lattice samples
# ---------------------------------------------------------------------------


def _counted(system):
    """The system, recording the number of points of each forward call."""
    calls = []

    def forward(pts):
        calls.append(len(pts))
        return system.forward(pts)

    return dataclasses.replace(system, forward=forward), calls


def _lattice_sets_per_chunk(boxset, samples):
    """The set of distinct lattice indices among each chunk's samples,
    taken modulo the period on periodic axes."""
    den = samples - 1 if samples % 2 else 2 * (samples - 1)
    steps = [tuple(int(round(o * den)) for o in row)
             for row in _float_grid(boxset.domain.dim, samples)]
    period = [den << boxset.depth if per else None for per in boxset.domain.periodic]
    coords = boxset.coords().tolist()
    return [
        {tuple(c * den + m if p is None else (c * den + m) % p
               for c, m, p in zip(box, step, period))
         for box in coords[lo:lo + boxdyn._CHUNK_BOXES] for step in steps}
        for lo in range(0, boxset.count, boxdyn._CHUNK_BOXES)
    ]


def _lattice_set(boxset, samples):
    """The distinct lattice indices among all the set's samples."""
    return set().union(*_lattice_sets_per_chunk(boxset, samples))


def _turn_orbits(pts):
    """The number of orbits of points' coordinate bits under the quarter
    turn (x, y) -> (-y, x), exact in floating point: a build of a system
    with ``quarter_turn`` maps one point of each orbit of its new points.
    The origin is an orbit of one; an axis point's zero turns to -0.0, so
    its four turns make two orbits of two."""
    turns = [pts]
    for _ in range(3):
        turns.append(np.stack([-turns[-1][:, 1], turns[-1][:, 0]], axis=-1))
    bits = np.stack(turns, axis=1).view(np.int64).tolist()  # (P, 4, 2)
    return len({frozenset(map(tuple, orbit)) for orbit in bits})


def _mapped_points(system, boxset, samples, index):
    """The number of points of ``index``, lattice indices (P, dim) of the
    box set's depth, that a build maps: one a turn orbit on a system with
    ``quarter_turn``, else each one."""
    if not system.quarter_turn:
        return len(index)
    index = np.array(list(index), dtype=np.int64).reshape(-1, boxset.domain.dim)
    return _turn_orbits(_lattice_coordinates(system.domain, boxset.depth, samples, index))


def _table(boxset, samples):
    """The lattice table of a box set's samples, with its images unwritten."""
    chunks = [(lo, min(lo + boxdyn._CHUNK_BOXES, boxset.count))
              for lo in range(0, boxset.count, boxdyn._CHUNK_BOXES)]
    return boxdyn._lattice_table(boxset, chunks, samples)[0]


def _per_box_pad(system, boxset, samples):
    if system.lipschitz_hint is None:
        return _reference_pad(system, boxset, samples)
    hmax = boxset.domain.max_box_width(boxset.depth)
    return system.lipschitz_hint * hmax / (2.0 * (samples - 1))


def _shared_sample_case(case):
    if case == "nf_timeq_full":
        system = mapzoo.make_system("nf_timeq", {})
        return system, initial_cover(system.domain, 6), 3
    system = mapzoo.make_system("nested_rings" if case == "sparse" else "cat_map", {})
    cover = initial_cover(system.domain, 6)
    if case == "cat_map_centre":
        return system, cover, 4
    if case == "sparse":
        keep = np.random.default_rng(6).random(cover.count) < 0.3
        return system, BoxSet(system.domain, 6, cover.codes[keep]), 3
    # boxes whose wrapped images lie on both sides of a seam
    img = _eval_chunk(system, cover.coords(), 6, 4)
    split = np.any(img.max(axis=1) - img.min(axis=1) > 0.5, axis=-1)
    return system, BoxSet(system.domain, 6, cover.codes[split]).dilate(), 4


@pytest.mark.parametrize("case", ["nf_timeq_full", "cat_map_centre", "sparse", "cat_map_seam"])
def test_forward_maps_each_shared_point_once_per_build(case):
    system, boxset, samples = _shared_sample_case(case)
    epsilon = system.domain.max_box_width(boxset.depth)
    counted, calls = _counted(system)
    graph = build_graph(counted, boxset, epsilon, samples_per_axis=samples)
    # every distinct lattice point of the set once, seams between chunks
    # too; nested_rings maps one point of each turn orbit of them
    assert sum(calls) == _mapped_points(system, boxset, samples, _lattice_set(boxset, samples))
    assert sum(calls) <= sum(len(p) for p in _lattice_sets_per_chunk(boxset, samples))
    # at most one call a chunk, for the points no chunk before it needed
    assert 0 < len(calls) <= -(-boxset.count // boxdyn._CHUNK_BOXES)
    if case == "nf_timeq_full":
        # 17,028 when each chunk mapped its own points, seams twice
        assert (len(calls), sum(calls)) == (4, 16641)
    assert sum(calls) < boxset.count * len(_float_grid(2, samples))
    # the same graph as from each box's own samples, mapped without sharing
    _assert_same(graph, _reference_graph(system, boxset, epsilon, samples))
    assert graph.pad == _per_box_pad(system, boxset, samples)
    parallel = build_graph(system, boxset, epsilon, samples_per_axis=samples, workers=2)
    _assert_same(parallel, (graph.indptr, graph.indices))
    assert parallel.pad == graph.pad


@pytest.mark.parametrize("samples", [2, 3, 4])
def test_full_cover_maps_one_point_per_turn_orbit(samples):
    # nested_rings maps a quarter of its lattice, and the images it turns
    # give the graph the per-sample enumerator builds from every point
    system = mapzoo.make_system("nested_rings", {})
    cover = initial_cover(system.domain, 5)
    counted, calls = _counted(system)
    epsilon = system.domain.max_box_width(5)
    graph = build_graph(counted, cover, epsilon, samples_per_axis=samples)
    points = _lattice_set(cover, samples)
    assert sum(calls) == _mapped_points(system, cover, samples, points)
    # with 3 samples the lattice has 65 x 65 points, every coordinate
    # exact: the origin, 64 axis pairs and a quarter of the other 4,096
    # points.  With 2 it has 33 x 33 corners and 32 x 32 centres.  With 4 a
    # point at a third of a cell may not turn onto another's bits, and is
    # mapped on its own
    assert sum(calls) == {2: 545, 3: 1089, 4: 3281}[samples] < len(points) / 3
    _assert_same(graph, _reference_graph(system, cover, epsilon, samples))
    assert graph.pad == _per_box_pad(system, cover, samples)


@pytest.mark.parametrize("samples", [2, 3, 4])
@pytest.mark.parametrize("name", ["nested_rings", "cat_map", "nf_timeq"])
def test_lattice_coordinates_move_only_on_far_faces(name, samples):
    # the earlier coordinates were corner + offset*h; on a grid where h is
    # exact in binary the lattice gives the same doubles, and elsewhere a
    # sample at offset 1 may move by one ulp of the domain's width (more
    # ulps of its own where it lies near 0)
    system = mapzoo.make_system(name, {})
    identity = dataclasses.replace(system, forward=lambda pts: pts)
    domain = system.domain
    offsets = _float_grid(domain.dim, samples)
    for depth in (3, 6, 8):
        cover = initial_cover(domain, depth)
        h = domain.box_width(depth)
        old = domain.wrap(cover.lower_corners()[:, None, :] + offsets * h)
        # each box's samples as the build's fill step gives them to the
        # identity map, which writes them into the table unchanged
        table = _table(cover, samples)
        build = boxdyn._Build(identity, cover, 0.0, samples, table, None)
        boxdyn._fill(build, 0, len(table.keys))
        pts = table.images
        new = pts[table.sample_rows(cover.codes).T]
        if name != "nf_timeq":
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
            continue
        moved = new != old
        assert np.any(moved)
        assert not np.any(moved & (offsets != 1.0))
        assert np.all(np.abs(new - old) <= np.spacing(domain.widths))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sample_grid_is_the_float_grid_in_lattice_steps(dim):
    # the build's integer grid names the float grid's points in the same
    # order, den steps a cell, and its offsets have np.linspace's bits
    for samples in range(2, 12):
        grid = _float_grid(dim, samples)
        den = samples - 1 if samples % 2 else 2 * (samples - 1)
        steps, got, offsets = boxdyn._sample_grid(dim, samples)
        assert got == den and steps.dtype == np.int64
        assert np.array_equal(steps, np.rint(grid * den))
        assert offsets[steps].tobytes() == grid.tobytes()
        assert not np.any(offsets[~np.isin(np.arange(den + 1), steps)])


# ---------------------------------------------------------------------------
# lattice images handed from one stage of a scan to the next
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["nested_rings", "nf_timeq"])
def test_workers_fill_the_same_lattice_table(name):
    # the workers write their images into the build's shared table; the table
    # kept for the next stage equals the one-worker table bit for bit, for a
    # fresh build and for one filled partly from the previous stage's table;
    # three workers outnumber the cores of a 2-CPU host
    system = mapzoo.make_system(name, {"step": 0.05})
    coarse = initial_cover(system.domain, 6)
    full = initial_cover(system.domain, 7)
    fine = BoxSet(system.domain, 7, full.codes[np.random.default_rng(7).random(full.count) < 0.4])
    assert fine.count > 4 * boxdyn._CHUNK_BOXES
    eps = system.domain.max_box_width(7)
    graphs = {}
    for workers in (1, 2, 3):
        first = build_graph(system, coarse, eps, 3, workers=workers, keep_images=True)
        second = build_graph(system, fine, eps, 3, workers=workers,
                             reuse=first.lattice_images, keep_images=True)
        graphs[workers] = (first, second)
    for one, two in zip(graphs[1] * 2, graphs[2] + graphs[3]):
        _assert_same(two, (one.indptr, one.indices))
        assert two.pad == one.pad
        a, b = one.lattice_images, two.lattice_images
        assert np.array_equal(a.keys, b.keys) and np.array_equal(a.cells, b.cells)
        assert a.images.tobytes() == b.images.tobytes()


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_build_frees_its_table_before_the_csr_unless_kept(monkeypatch, workers, keep):
    # the CSR index array is the last off-heap array the calling process
    # makes; by then a table not kept is gone, with and without a pool
    system = mapzoo.make_system("cat_map", {})
    cover = initial_cover(system.domain, 6)
    tables, made = [], []
    lattice_table, off_heap = boxdyn._lattice_table, boxdyn._off_heap

    def table_of(*args):
        table, ends = lattice_table(*args)
        tables.append(weakref.ref(table))
        return table, ends

    def recorded(n, dtype):
        made.append((n, [ref() is not None for ref in tables]))
        return off_heap(n, dtype)

    monkeypatch.setattr(boxdyn, "_lattice_table", table_of)
    monkeypatch.setattr(boxdyn, "_off_heap", recorded)
    graph = build_graph(system, cover, 0.05, 3, workers=workers, keep_images=keep)
    assert made[-1] == (graph.n_edges, [keep])
    assert (graph.lattice_images is not None) == keep
    if workers == 1:
        # each chunk's edges are made while the table is alive
        assert all(alive == [True] for _, alive in made[1:-1]) and len(made) == 6


@pytest.mark.parametrize("samples", [2, 3, 4])
def test_lattice_rows_match_a_brute_force_dict(samples):
    # a sparse table on nf_timeq's square: h = 0.6/2^5 is not exact in
    # binary, and the centre index has the coordinate 0.0.  Every index of
    # the grid is asked for, some of them with a coordinate turned to -0.0
    # or moved by one ulp; a point is found when its index is a row and its
    # coordinate has that row's bits
    domain, depth = mapzoo.make_system("nf_timeq", {}).domain, 5
    cover = initial_cover(domain, depth)
    keep = np.random.default_rng(samples).random(cover.count) < 0.3
    sparse = BoxSet(domain, depth, cover.codes[keep])
    table = _table(sparse, samples)
    index = table.index(0, len(table.keys))
    assert len(index) == len(_lattice_set(sparse, samples))
    assert set(map(tuple, index.tolist())) == _lattice_set(sparse, samples)
    coords = _lattice_coordinates(domain, depth, samples, index)
    assert table.points(index).tobytes() == coords.tobytes()
    truth = {tuple(i): (row, tuple(c)) for row, (i, c)
             in enumerate(zip(index.tolist(), coords.view(np.int64).tolist()))}

    n = (samples - 1 if samples % 2 else 2 * (samples - 1)) << depth
    grid = np.stack(np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij"),
                    axis=-1).reshape(-1, 2)
    pts = _lattice_coordinates(domain, depth, samples, grid)
    rng = np.random.default_rng(0)
    zero = pts[:, 0] == 0.0
    pts[zero & (rng.random(len(pts)) < 0.5), 0] = -0.0
    off = ~zero & (rng.random(len(pts)) < 0.2)
    pts[off, 1] = np.nextafter(pts[off, 1], np.inf)
    keys = list(map(tuple, grid.tolist()))
    want = [(p, truth[i][0]) for p, (i, c) in enumerate(zip(keys, pts.view(np.int64).tolist()))
            if i in truth and truth[i][1] == tuple(c)]
    hit, row = table.rows(grid, pts)
    assert list(zip(hit.tolist(), row.tolist())) == want
    # each way to miss occurs: a -0.0 where the row has 0.0, one ulp off a
    # row's coordinate, and an index that is no row
    found = set(hit.tolist())
    rowed = np.array([i in truth for i in keys])
    for miss in (zero & np.signbit(pts[:, 0]) & rowed, off & rowed, ~rowed):
        assert np.any(miss) and found.isdisjoint(np.flatnonzero(miss).tolist())


def test_reuse_takes_only_divisible_indices_with_the_same_bits():
    # a depth-6 build reuses a sparse depth-4 table, two halvings apart, on
    # nf_timeq's square, where h is not exact in binary.  A point's image is
    # reused when its index divides by 4, the quarter index is a row there,
    # and the coordinate has the same bits at both depths
    system = mapzoo.make_system("nf_timeq", {"step": 0.05})
    domain = system.domain
    cover = initial_cover(domain, 4)
    coarse = BoxSet(domain, 4, cover.codes[np.random.default_rng(4).random(cover.count) < 0.5])
    fine = initial_cover(domain, 6)
    eps = domain.max_box_width(6)
    table = build_graph(system, coarse, eps, 3, keep_images=True).lattice_images
    counted, calls = _counted(system)
    graph = build_graph(counted, fine, eps, 3, reuse=table, keep_images=True)

    index = np.array(sorted(_lattice_set(fine, 3)), dtype=np.int64)
    divisible = np.all(index % 4 == 0, axis=1)
    rows = _lattice_set(coarse, 3)
    present = np.array([tuple(i) in rows for i in (index >> 2).tolist()])
    here = _lattice_coordinates(domain, 6, 3, index)
    there = _lattice_coordinates(domain, 4, 3, index >> 2)
    same = np.all(here.view(np.int64) == there.view(np.int64), axis=1)
    assert sum(calls) == len(index) - np.count_nonzero(divisible & present & same)
    assert np.any(divisible & present & ~same) and np.any(~divisible & present)
    alone = build_graph(system, fine, eps, 3, keep_images=True)
    _assert_same(graph, (alone.indptr, alone.indices))
    assert graph.lattice_images.images.tobytes() == alone.lattice_images.images.tobytes()


def _scan_oracle_counts(system, depths, samples, bitwise):
    """The points each stage of a scan over full covers at ``depths`` maps:
    its distinct lattice indices, minus those present at the previous
    depth, and with ``bitwise`` minus only those whose coordinate there has
    the same bits; of the rest, one point a turn orbit on a system with
    ``quarter_turn``."""
    domain = system.domain
    counts, prev = [], None
    for depth in depths:
        cover = initial_cover(domain, depth)
        points = _lattice_set(cover, samples)
        index = np.array(sorted(points), dtype=np.int64)
        found = np.zeros(len(index), dtype=bool)
        if prev is not None:
            prev_depth, prev_points = prev
            shift = depth - prev_depth
            coarse = index >> shift
            found = np.all(coarse << shift == index, axis=1)
            found &= np.array([tuple(c) in prev_points for c in coarse.tolist()])
            if bitwise:
                here = _lattice_coordinates(domain, depth, samples, index)
                there = _lattice_coordinates(domain, prev_depth, samples, coarse)
                found &= np.all(here.view(np.int64) == there.view(np.int64), axis=1)
        counts.append(_mapped_points(system, cover, samples, index[~found]))
        prev = (depth, points)
    return counts


def _captured_scan(monkeypatch, system, schedule, samples, workers=1, calls=None):
    """core_scan's certificate around the origin, the graphs of its stages,
    and the points each stage mapped, from the ``calls`` of ``_counted``."""
    graphs, mapped = [], []

    def build(*args, **kwargs):
        start = len(calls) if calls is not None else 0
        graphs.append(build_graph(*args, **kwargs))
        mapped.append(sum(calls[start:]) if calls is not None else None)
        return graphs[-1]

    with monkeypatch.context() as m:
        m.setattr(chain, "build_graph", build)
        cert = chain.core_scan(system, (0.0, 0.0), schedule, samples_per_axis=samples,
                               workers=workers)
    return cert, graphs, mapped


def _assert_stages_built_alone(system, schedule, samples, graphs):
    # every stage's graph is the one cover_graph builds on its own; only
    # the stages that another one follows keep their lattice images
    for (depth, eps), graph in zip(schedule, graphs, strict=True):
        alone = chain.cover_graph(system, depth, eps, samples)
        _assert_same(graph, (alone.indptr, alone.indices))
        assert graph.pad == alone.pad
    assert [g.lattice_images is not None for g in graphs] == [True] * (len(graphs) - 1) + [False]


def test_scan_maps_only_the_points_the_previous_stage_lacks(monkeypatch, tmp_path):
    system = mapzoo.make_system("nested_rings", {})
    schedule = [(4, 0.1), (5, 0.05), (6, 0.03)]
    depths = [d for d, _ in schedule]
    counted, calls = _counted(system)
    cert, graphs, mapped = _captured_scan(monkeypatch, counted, schedule, 3, calls=calls)
    assert mapped == _scan_oracle_counts(system, depths, 3, bitwise=False)
    # one point of each turn orbit of the depth-6 lattice, of 129 x 129
    # points, once in the scan: the origin, 128 axis pairs and 4,096 others
    cover = initial_cover(system.domain, 6)
    assert sum(calls) == _mapped_points(system, cover, 3, _lattice_set(cover, 3)) == 4225
    _assert_stages_built_alone(system, schedule, 3, graphs)

    # with two workers the pool maps each chunk's points; the workers fork
    # with the system as passed, so its forward call logs to a file
    log = tmp_path / "points"

    def forward(pts):
        with open(log, "a") as fh:
            fh.write(f"{len(pts)}\n")
        return system.forward(pts)

    logged = dataclasses.replace(system, forward=forward)
    parallel, graphs, _ = _captured_scan(monkeypatch, logged, schedule, 3, workers=2)
    assert parallel == cert
    assert sum(int(n) for n in log.read_text().split()) == sum(calls)
    _assert_stages_built_alone(system, schedule, 3, graphs)


def test_scan_reuses_only_points_with_the_same_coordinate_bits(monkeypatch):
    # h = 0.3/2^d is not exact in binary, so a point of the depth-4 lattice
    # may sit one ulp off its depth-5 twin; its image is then mapped anew
    system = mapzoo.make_system("nf_timeq", {})
    schedule = [(4, 0.1), (5, 0.05)]
    counted, calls = _counted(system)
    _, graphs, mapped = _captured_scan(monkeypatch, counted, schedule, 3, calls=calls)
    bitwise = _scan_oracle_counts(system, [4, 5], 3, bitwise=True)
    assert mapped == bitwise
    assert sum(_scan_oracle_counts(system, [4, 5], 3, bitwise=False)) < sum(bitwise)
    _assert_stages_built_alone(system, schedule, 3, graphs)


def test_lattice_keys_fit_in_int64_on_the_deepest_sampled_grid():
    # build_graph samples a 2-D grid up to depth 30, where (depth+1)*dim
    # owner bits reach 62.  A lattice key is an owner cell's rank among the
    # set's owner cells times den^dim plus a slot, so it stays small at
    # every depth: both the depth-29 and the depth-30 graph keep a table,
    # and the depth-30 build finds its depth-29 points there
    domain = Domain((0.0, 0.0), (1.0, 1.0), (False, False))
    system = mapzoo.MapSystem(name="halve", params={}, domain=domain,
                              forward=lambda pts: 0.5 * np.asarray(pts) + 0.25,
                              lipschitz_hint=0.5)
    mid = np.arange((1 << 28) - 3, (1 << 28) + 3)
    coarse = BoxSet.from_coords(
        domain, 29, np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1).reshape(-1, 2))
    fine = coarse.subdivide()
    eps = domain.max_box_width(30)
    counted, calls = _counted(system)
    table = build_graph(counted, coarse, eps, samples_per_axis=3, keep_images=True).lattice_images
    assert calls == [13 * 13] and len(table.keys) == 13 * 13
    assert np.all(np.diff(table.keys) > 0)
    # 7 x 7 owner cells, the last one's code 60 bits long
    assert len(table.cells) == 49 and table.cells[-1] == ((1 << 28) + 3) * ((1 << 30) + 1)
    calls.clear()
    graph = build_graph(counted, fine, eps, samples_per_axis=3, reuse=table, keep_images=True)
    assert calls == [25 * 25 - 13 * 13]
    assert len(graph.lattice_images.keys) == 25 * 25
    assert graph.lattice_images.cells[-1] >> 31 == (1 << 29) + 6
    _assert_same(graph, _reference_graph(system, fine, eps, 3))
    # a depth-30 table serves another depth-30 build whole
    calls.clear()
    again = build_graph(counted, fine, eps, samples_per_axis=3, reuse=graph.lattice_images)
    assert calls == []
    _assert_same(again, (graph.indptr, graph.indices))
    # at samples 4 the depth-29 graph keeps a table too
    wide = build_graph(system, coarse, eps, samples_per_axis=4, keep_images=True)
    assert len(wide.lattice_images.keys) == len(_lattice_set(coarse, 4))


def test_lattice_indices_must_fit_in_int64():
    # the largest lattice index an axis is den << depth, reached on a
    # non-periodic top face.  At depth 60 a 1-D set fits it with 5 samples
    # (den 4, 2^62), and a build there reuses every other point of a
    # depth-59 table; with 6 samples (den 10) it overflows
    line = Domain((0.0,), (1.0,), (False,))
    system = mapzoo.MapSystem(name="identity", params={}, domain=line, forward=lambda pts: pts,
                              lipschitz_hint=1.0)
    top = 1 << 59
    coarse = BoxSet(line, 59, np.arange(top - 3, top))
    table = build_graph(system, coarse, 0.0, samples_per_axis=5, keep_images=True).lattice_images
    fine = coarse.subdivide()
    counted, calls = _counted(system)
    graph = build_graph(counted, fine, 0.0, samples_per_axis=5, reuse=table, keep_images=True)
    assert calls == [12] and len(graph.lattice_images.keys) == 25
    assert graph.lattice_images.index(24, 25).tolist() == [[1 << 62]]
    _assert_same(graph, _reference_graph(system, fine, 0.0, 5))
    with pytest.raises(ConfigError, match="overflow an int64 at depth 60"):
        boxdyn.check_build(line, 60, 0.0, 6, 1)
    with pytest.raises(ConfigError, match="overflow"):
        build_graph(system, fine, 0.0, samples_per_axis=6)
