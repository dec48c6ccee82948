import numpy as np
import pytest

from setdyn import boxdyn, mapzoo
from setdyn.boxdyn import BoxSet, Domain, build_graph, initial_cover, point_codes
from setdyn.errors import BudgetError, ConfigError

UNIT_SQUARE = Domain(lower=(0.0, 0.0), upper=(1.0, 1.0), periodic=(False, False))
TORUS = Domain(lower=(0.0, 0.0), upper=(1.0, 1.0), periodic=(True, True))
INTERVAL = Domain(lower=(-1.0, ), upper=(1.0, ), periodic=(False, ))


# ---------------------------------------------------------------------------
# domains and codes
# ---------------------------------------------------------------------------


def test_domain_wrap_and_contains():
    pts = np.array([[1.25, -0.5]])
    assert np.allclose(TORUS.wrap(pts), [[0.25, 0.5]])
    assert not UNIT_SQUARE.contains(pts, atol=0.0)[0]
    assert UNIT_SQUARE.contains(np.array([[0.0, 1.0]]), atol=0.0)[0]


def _wrap_then_compare(domain, pts, atol):
    """The earlier ``Domain.contains``: wrap periodic axes, then compare
    every axis with the closed rectangle grown by ``atol``."""
    with np.errstate(invalid="ignore"):  # inf mod a period is nan
        pts = domain.wrap(np.asarray(pts, dtype=float))
    lo = np.asarray(domain.lower) - atol
    hi = np.asarray(domain.upper) + atol
    return np.all((pts >= lo) & (pts <= hi), axis=-1)


@pytest.mark.parametrize("name", mapzoo.list_systems())
def test_contains_matches_wrap_then_compare(name):
    domain = mapzoo.make_system(name).domain
    dim = domain.dim
    lo, hi, w = np.asarray(domain.lower), np.asarray(domain.upper), domain.widths
    rng = np.random.default_rng(11)
    parts = [
        lo + rng.random((300, dim)) * w,  # inside
        lo + (rng.random((300, dim)) * 6.0 - 2.5) * w,  # up to 2.5 periods out
        lo + rng.integers(-3, 4, size=(300, dim)) * w,  # whole periods off
        np.stack([lo, hi, lo - 1e-12, hi + 1e-12, lo - 0.05 * w, hi + 0.05 * w]),
    ]
    base = np.concatenate(parts)
    for special in (np.nan, np.inf, -np.inf):
        for ax in range(dim):
            bad = lo + rng.random((4, dim)) * w
            bad[:, ax] = special
            parts.append(bad)
    pts = np.concatenate(parts)
    assert len(pts) > len(base)
    for atol in (0.0, 1e-12, 1e-9, 0.1 * float(w.min())):
        want = _wrap_then_compare(domain, pts, atol)
        got = domain.contains(pts, atol=atol)
        assert np.array_equal(got, want)
        assert not got[len(base):].any()  # non-finite coordinates are outside
        # leading axes pass through, and the input is left as it was
        before = pts.copy()
        assert np.array_equal(domain.contains(pts.reshape(-1, 1, dim), atol=atol),
                              want.reshape(-1, 1))
        assert np.array_equal(pts, before, equal_nan=True)


def test_domain_distance_wraps_on_torus():
    a = np.array([[0.95, 0.5]])
    b = np.array([[0.05, 0.5]])
    assert TORUS.distance(a, b)[0] == pytest.approx(0.1)
    assert UNIT_SQUARE.distance(a, b)[0] == pytest.approx(0.9)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    depth = 7
    coords = rng.integers(0, 1 << depth, size=(500, 2))
    bs = BoxSet.from_coords(UNIT_SQUARE, depth, coords)
    again = bs.coords()
    seen = {tuple(c) for c in coords}
    assert {tuple(c) for c in again} == seen
    assert np.all(np.diff(bs.codes) > 0)  # sorted and deduplicated


def test_point_codes_clamps_boundary():
    # the closed upper edge belongs to the last box, not a phantom one
    codes = point_codes(UNIT_SQUARE, 3, np.array([[1.0, 1.0], [0.0, 0.0]]))
    bs = BoxSet(UNIT_SQUARE, 3, codes)
    coords = {tuple(c) for c in bs.coords()}
    assert coords == {(7, 7), (0, 0)}


def test_too_deep_grid_is_rejected():
    with pytest.raises(ConfigError):
        BoxSet.full_cover(UNIT_SQUARE, 31)


# ---------------------------------------------------------------------------
# set algebra
# ---------------------------------------------------------------------------


def _bs(coords, domain=UNIT_SQUARE, depth=3):
    return BoxSet.from_coords(domain, depth, np.array(coords))


def test_union_intersection_difference():
    a = _bs([[0, 0], [1, 1], [2, 2]])
    b = _bs([[1, 1], [3, 3]])
    assert a.union(b).count == 4
    assert a.intersection(b).count == 1
    assert a.difference(b).count == 2
    assert a.intersection(b).issubset(a)
    assert not a.issubset(b)


def test_incompatible_grids_raise():
    a = _bs([[0, 0]], depth=3)
    b = _bs([[0, 0]], depth=4)
    with pytest.raises(ConfigError):
        a.union(b)


def test_empty_set_operations():
    empty = BoxSet(UNIT_SQUARE, 3, np.empty(0, np.int64))
    a = _bs([[0, 0]])
    assert empty.count == 0
    assert empty.union(a) == a
    assert a.intersection(empty).count == 0
    assert empty.issubset(a)
    assert np.all(empty.indices_of(a.codes) == -1)


def test_subdivide_multiplies_by_two_pow_dim():
    a = _bs([[0, 0], [2, 5]])
    fine = a.subdivide()
    assert fine.depth == 4 and fine.count == 2 * 4
    finer = a.refine_to(5)
    assert finer.depth == 5 and finer.count == 2 * 16
    with pytest.raises(BudgetError):
        a.refine_to(10, budget=100)


def test_subdivided_boxes_tile_their_parent():
    a = _bs([[3, 4]])
    fine = a.subdivide()
    h = UNIT_SQUARE.box_width(4)
    lows = fine.lower_corners()
    assert np.min(lows, axis=0) == pytest.approx([3 / 8, 4 / 8])
    assert np.max(lows, axis=0) + h == pytest.approx([4 / 8, 5 / 8])


def test_dilate_interior_corner_and_torus():
    mid = _bs([[4, 4]])
    assert mid.dilate().count == 9
    corner = _bs([[0, 0]])
    assert corner.dilate().count == 4
    corner_torus = BoxSet.from_coords(TORUS, 3, np.array([[0, 0]]))
    assert corner_torus.dilate().count == 9


def test_volume_fraction():
    assert _bs([[0, 0]]).volume_fraction() == pytest.approx(1 / 64)
    assert BoxSet.full_cover(UNIT_SQUARE, 3).volume_fraction() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# transition graphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,depth", [("cat_map", 5), ("circle_semistable", 6)])
def test_graph_is_outer_approximation(name, depth):
    system = mapzoo.make_system(name, {})
    cover = initial_cover(system.domain, depth)
    h = float(np.max(system.domain.box_width(depth)))
    graph = build_graph(system, cover, epsilon=h, samples_per_axis=4)
    pts = system.sample_points(300, seed=9)
    img = system.domain.wrap(system.forward(pts))
    src = cover.indices_of(point_codes(system.domain, depth, pts))
    dst = point_codes(system.domain, depth, img)
    for i, want in zip(src, dst):
        succ = graph.boxset.codes[graph.successors(int(i))]
        assert int(want) in set(int(c) for c in succ)


def test_graph_workers_agree():
    system = mapzoo.make_system("cat_map", {})
    cover = initial_cover(system.domain, 5)
    g1 = build_graph(system, cover, epsilon=0.02, samples_per_axis=3, workers=1)
    g2 = build_graph(system, cover, epsilon=0.02, samples_per_axis=3, workers=2)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)
    assert g1.pad == g2.pad
    # a partial set over several chunks: the parent resolves the indices
    full = initial_cover(system.domain, 6)
    keep = np.random.default_rng(1).random(full.count) < 0.6
    part = BoxSet(system.domain, 6, full.codes[keep])
    assert part.count > 2 * boxdyn._CHUNK_BOXES
    p1 = build_graph(system, part, epsilon=0.01, samples_per_axis=3, workers=1)
    p2 = build_graph(system, part, epsilon=0.01, samples_per_axis=3, workers=2)
    assert p1.n_edges > 0
    assert np.array_equal(p1.indptr, p2.indptr)
    assert np.array_equal(p1.indices, p2.indices)


def test_graph_edge_budget_enforced():
    system = mapzoo.make_system("cat_map", {})
    cover = initial_cover(system.domain, 5)
    with pytest.raises(BudgetError):
        build_graph(system, cover, epsilon=0.02, samples_per_axis=3, edge_budget=10)


def test_graph_edge_budget_checked_after_each_chunk():
    system = mapzoo.make_system("cat_map", {})
    forward = system.forward
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return forward(pts)

    system.forward = counted
    cover = initial_cover(system.domain, 6)
    assert cover.count > boxdyn._CHUNK_BOXES
    with pytest.raises(BudgetError):
        build_graph(system, cover, epsilon=0.02, samples_per_axis=3, edge_budget=10)
    assert len(calls) == 1


def test_initial_cover_budget():
    with pytest.raises(BudgetError):
        initial_cover(UNIT_SQUARE, 14, budget=1000)


def test_initial_cover_rejects_more_boxes_than_edge_keys_index(monkeypatch):
    # 2^28 boxes fit the budget but not the 27-bit indices packed into edge
    # keys; the check must come before the cover is allocated
    def allocate(*args):
        pytest.fail("the cover was allocated before the box count was checked")

    monkeypatch.setattr(BoxSet, "full_cover", classmethod(allocate))
    with pytest.raises(BudgetError):
        initial_cover(Domain((0.0, 0.0), (1.0, 1.0), (False, False)), 14, budget=2**40)


def test_reverse_transposes_edges():
    system = mapzoo.make_system("cat_map", {})
    g = build_graph(system, initial_cover(system.domain, 4), epsilon=0.05)
    indptr, indices = boxdyn._transpose_csr(g.indptr, g.indices)
    fwd = {(s, int(d)) for s in range(g.n_boxes) for d in g.successors(s)}
    bwd = {(int(d), s) for s in range(g.n_boxes) for d in indices[indptr[s]:indptr[s + 1]]}
    assert fwd == bwd


# ---------------------------------------------------------------------------
# persistence and rasters
# ---------------------------------------------------------------------------


def test_boxset_save_load_round_trip(tmp_path):
    bs = _bs([[0, 0], [5, 3], [7, 7]], depth=3)
    path = tmp_path / "set.boxes"
    boxdyn.save_boxset(path, bs)
    again = boxdyn.load_boxset(path)
    assert again == bs
    assert again.domain == bs.domain


def test_write_pgm_exact_bytes(tmp_path):
    bs = BoxSet.from_coords(UNIT_SQUARE, 1, np.array([[0, 0]]))
    path = tmp_path / "img.pgm"
    boxdyn.write_pgm(path, UNIT_SQUARE, 1, [(bs, 200)])
    # 2x2 raster, rows top-down: box (0, 0) is bottom-left
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 0, 200, 0])


def test_write_pgm_rejects_wrong_grid(tmp_path):
    bs = _bs([[0, 0]], depth=3)
    with pytest.raises(ConfigError):
        boxdyn.write_pgm(tmp_path / "x.pgm", UNIT_SQUARE, 4, [(bs, 10)])
    with pytest.raises(ConfigError):
        boxdyn.write_pgm(tmp_path / "y.pgm", INTERVAL, 3, [])
