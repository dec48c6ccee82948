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


def test_graph_edge_budget_enforced():
    system = mapzoo.make_system("cat_map", {})
    cover = initial_cover(system.domain, 5)
    with pytest.raises(BudgetError):
        build_graph(system, cover, epsilon=0.02, samples_per_axis=3, edge_budget=10)


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
    gr = g.reverse()
    fwd = {(s, int(d)) for s in range(g.n_boxes) for d in g.successors(s)}
    bwd = {(int(d), s) for s in range(gr.n_boxes) for d in gr.successors(s)}
    assert fwd == bwd


def test_image_of_full_cover_is_everything_for_cat():
    system = mapzoo.make_system("cat_map", {})
    cover = initial_cover(system.domain, 4)
    g = build_graph(system, cover, epsilon=0.05)
    assert boxdyn.image_of(g, np.arange(g.n_boxes)) == cover


# ---------------------------------------------------------------------------
# persistence and rasters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["binary", "json"])
def test_boxset_save_load_round_trip(tmp_path, fmt):
    bs = _bs([[0, 0], [5, 3], [7, 7]], depth=3)
    path = tmp_path / f"set.{fmt}.boxes"
    boxdyn.save_boxset(path, bs, fmt=fmt)
    again = boxdyn.load_boxset(path)
    assert again == bs
    assert again.domain == bs.domain


def test_graph_save_load_round_trip(tmp_path):
    system = mapzoo.make_system("cat_map", {})
    g = build_graph(system, initial_cover(system.domain, 4), epsilon=0.05)
    path = tmp_path / "graph.bin"
    boxdyn.save_graph(path, g)
    again = boxdyn.load_graph(path)
    assert np.array_equal(again.indptr, g.indptr)
    assert np.array_equal(again.indices, g.indices)
    assert again.epsilon == g.epsilon and again.pad == g.pad
    assert again.boxset == g.boxset


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
