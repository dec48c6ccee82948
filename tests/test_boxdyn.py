import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert not UNIT_SQUARE.contains(pts)[0]
    assert UNIT_SQUARE.contains(np.array([[0.0, 1.0]]))[0]


def _wrap_then_compare(domain, pts):
    """The earlier ``Domain.contains``: wrap periodic axes, then compare
    every axis with the closed rectangle."""
    with np.errstate(invalid="ignore"):  # inf mod a period is nan
        pts = domain.wrap(np.asarray(pts, dtype=float))
    return np.all((pts >= np.asarray(domain.lower)) & (pts <= np.asarray(domain.upper)), axis=-1)


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
    want = _wrap_then_compare(domain, pts)
    got = domain.contains(pts)
    assert np.array_equal(got, want)
    assert not got[len(base):].any()  # non-finite coordinates are outside
    # leading axes pass through, and the input is left as it was
    before = pts.copy()
    assert np.array_equal(domain.contains(pts.reshape(-1, 1, dim)), want.reshape(-1, 1))
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


def test_too_deep_grid_to_sample_is_rejected():
    # sample cells reach index 2^depth on the top face, one bit more an
    # axis than a box code, and four axes of 16 bits overflow an int64
    cube = Domain((0.0,) * 4, (1.0,) * 4, (False,) * 4)
    system = SimpleNamespace(domain=cube, lipschitz_hint=1.0, forward=lambda p: p)
    build_graph(system, BoxSet(cube, 14, [0, 1]), 0.0, samples_per_axis=2)
    with pytest.raises(ConfigError):
        build_graph(system, BoxSet(cube, 15, [0, 1]), 0.0, samples_per_axis=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(-1e300, 1e300),
                min_size=1, max_size=40))
@example([0.0, -0.0, 1.0])
@example([-0.0, 0.0, 0.0, -0.0])
def test_median_has_the_bits_of_numpy_median(values):
    # the empirical pad's median, of arrays of odd and of even length
    a = np.array(values)
    assert np.float64(boxdyn._median(a.copy())).tobytes() == np.median(a).tobytes()


@pytest.mark.parametrize("codes", [[-1, 3], [3, 16], [-1, 16, 3], [2**62]])
def test_boxset_rejects_codes_out_of_range(codes):
    # at depth 2 in 2-D the codes are 0..15; -1 and 16 used to alias to
    # the cells (3, 3) and (0, 0)
    with pytest.raises(ConfigError, match="out of range"):
        BoxSet(UNIT_SQUARE, 2, codes)
    assert BoxSet(UNIT_SQUARE, 2, [0, 15, 3]).count == 3


# ---------------------------------------------------------------------------
# set algebra
# ---------------------------------------------------------------------------


def _bs(coords, domain=UNIT_SQUARE, depth=3):
    return BoxSet.from_coords(domain, depth, np.array(coords))


def test_union_intersection_issubset():
    a = _bs([[0, 0], [1, 1], [2, 2]])
    b = _bs([[1, 1], [3, 3]])
    assert a.union(b).count == 4
    assert a.intersection(b).count == 1
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


_NEAR_2_62 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-50, 50),
    st.integers(2**62 - 50, 2**62 + 50),
    st.integers(-(2**62) - 50, -(2**62) + 50),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_NEAR_2_62, max_size=60))
@example([])
@example([7])
@example([-3] * 9)
@example([2**62, -(2**62), 2**62 - 1, -(2**62) + 1, 2**62, 0, -1])
@example([2**63 - 1, -(2**63), 2**63 - 1])
def test_unique_equals_numpy_unique(values):
    a = np.array(values, dtype=np.int64)
    got = boxdyn._unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_contains_codes_and_union_keep_set_semantics():
    a = _bs([[0, 0], [1, 1], [2, 2]])
    b = _bs([[1, 1], [3, 3]])
    codes = np.array([[a.codes[1], b.codes[1]], [-1, a.codes[2]]])
    assert np.array_equal(a.contains_codes(codes), np.isin(codes, a.codes))
    union = a.union(b)
    assert np.array_equal(union.codes, np.union1d(a.codes, b.codes))


def test_subdivide_multiplies_by_two_pow_dim(monkeypatch):
    a = _bs([[0, 0], [2, 5]])
    fine = a.subdivide()
    assert fine.depth == 4 and fine.count == 2 * 4
    finer = a.refine_to(5)
    assert finer.depth == 5 and finer.count == 2 * 16
    monkeypatch.setattr(boxdyn, "BOX_BUDGET", 100)
    with pytest.raises(BudgetError):
        a.refine_to(10)


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
        succ = graph.boxset.codes[graph.indices[graph.indptr[i] : graph.indptr[i + 1]]]
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


def test_graph_workers_build_the_callers_system():
    # the workers fork with the system as passed: a registry system with its
    # map swapped keeps the swapped map, and a hand-built one with closures
    # (4,096 boxes, four chunks) builds in parallel too
    cubic = mapzoo.make_system("cubic_interval", {})
    identity = dataclasses.replace(cubic, forward=lambda pts: np.asarray(pts, dtype=float))
    shift = np.array([0.3, 0.1])
    hand = mapzoo.MapSystem(name="skew", params={}, domain=TORUS,
                            forward=lambda pts: TORUS.wrap(0.5 * pts + shift))
    edges = []
    for system, epsilon in ((identity, 0.01), (hand, 0.02)):
        cover = initial_cover(system.domain, 6)
        g1 = build_graph(system, cover, epsilon, samples_per_axis=3, workers=1)
        g2 = build_graph(system, cover, epsilon, samples_per_axis=3, workers=2)
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)
        assert g1.pad == g2.pad
        edges.append(g2.n_edges)
    # the identity's graph, not the cubic map's
    cubic_graph = build_graph(cubic, initial_cover(cubic.domain, 6), 0.01, samples_per_axis=3)
    assert edges[0] != cubic_graph.n_edges
    assert edges[1] > 0


def test_graph_rejects_a_box_set_on_another_domain():
    # the samples' images land on the system's grid, so cells of any other
    # grid give a graph of nothing: cat_map's torus is [0, 1)^2
    system = mapzoo.make_system("cat_map", {})
    wide = Domain((0.0, 0.0), (2.0, 2.0), (True, True))
    with pytest.raises(ConfigError, match="another domain"):
        build_graph(system, initial_cover(wide, 3), 0.1, samples_per_axis=3)
    # an equal domain built anew is the same grid
    same = Domain((0.0, 0.0), (1.0, 1.0), (True, True))
    assert build_graph(system, initial_cover(same, 3), 0.1, samples_per_axis=3).n_edges > 0


@pytest.mark.parametrize("domain", [
    Domain((-1.25, -1.0), (1.25, 1.0), (False, False)),  # not square
    Domain((0.0, 0.0), (2.5, 2.5), (False, False)),  # square, not centred on the origin
    Domain((-1.25, -1.25), (1.25, 1.25), (True, True)),  # periodic
    Domain((-1.25,), (1.25,), (False,)),  # one axis
])
def test_graph_of_a_quarter_turn_system_needs_a_square_centred_on_the_origin(domain):
    # the build turns lattice points about the origin, so the domain must
    # turn onto itself; without the declaration the same map builds anywhere
    rings = mapzoo.make_system("nested_rings", {})
    system = dataclasses.replace(rings, domain=domain, forward=lambda p: np.zeros_like(p))
    with pytest.raises(ConfigError, match="quarter turn"):
        build_graph(system, initial_cover(domain, 2), 0.1, samples_per_axis=3)
    plain = dataclasses.replace(system, quarter_turn=False)
    assert build_graph(plain, initial_cover(domain, 2), 0.1, samples_per_axis=3).n_edges > 0


def test_graph_pool_has_no_more_processes_than_chunks(monkeypatch):
    # a process beyond the chunk count would get no task: a one-chunk build
    # starts no pool, and a two-chunk build with three workers makes two
    import concurrent.futures

    real, sizes = concurrent.futures.ProcessPoolExecutor, []

    def logged(max_workers, *args):
        sizes.append(max_workers)
        return real(max_workers, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", logged)
    for name, depth, epsilon, chunks, workers, pools in (("cat_map", 5, 0.02, 1, 2, []),
                                                         ("cubic_interval", 11, 0.001, 2, 3, [2])):
        system = mapzoo.make_system(name, {})
        cover = initial_cover(system.domain, depth)
        assert cover.count == chunks * boxdyn._CHUNK_BOXES
        one = build_graph(system, cover, epsilon, samples_per_axis=3, workers=1)
        many = build_graph(system, cover, epsilon, samples_per_axis=3, workers=workers)
        assert sizes == pools
        assert np.array_equal(one.indptr, many.indptr)
        assert np.array_equal(one.indices, many.indices)


def test_graph_pool_tasks_carry_a_function_and_bounds(monkeypatch):
    # the workers share the build, so a task names a step and a range of
    # table rows or boxes, and carries no array either way but the results
    from concurrent.futures import ProcessPoolExecutor

    tasks = []
    pool_map = ProcessPoolExecutor.map

    def logged(pool, fn, items, **kwargs):
        tasks.extend(items)
        return pool_map(pool, fn, items, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", logged)
    system = mapzoo.make_system("cat_map", {})
    graph = build_graph(system, initial_cover(system.domain, 6), 0.02, samples_per_axis=3,
                        workers=2)
    assert graph.n_edges > 0
    steps = [fn for fn, _, _ in tasks]
    assert steps == [boxdyn._fill] * 4 + [boxdyn._edges] * 4
    assert all(type(a) is int and type(b) is int for _, a, b in tasks)


def test_graph_edge_budget_enforced(monkeypatch):
    system = mapzoo.make_system("cat_map", {})
    cover = initial_cover(system.domain, 5)
    monkeypatch.setattr(boxdyn, "EDGE_BUDGET", 10)
    with pytest.raises(BudgetError):
        build_graph(system, cover, epsilon=0.02, samples_per_axis=3)


def test_graph_edge_budget_checked_after_each_chunk(monkeypatch):
    system = mapzoo.make_system("cat_map", {})
    forward = system.forward
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return forward(pts)

    system.forward = counted
    cover = initial_cover(system.domain, 6)
    assert cover.count > boxdyn._CHUNK_BOXES
    monkeypatch.setattr(boxdyn, "EDGE_BUDGET", 10)
    with pytest.raises(BudgetError):
        build_graph(system, cover, epsilon=0.02, samples_per_axis=3)
    assert len(calls) == 1


def test_graph_point_budget_counts_the_samples_of_the_set(monkeypatch):
    # 10 boxes of 3 x 3 samples hold 90 points, 11 hold 99; the check comes
    # before the lattice table is made
    system = mapzoo.make_system("cat_map", {})
    codes = initial_cover(system.domain, 3).codes
    monkeypatch.setattr(boxdyn, "POINT_BUDGET", 90)
    build_graph(system, BoxSet(system.domain, 3, codes[:10]), 0.1, samples_per_axis=3)
    monkeypatch.setattr(boxdyn, "_lattice_table", lambda *args: pytest.fail("table made"))
    with pytest.raises(BudgetError, match="99 sample points"):
        build_graph(system, BoxSet(system.domain, 3, codes[:11]), 0.1, samples_per_axis=3)


def test_transition_graph_narrows_to_int32(graph_from_edges):
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0), (2, 2)])  # int64 arrays
    assert g.indptr.dtype == g.indices.dtype == np.int32
    assert g.indptr.tolist() == [0, 1, 2, 4]
    assert g.indices.tolist() == [1, 2, 0, 2]
    # int32 arrays are kept as they are
    again = boxdyn.TransitionGraph(g.boxset, g.epsilon, g.indptr, g.indices, g.pad)
    assert again.indptr is g.indptr and again.indices is g.indices


@pytest.mark.parametrize("field", ["indptr", "indices"])
@pytest.mark.parametrize("value", [2**31, -(2**31) - 1, 2**40])
def test_transition_graph_rejects_values_outside_int32(graph_from_edges, field, value):
    g = graph_from_edges(2, [(0, 1)])
    arrays = {"indptr": np.array([0, 1, 1], dtype=np.int64),
              "indices": np.array([1], dtype=np.int64)}
    arrays[field][-1] = value
    with pytest.raises(ConfigError, match="outside int32"):
        boxdyn.TransitionGraph(g.boxset, g.epsilon, arrays["indptr"], arrays["indices"], g.pad)


def test_initial_cover_budget(monkeypatch):
    monkeypatch.setattr(boxdyn, "BOX_BUDGET", 1000)
    with pytest.raises(BudgetError):
        initial_cover(UNIT_SQUARE, 14)


def test_initial_cover_rejects_more_boxes_than_edge_keys_index(monkeypatch):
    # 2^28 boxes fit the budget but not the 27-bit indices packed into edge
    # keys; the check must come before the cover is allocated
    def allocate(*args):
        pytest.fail("the cover was allocated before the box count was checked")

    monkeypatch.setattr(BoxSet, "full_cover", classmethod(allocate))
    monkeypatch.setattr(boxdyn, "BOX_BUDGET", 2**40)
    with pytest.raises(BudgetError):
        initial_cover(Domain((0.0, 0.0), (1.0, 1.0), (False, False)), 14)


def test_reverse_transposes_edges():
    system = mapzoo.make_system("cat_map", {})
    g = build_graph(system, initial_cover(system.domain, 4), epsilon=0.05, keep_images=True)
    r = g.reversed
    fwd = {(s, int(d)) for s in range(g.n_boxes) for d in g.indices[g.indptr[s]:g.indptr[s + 1]]}
    bwd = {(int(d), s) for s in range(g.n_boxes) for d in r.indices[r.indptr[s]:r.indptr[s + 1]]}
    assert fwd == bwd
    assert r.indptr.dtype == r.indices.dtype == np.int32
    assert g.lattice_images is not None and r.lattice_images is None


def test_reversed_graph_is_the_graph_of_reversed_edges_and_is_kept(graph_from_edges):
    edges = [(0, 1), (1, 2), (2, 0), (2, 2), (3, 1), (4, 0), (4, 3)]
    g = graph_from_edges(6, edges, epsilon=0.1, pad=0.02)
    want = graph_from_edges(6, [(b, a) for a, b in edges], epsilon=0.1, pad=0.02)
    assert g.reversed is g.reversed
    assert np.array_equal(g.reversed.indptr, want.indptr)
    assert np.array_equal(g.reversed.indices, want.indices)
    assert (g.reversed.boxset, g.reversed.epsilon, g.reversed.pad) == (want.boxset, 0.1, 0.02)


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


@pytest.mark.parametrize("cut", [8, 12, 24])
def test_load_boxset_rejects_a_short_payload(tmp_path, cut):
    bs = _bs([[0, 0], [5, 3], [7, 7]], depth=3)
    path = tmp_path / "set.boxes"
    boxdyn.save_boxset(path, bs)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut])
    with pytest.raises(ConfigError, match="code bytes"):
        boxdyn.load_boxset(path)


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
