import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setdyn import boxdyn, chain, mapzoo
from setdyn.boxdyn import BoxSet, Domain, build_graph, initial_cover, point_codes
from setdyn.errors import ConfigError


# ---------------------------------------------------------------------------
# SCC structure on hand-built digraphs
# ---------------------------------------------------------------------------


def test_two_cycles_with_transit(graph_from_edges):
    # A = {0, 1} feeds B = {2, 3}; node 4 is a transient feeder of B
    g = graph_from_edges(5, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 2)])
    dec = chain.decompose(g)
    assert dec.n_scc == 3

    atts = chain.attractors(dec)
    reps = chain.repellers(dec)
    assert len(atts) == 1 and len(reps) == 1
    assert set(atts[0].boxes.codes) == {2, 3}
    assert set(reps[0].boxes.codes) == {0, 1}
    assert atts[0].dissipative and reps[0].dissipative

    report = chain.classify(g)
    assert report.classification == "Dissipative"
    assert report.overlap_jaccard == 0.0
    # an initial SCC is already backward-closed, so its prolongation is itself
    assert set(report.full_repeller.codes) == {0, 1}
    assert chain.reach_set(g.reversed, report.full_repeller) == report.full_repeller
    # downstream influence is a forward reach question
    assert set(chain.reach_set(g, [0, 1]).codes) == {0, 1, 2, 3}


def test_single_cycle_is_conservative(graph_from_edges):
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    report = chain.classify(g)
    assert report.classification == "Conservative"
    assert report.n_scc == 1
    dec = chain.decompose(g)
    assert chain.chain_recurrent(dec).count == 3


def test_two_isolated_loops_are_mixed(graph_from_edges):
    # each loop is terminal AND initial, so attractor and repeller coincide
    g = graph_from_edges(2, [(0, 0), (1, 1)])
    report = chain.classify(g)
    assert report.classification == "Mixed"
    assert report.overlap_jaccard == 1.0


def test_selfloop_counts_as_recurrent(graph_from_edges):
    g = graph_from_edges(2, [(0, 0), (0, 1)])
    dec = chain.decompose(g)
    assert bool(dec.recurrent_scc[dec.scc_id[0]])
    assert not bool(dec.recurrent_scc[dec.scc_id[1]])


def test_condensation_flags_on_diamond(graph_from_edges):
    # source 0 splits to 1 and 2, both drain into sink 3 (all singletons)
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 3), (0, 0)])
    dec = chain.decompose(g)
    s0, s3 = dec.scc_id[0], dec.scc_id[3]
    assert bool(dec.initial[s0]) and not bool(dec.terminal[s0])
    assert bool(dec.terminal[s3]) and not bool(dec.initial[s3])


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def test_reach_set_with_min_steps(graph_from_edges):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert set(chain.reach_set(g, [0]).codes) == {0, 1, 2, 3}
    assert set(chain.reach_set(g.reversed, [3]).codes) == {0, 1, 2, 3}
    members = BoxSet(g.boxset.domain, g.boxset.depth, np.array([1, 2]))
    assert set(chain.reach_set(g.reversed, members).codes) == {0, 1, 2}


# ---------------------------------------------------------------------------
# attractor/repeller exclusivity on random graphs
# ---------------------------------------------------------------------------


def test_shared_box_forces_identical_terminal_initial_scc(graph_from_edges):
    for trial in range(60):
        rng = np.random.default_rng((2024, trial))
        n = int(rng.integers(2, 30))
        m = int(rng.integers(0, 4 * n))
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))]
        g = graph_from_edges(n, edges)
        dec = chain.decompose(g)
        for a in chain.attractors(dec):
            for r in chain.repellers(dec):
                if a.boxes.intersection(r.boxes).count:
                    assert a.scc == r.scc
                    assert a.boxes == r.boxes
                    assert bool(dec.terminal[a.scc]) and bool(dec.initial[a.scc])
        # repellers are the attractors of the reversed graph
        reps = chain.repellers(dec)
        g_rev = graph_from_edges(n, [(b, a) for a, b in edges])
        rev_atts = chain.attractors(chain.decompose(g_rev))
        assert len(reps) == len(rev_atts)
        for r, a in zip(reps, rev_atts):
            assert r.boxes == a.boxes
            assert r.dissipative == a.dissipative


def test_condensation_closures_match_box_graph_reach(graph_from_edges):
    # every box-graph closure is a union of whole SCCs; an SCC's own closure
    # is the SCC alone exactly when its flag says nothing leaves (terminal)
    # or enters (initial) it; and the full attractor and full repeller are
    # closed, so they are their own prolongations
    for trial in range(60):
        rng = np.random.default_rng((2025, trial))
        n = int(rng.integers(2, 30))
        m = int(rng.integers(0, 4 * n))
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))]
        g = graph_from_edges(n, edges)
        dec = chain.decompose(g)
        for i in range(n):
            s = int(dec.scc_id[i])
            for graph, alone in ((g, dec.terminal[s]), (g.reversed, dec.initial[s])):
                closure = chain.reach_set(graph, [i])
                sccs = np.unique(dec.scc_id[g.boxset.indices_of(closure.codes)])
                assert closure == dec.scc_boxes(sccs)
                assert (closure == dec.scc_boxes(s)) == bool(alone)
        f_att = chain.full_attractor(dec)
        f_rep = chain.full_repeller(dec)
        assert chain.reach_set(g, f_att) == f_att
        assert chain.reach_set(g.reversed, f_rep) == f_rep
        report = chain.classify(g)
        assert report.full_attractor == f_att
        assert report.full_repeller == f_rep


def _reference_decomposition(g):
    """(scc_id, recurrent, terminal, initial) from full-length int64 arrays:
    scipy's SCCs of an int64 copy of the CSR, renumbered by first node in a
    Python loop, and the flags counted over every edge with np.bincount."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = g.n_boxes
    indptr, indices = g.indptr.astype(np.int64), g.indices.astype(np.int64)
    mat = csr_matrix((np.ones(len(indices), np.int8), indices, indptr), shape=(n, n))
    _, labels = connected_components(mat, directed=True, connection="strong")
    first = {}
    for label in labels.tolist():
        first.setdefault(label, len(first))
    scc = np.array([first[label] for label in labels.tolist()], dtype=np.int64)
    m = len(first)
    s_u = np.repeat(scc, np.diff(indptr))
    s_v = scc[indices]
    cross = s_u != s_v
    recurrent = np.bincount(s_u, minlength=m) > np.bincount(s_u[cross], minlength=m)
    terminal = np.bincount(s_u[cross], minlength=m) == 0
    initial = np.bincount(s_v[cross], minlength=m) == 0
    return scc, recurrent, terminal, initial


@pytest.mark.parametrize("name, depth", [("nested_rings", 6), ("cat_map", 5), ("nf_timeq", 5)])
def test_condensation_equals_numpy_unique_reference(name, depth, monkeypatch):
    # decompose works on the int32 CSR a slab of edges at a time and marks
    # the condensation's flags slab by slab; the reference takes whole-graph
    # int64 arrays.  Slabs of 100 edges split every row range the default
    # slab keeps whole.  Each slab size decomposes a graph of its own, since
    # a graph keeps the transpose it made first.
    g = chain.cover_graph(mapzoo.make_system(name, {}), depth, samples_per_axis=3)
    assert g.indptr.dtype == g.indices.dtype == np.int32
    reference = _reference_decomposition(g)
    for slab in (boxdyn._SLAB_EDGES, 100):
        monkeypatch.setattr(boxdyn, "_SLAB_EDGES", slab)
        fresh = boxdyn.TransitionGraph(g.boxset, g.epsilon, g.indptr, g.indices, g.pad)
        dec = chain.decompose(fresh)
        got = dec.scc_id, dec.recurrent_scc, dec.terminal, dec.initial
        assert all(map(np.array_equal, got, reference))
    # cat_map is one recurrent class, so its condensation has no edge
    assert bool(reference[2].all()) == (name == "cat_map")


@st.composite
def _digraphs(draw):
    """(n, edges) of a random digraph.  Along a random order of the nodes it
    takes forward edges, a path through every node, and cycles over random
    intervals, which nest or merge; then a few edges in any direction and
    self-loops.  Each part may be absent, so the graphs range from no edge
    at all over long chains to many cycles strung on a DAG, with isolated
    nodes among them."""
    n = draw(st.integers(1, 60))
    pos = st.integers(0, n - 1)
    order = draw(st.permutations(range(n)))
    edges = [(order[min(i, j)], order[max(i, j)])
             for i, j in draw(st.lists(st.tuples(pos, pos), max_size=2 * n))]
    if draw(st.booleans()):
        edges += zip(order, order[1:])
    for i, j in draw(st.lists(st.tuples(pos, pos), max_size=6)):
        i, j = min(i, j), max(i, j)
        edges += [*zip(order[i:j], order[i + 1 : j + 1]), (order[j], order[i])]
    edges += draw(st.lists(st.tuples(pos, pos), max_size=n // 4))
    edges += [(v, v) for v in draw(st.lists(pos, max_size=5))]
    return n, edges


_RANDOM_DIGRAPHS = settings(max_examples=300, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@_RANDOM_DIGRAPHS
@given(case=_digraphs())
def test_decompose_matches_scipy_on_random_digraphs(case, graph_from_edges, monkeypatch):
    # slabs of 4 edges make every pass take several slabs
    monkeypatch.setattr(boxdyn, "_SLAB_EDGES", 4)
    g = graph_from_edges(*case)
    dec = chain.decompose(g)
    got = dec.scc_id, dec.recurrent_scc, dec.terminal, dec.initial
    assert all(map(np.array_equal, got, _reference_decomposition(g)))


def test_decompose_keeps_trim_and_searches_inside_partitions(graph_from_edges):
    # The first round's pivot 0 finds K = {0..3}; B = {4, 5} reaches K, F =
    # {6..10} is reached from it, and 11 is neither.  In the second round
    # the trim labels 11, whose edge to 6 must not count against F, and the
    # search from B's pivot 5 must not follow 4 -> 6 into F, where C = {6, 7}
    # reaches D = {8, 9, 10}, F's pivot 10's SCC, but is not reached from it.
    clique = [(a, b) for a in range(4) for b in range(4) if a != b]
    triangle = [(a, b) for a in (8, 9, 10) for b in (8, 9, 10) if a != b]
    g = graph_from_edges(12, [*clique, *triangle, (4, 5), (5, 4), (5, 0), (0, 6), (6, 7),
                              (7, 6), (7, 8), (4, 6), (4, 11), (11, 6)])
    dec = chain.decompose(g)
    assert np.array_equal(dec.scc_id, _reference_decomposition(g)[0])
    assert dec.scc_id.tolist() == [0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 4]


def test_decompose_splits_a_chain_of_small_sccs_in_few_rounds(graph_from_edges, monkeypatch):
    # 500 two-cycles, each linked to the next: a pivot at one end of the
    # chain would find one SCC a round, so 500 rounds of two searches each
    k = 500
    edges = [(2 * i + a, 2 * i + 1 - a) for i in range(k) for a in (0, 1)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(k - 1)]
    g = graph_from_edges(2 * k, edges)
    searches = []
    search = chain._search
    monkeypatch.setattr(chain, "_search", lambda *a: searches.append(1) or search(*a))
    dec = chain.decompose(g)
    assert np.array_equal(dec.scc_id, np.arange(2 * k) // 2)
    # the condensation is the path 0 -> 1 -> ... -> k-1
    assert np.flatnonzero(dec.initial).tolist() == [0]
    assert np.flatnonzero(dec.terminal).tolist() == [k - 1]
    assert len(searches) <= 60


def _scipy_bfs(indptr, indices, n, sources) -> set:
    """Nodes that scipy's breadth_first_order reaches from any source."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    mat = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    return {int(v) for s in sources
            for v in breadth_first_order(mat, s, directed=True, return_predecessors=False)}


def _scipy_transpose(indptr, indices, n):
    from scipy.sparse import csr_matrix

    t = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n)).T.tocsr()
    t.sort_indices()
    return t.indptr, t.indices


@_RANDOM_DIGRAPHS
@given(case=_digraphs(), data=st.data())
def test_searches_match_scipy_breadth_first_order(case, data, graph_from_edges, monkeypatch):
    # reach_set searches with chain._search; scipy's BFS on scipy's own
    # transpose is the oracle
    monkeypatch.setattr(boxdyn, "_SLAB_EDGES", 4)
    n, edges = case
    g = graph_from_edges(n, edges)
    t_indptr, t_indices = _scipy_transpose(g.indptr, g.indices, n)
    assert np.array_equal(g.reversed.indptr, t_indptr)
    assert np.array_equal(g.reversed.indices, t_indices)
    members = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    assert set(chain.reach_set(g, members).codes) == _scipy_bfs(g.indptr, g.indices, n, members)
    assert (set(chain.reach_set(g.reversed, members).codes)
            == _scipy_bfs(t_indptr, t_indices, n, members))


def _traced_peak(fn):
    """fn() and the peak of the memory it allocated, as tracemalloc saw it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_graph_build_and_decompose_allocate_few_bytes_per_edge(monkeypatch):
    # rings_scan's d7 stage, 475,700 edges.  build_graph peaks near 12.2
    # bytes an edge, 3.6 of them its lattice table, and decompose near 9.0,
    # 4 of them the transposed CSR; with int64 CSR arrays and whole-graph
    # temporaries they peaked at 32.7 and 44.3.  The bound of 16 bytes an
    # edge is less than one more int64 array of edge length would take.
    # tracemalloc does not see memory maps, so the table's images, the CSR
    # parts and the index array, which the build keeps off the heap, are
    # made numpy arrays here to be counted.  It counts the index array in
    # full when it is made, not as its pages are written, so the build's
    # peak here still holds every part and the whole index array.  A small
    # graph is built and decomposed first, so that modules numpy imports on
    # first use are not.
    monkeypatch.setattr(boxdyn, "_off_heap", lambda n, dtype: np.zeros(n, dtype))
    system = mapzoo.make_system("nested_rings", {"step": 0.02})
    chain.decompose(build_graph(system, initial_cover(system.domain, 3), 0.1, samples_per_axis=3))
    cover = initial_cover(system.domain, 7)
    graph, build_peak = _traced_peak(lambda: build_graph(system, cover, 0.015625,
                                                         samples_per_axis=3))
    _, decompose_peak = _traced_peak(lambda: chain.decompose(graph))
    assert graph.n_edges == 475_700
    assert build_peak < 16 * graph.n_edges
    assert decompose_peak < 16 * graph.n_edges
    assert graph.indptr.dtype == graph.indices.dtype == np.int32


# ---------------------------------------------------------------------------
# scans on real systems
# ---------------------------------------------------------------------------


def test_core_scan_conservative_circle_is_persistent():
    system = mapzoo.make_system("circle_semistable", {})
    h7 = float(system.domain.box_width(7)[0])
    h8 = float(system.domain.box_width(8)[0])
    cert = chain.core_scan(system, (0.0,), [(7, h7), (8, h8)], samples_per_axis=4)
    assert cert.core_persistent
    for st in cert.stages:
        assert st.recurrent and st.terminal and st.initial
        assert st.reason == "terminal and initial"
    assert cert.n_attractor_witnesses == 0 and cert.n_repeller_witnesses == 0


def _calls_of(target, fn):
    """fn() and how often it called the function ``target``, counted by code
    object, so that a call through any module's name for it counts."""
    code, calls = target.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(saved)
    return out, len(calls)


def test_each_graph_is_transposed_once():
    # the SCC kernel's backward searches and core_scan's backward closure
    # share the graph's one transpose: one a stage, and one for classify,
    # which a later backward closure on the same graph reuses
    system = mapzoo.make_system("cubic_interval", {"a": 0.25})
    schedule = [(d, float(system.domain.max_box_width(d))) for d in (5, 6, 7)]
    cert, n = _calls_of(boxdyn._transpose_csr, lambda: chain.core_scan(system, (0.0,), schedule))
    assert len(cert.stages) == 3 and n == 3
    g = chain.cover_graph(system, 6)
    _, n = _calls_of(boxdyn._transpose_csr,
                     lambda: (chain.classify(g), chain.reach_set(g.reversed, [0])))
    assert n == 1


def test_core_scan_rejects_non_recurrent_target():
    system = mapzoo.make_system("cubic_interval", {})
    h = float(system.domain.box_width(6)[0])
    cert = chain.core_scan(system, (0.55,), [(6, h)], samples_per_axis=4)
    assert not cert.core_persistent
    assert not cert.stages[0].recurrent
    assert "chain-recurrent" in cert.stages[0].reason


def test_core_scan_rejects_a_depth_decreasing_schedule_before_any_graph(monkeypatch):
    def unbuilt(*args, **kwargs):
        pytest.fail("a graph was built before the schedule was checked")

    monkeypatch.setattr(chain, "cover_graph", unbuilt)
    system = mapzoo.make_system("cat_map", {})
    with pytest.raises(ConfigError, match="decrease"):
        chain.core_scan(system, (0.3, 0.3), [(5, 0.05), (4, 0.1)], samples_per_axis=3)


@pytest.mark.parametrize("epsilon,samples,workers", [
    (-0.1, 3, 1), (math.nan, 3, 1), (math.inf, 3, 1), (0.1, 1, 1), (0.1, 3, 0)])
def test_cover_graph_checks_its_settings_before_the_cover(monkeypatch, epsilon, samples, workers):
    def uncovered(*args):
        pytest.fail("the cover was allocated before the settings were checked")

    monkeypatch.setattr(chain, "initial_cover", uncovered)
    system = mapzoo.make_system("cat_map", {})
    with pytest.raises(ConfigError):
        chain.cover_graph(system, 4, epsilon, samples, workers)


@pytest.mark.parametrize("target", [(5.0,), (-1.0 - 1e-12,), (math.nan,)])
def test_core_scan_rejects_target_outside_the_domain(target):
    # point_codes would clamp such a target onto a boundary box; the graph
    # is never built
    system = mapzoo.make_system("cubic_interval", {})

    def forbidden(pts):
        raise AssertionError("forward called for a target outside the domain")

    with pytest.raises(ConfigError, match="outside the domain"):
        chain.core_scan(dataclasses.replace(system, forward=forbidden), target, [(4, 0.1)])


def _scipy_closures(g, t_idx):
    """Forward and backward closures of box ``t_idx`` by scipy's BFS."""
    n, bs = g.n_boxes, g.boxset
    t_indptr, t_indices = _scipy_transpose(g.indptr, g.indices, n)
    return tuple(BoxSet(bs.domain, bs.depth, bs.codes[sorted(_scipy_bfs(ptr, idx, n, [t_idx]))])
                 for ptr, idx in ((g.indptr, g.indices), (t_indptr, t_indices)))


def _reference_attractors(g, forward=True):
    """(scc, boxes, dissipative) of each recurrent terminal SCC, or with
    ``forward=False`` each recurrent initial SCC, from scipy's SCCs and the
    reference flags."""
    scc, recurrent, terminal, initial = _reference_decomposition(g)
    ends, starts = (terminal, initial) if forward else (initial, terminal)
    bs = g.boxset
    return [(int(s), BoxSet(bs.domain, bs.depth, bs.codes[scc == s]), not starts[s])
            for s in np.flatnonzero(ends & recurrent)]


@pytest.mark.parametrize("name, target", [
    ("cubic_interval", (0.0,)),
    ("cubic_interval", (0.55,)),
    ("nested_rings", (0.0, 0.0)),
    ("nested_rings", (0.45, 0.1)),
])
def test_core_scan_sets_match_box_graph_reach(name, target):
    # scipy's BFS on the stage's own graph is the oracle for the absorbing
    # sets, and scipy's SCCs for the attractors/repellers the gap is
    # measured between
    system = mapzoo.make_system(name, {})
    depth = 5
    eps = system.domain.max_box_width(depth)
    st = chain.core_scan(system, target, [(depth, eps)], samples_per_axis=3).stages[0]
    g = chain.cover_graph(system, depth, eps, 3)
    t_idx = int(g.boxset.indices_of(point_codes(system.domain, depth, np.array([target])))[0])
    fwd, bwd = _scipy_closures(g, t_idx)
    assert st.fwd_absorbing == fwd
    assert st.bwd_absorbing == bwd
    if not (st.terminal and st.initial):
        scc, recurrent, terminal, initial = _reference_decomposition(g)
        f_att, f_rep = (BoxSet(system.domain, depth, g.boxset.codes[(ends & recurrent)[scc]])
                        for ends in (terminal, initial))
        gap = chain._min_gap(system.domain, fwd.intersection(f_att), bwd.intersection(f_rep))
        assert st.gap == gap


@pytest.mark.parametrize("schedule", [
    [(5, 0.06), (5, 0.03), (5, 0.03)],  # the third stage finds the second's witness again
    [(5, 0.03), (5, 0.04)],  # the forward set is nested only with the ring of slack
    [(5, 0.03), (5, 0.12)],  # neither set is nested
])
def test_core_scan_with_a_repeated_depth_matches_box_graph_reach(schedule):
    # stages at one depth compare their sets on one grid, where refine_to is
    # the identity: nesting is containment in the previous set plus one
    # ring, and a witness is new when it misses every known one
    system = mapzoo.make_system("nested_rings", {})
    target = (0.0, 0.0)
    cert = chain.core_scan(system, target, schedule, samples_per_axis=3)
    att, rep = [], []
    prev = None
    for st, (depth, eps) in zip(cert.stages, schedule):
        g = chain.cover_graph(system, depth, eps, 3)
        t_idx = int(g.boxset.indices_of(point_codes(system.domain, depth, np.array([target])))[0])
        fwd, bwd = _scipy_closures(g, t_idx)
        assert st.fwd_absorbing == fwd
        assert st.bwd_absorbing == bwd
        if prev is None:
            assert st.nested_fwd and st.nested_bwd
            assert st.new_attractors == [] and st.new_repellers == []
        else:
            assert st.nested_fwd == fwd.issubset(prev[0].dilate())
            assert st.nested_bwd == bwd.issubset(prev[1].dilate())
            s = _reference_decomposition(g)[0][t_idx]
            for found, forward, outer, known in ((st.new_attractors, True, prev[0], att),
                                                 (st.new_repellers, False, prev[1], rep)):
                new = []
                for c_scc, boxes, dissipative in _reference_attractors(g, forward):
                    if (dissipative and c_scc != s and boxes.issubset(outer.dilate())
                            and all(boxes.intersection(w).count == 0 for w in known)):
                        known.append(boxes)
                        new.append(boxes)
                assert found == new
        prev = fwd, bwd
    assert cert.attractor_witnesses == att
    assert cert.repeller_witnesses == rep


def test_noisy_attractor_deterministic_and_batch_invariant():
    system = mapzoo.make_system("cat_map", {})
    kw = dict(noise=5e-3, n_steps=300, n_trials=4, depth=5, seed=42)
    a = chain.noisy_attractor(system, (0.2, 0.7), **kw)
    b = chain.noisy_attractor(system, (0.2, 0.7), **kw)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.counts, b.counts)
    assert a.n_exits == 0
    # changing the seed changes the histogram
    c = chain.noisy_attractor(system, (0.2, 0.7), noise=5e-3, n_steps=300,
                              n_trials=4, depth=5, seed=43)
    assert not (np.array_equal(a.codes, c.codes) and np.array_equal(a.counts, c.counts))


def _reference_noisy_attractor(system, x0, noise, n_steps, n_trials, depth, seed=0, burn_in=0.1):
    """The earlier per-trial loop, kept verbatim: one ``forward`` call per
    trial and step, one ``point_codes`` call per kept state."""
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    skip = int(burn_in * n_steps)
    all_codes = []
    n_exits = 0
    for trial in range(n_trials):
        rng = np.random.default_rng((seed, trial))
        kicks = rng.uniform(-noise, noise, size=(n_steps, system.dim))
        x = x0.copy()
        for k in range(n_steps):
            x = system.forward(x) + kicks[k]
            x = system.domain.wrap(x)
            if not bool(system.domain.contains(x)[0]):
                n_exits += 1
                break
            if k >= skip:
                all_codes.append(point_codes(system.domain, depth, x))
    if all_codes:
        codes, counts = np.unique(np.concatenate(all_codes), return_counts=True)
    else:
        codes = np.empty(0, np.int64)
        counts = np.empty(0, np.int64)
    return codes, counts, n_exits


# (system, params, x0, noise, n_steps, n_trials, depth, seed, burn_in)
NOISY_CASES = {
    "cat_map": ("cat_map", {}, (0.2, 0.7), 5e-3, 300, 4, 5, 42, 0.1),
    "circle_semistable": ("circle_semistable", {}, (1.0,), 0.05, 300, 4, 6, 1, 0.1),
    # slow approach to the attracting end x = 1: trials exit at steps 80-173
    "cubic_interval_exits": ("cubic_interval", {"a": 0.02}, (0.99,), 2e-4, 300, 6, 8, 0, 0.1),
    # every trial exits within 12 steps, before the burn-in ends
    "cubic_interval_all_exit": ("cubic_interval", {}, (0.999,), 2e-3, 400, 6, 6, 0, 0.1),
    "nested_rings": ("nested_rings", {"step": 0.05}, (0.3, 0.1), 0.01, 100, 3, 5, 0, 0.1),
    # coarse step; trials 1-3 exit at steps 85, 13 and 22
    "nf_timeq_exits": ("nf_timeq", {"step": 0.05}, (0.14, 0.0), 4e-3, 200, 6, 5, 0, 0.1),
    # trials 0, 1 and 5 exit at steps 57, 60 and 49
    "periodic_spot_exits": ("periodic_spot", {}, (0.6, 0.0), 0.01, 200, 6, 5, 0, 0.1),
    "no_trials": ("cat_map", {}, (0.2, 0.7), 5e-3, 50, 0, 5, 0, 0.1),
    "no_steps": ("cat_map", {}, (0.2, 0.7), 5e-3, 0, 3, 5, 0, 0.1),
    # 0.29 * 100 = 28.999999999999996, so the burn-in is 28 steps, not 29
    "burn_in_rounds_down": ("cat_map", {}, (0.2, 0.7), 5e-3, 100, 3, 6, 3, 0.29),
}


@pytest.mark.parametrize("case", sorted(NOISY_CASES))
def test_noisy_attractor_matches_per_trial_loop(case, monkeypatch):
    name, params, x0, noise, n_steps, n_trials, depth, seed, burn_in = NOISY_CASES[case]
    system = mapzoo.make_system(name, params)
    monkeypatch.setattr(chain, "BURN_IN", burn_in)
    rep = chain.noisy_attractor(system, x0, noise, n_steps, n_trials, depth, seed=seed)
    codes, counts, n_exits = _reference_noisy_attractor(
        system, x0, noise, n_steps, n_trials, depth, seed=seed, burn_in=burn_in)
    assert rep.codes.dtype == codes.dtype and rep.counts.dtype == counts.dtype
    assert np.array_equal(rep.codes, codes)
    assert np.array_equal(rep.counts, counts)
    assert rep.n_exits == n_exits


def _counting(system, sizes):
    """The system with ``forward`` logging the batch size of every call."""

    def forward(pts):
        sizes.append(len(pts))
        return system.forward(pts)

    return dataclasses.replace(system, forward=forward)


def test_noisy_attractor_maps_all_trials_in_one_call_per_step():
    system = mapzoo.make_system("cubic_interval", {"a": 0.02})
    args = ((0.99,), 2e-4, 300, 6, 8)
    batched, per_trial = [], []
    rep = chain.noisy_attractor(_counting(system, batched), *args)
    _reference_noisy_attractor(_counting(system, per_trial), *args)
    assert rep.n_exits == 6
    assert 0 < len(batched) <= 300
    # the same points are mapped: an exited trial is never mapped again
    assert sum(batched) == sum(per_trial)


def _trial_state(system, x0, noise, trial, n_steps, seed=0):
    """State of one noisy trial after ``n_steps`` steps, stepped by hand."""
    kicks = np.random.default_rng((seed, trial)).uniform(-noise, noise, size=(n_steps, system.dim))
    x = np.asarray(x0, dtype=float).reshape(1, -1)
    for kick in kicks:
        x = system.domain.wrap(system.forward(x) + kick)
    return x[0]


def _poisoned(system, targets, sizes):
    """The system with ``forward`` turning NaN exactly at the given points,
    and logging the batch size of every call."""
    targets = np.asarray(targets, dtype=float)

    def forward(pts):
        sizes.append(len(pts))
        out = system.forward(pts)
        out[(pts[:, None] == targets[None]).all(axis=-1).any(axis=-1)] = np.nan
        return out

    return dataclasses.replace(system, forward=forward)


def test_noisy_attractor_counts_a_nan_trial_on_a_torus_as_an_exit():
    # the cat map's torus has no edge to leave by; trial 2 leaves by turning
    # NaN at step 100, so 3 * 270 + 70 states are kept after the burn-in
    cat = mapzoo.make_system("cat_map", {})
    args = ((0.2, 0.7), 5e-3, 300, 4, 6)
    system = _poisoned(cat, [_trial_state(cat, (0.2, 0.7), 5e-3, 2, 100)], [])
    rep = chain.noisy_attractor(system, *args)
    codes, counts, n_exits = _reference_noisy_attractor(system, *args)
    assert rep.n_exits == n_exits == 1
    assert int(rep.counts.sum()) == 3 * 270 + 70
    assert np.array_equal(rep.codes, codes) and np.array_equal(rep.counts, counts)


def test_noisy_attractor_switches_to_the_live_trials_partway():
    # no trial exits for 60 steps; then trial 1 turns NaN at step 60 and
    # trial 3 at step 150, after the loop has switched to the live index
    cat = mapzoo.make_system("cat_map", {})
    args = ((0.2, 0.7), 5e-3, 300, 4, 6)
    targets = [_trial_state(cat, (0.2, 0.7), 5e-3, 1, 60),
               _trial_state(cat, (0.2, 0.7), 5e-3, 3, 150)]
    sizes = []
    rep = chain.noisy_attractor(_poisoned(cat, targets, sizes), *args)
    assert sizes == [4] * 61 + [3] * 90 + [2] * 149
    codes, counts, n_exits = _reference_noisy_attractor(_poisoned(cat, targets, []), *args)
    assert rep.n_exits == n_exits == 2
    assert int(rep.counts.sum()) == 2 * 270 + 30 + 120
    assert np.array_equal(rep.codes, codes) and np.array_equal(rep.counts, counts)


def _per_axis_wrap(domain, pts):
    """``Domain.wrap``'s per-axis loop, kept as the oracle of its
    whole-array path on a torus."""
    pts = np.array(pts, dtype=float, copy=True)
    lo = np.asarray(domain.lower)
    w = domain.widths
    for ax, per in enumerate(domain.periodic):
        if per:
            pts[..., ax] = lo[ax] + np.mod(pts[..., ax] - lo[ax], w[ax])
    return pts


_WRAP_EDGES = [-1e-20, 1e-20, -0.0, 0.0, -5e-324, 5e-324, 1.0, -1.0, 1.0 - 2**-53,
               -(2**-53), 1e300, -1e300, math.inf, -math.inf, math.nan]


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 8, 10_000]), dim=st.integers(1, 3),
       lo=st.sampled_from([0.0, -0.0, -1.0, 0.25, -math.pi]),
       width=st.sampled_from([1.0, 2 * math.pi, 0.1, 3.0]), mixed_zero=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       edges=st.lists(st.sampled_from(_WRAP_EDGES) | st.floats(width=64), max_size=24))
def test_torus_wrap_has_the_per_axis_bits(n, dim, lo, width, mixed_zero, seed, edges):
    lower = [lo] * dim
    if mixed_zero and lo == 0.0:
        lower[0] = -lo  # 0.0 and -0.0 are one bound
    domain = Domain(tuple(lower), (lo + width,) * dim, (True,) * dim)
    assert domain._torus is not None
    rng = np.random.default_rng(seed)
    pts = lo + width * rng.uniform(-3.0, 4.0, size=(n, dim))
    pts.reshape(-1)[rng.integers(0, pts.size, size=len(edges))] = edges
    with np.errstate(invalid="ignore"):  # inf mod w is NaN
        got, want = domain.wrap(pts), _per_axis_wrap(domain, pts)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_wrap_keeps_the_per_axis_loop_off_a_uniform_torus():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3.0, 3.0, size=(100, 2))
    for domain in (Domain((0.0, 0.0), (1.0, 2.0), (True, True)),
                   Domain((0.0, 0.5), (1.0, 1.5), (True, True)),
                   Domain((0.0, 0.0), (1.0, 1.0), (True, False))):
        assert domain._torus is None
        assert domain.wrap(pts).tobytes() == _per_axis_wrap(domain, pts).tobytes()


@pytest.mark.parametrize("kw", [
    dict(n_steps=-1), dict(n_trials=-2), dict(n_steps=2.5), dict(depth=-1),
    dict(noise=float("nan")), dict(noise=float("inf")), dict(noise=-0.1),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_noisy_attractor_rejects_bad_inputs_before_mapping(kw):
    system = mapzoo.make_system("cat_map", {})

    def forbidden(pts):
        raise AssertionError("forward called before the inputs were checked")

    args = dict(noise=1e-3, n_steps=10, n_trials=2, depth=5) | kw
    with pytest.raises(ConfigError):
        chain.noisy_attractor(dataclasses.replace(system, forward=forbidden), (0.2, 0.7), **args)


def _rotation_system():
    theta = 2 * np.pi * (np.sqrt(5) - 1) / 2
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    dom = Domain(lower=(-1.0, -1.0), upper=(1.0, 1.0), periodic=(False, False))
    return mapzoo.MapSystem(
        name="rotation",
        params={},
        domain=dom,
        forward=lambda pts: pts @ R.T,
        inverse=lambda pts: pts @ R,
        lipschitz_hint=1.0,
    )


def test_trapped_absorbing_domain_on_rotation():
    system = _rotation_system()
    reports = chain.trapped_absorbing_domain(
        system, (0.0, 0.0), seed_radius=0.3, bound_radius=0.5,
        n_orbits=16, n_steps=200, depth=5,
    )
    assert [rep.direction for rep in reports] == ["forward", "backward"]
    for rep in reports:
        assert rep.bounded
        assert rep.max_radius <= 0.3 + 1e-12
        assert rep.contains_center
        assert rep.boxset.count > 0
    with pytest.raises(ConfigError):
        chain.trapped_absorbing_domain(
            dataclasses.replace(system, inverse=None), (0.0, 0.0), seed_radius=0.3,
            bound_radius=0.5, n_orbits=4, n_steps=10, depth=5,
        )


def test_trap_with_non_finite_center_is_not_bounded():
    # the radius of a NaN seed ball is NaN; it must not read as trapped
    for rep in chain.trapped_absorbing_domain(
        _rotation_system(), (math.nan, 0.0), seed_radius=0.3, bound_radius=0.5,
        n_orbits=4, n_steps=3, depth=5,
    ):
        assert math.isnan(rep.max_radius)
        assert not rep.bounded


def test_trap_orbit_leaving_the_domain_is_not_bounded():
    # the translation by 0.4 takes every orbit out of [-1, 1]^2 on its third
    # step, well within the bound radius of 10.  Only the boxes visited
    # inside the domain are recorded: none in the outer columns |x| > 0.875,
    # where point_codes would have clamped the escaped points
    dom = Domain(lower=(-1.0, -1.0), upper=(1.0, 1.0), periodic=(False, False))
    shift = np.array([0.4, 0.0])
    system = mapzoo.MapSystem(
        name="translation", params={}, domain=dom,
        forward=lambda pts: pts + shift, inverse=lambda pts: pts - shift,
    )
    reports = chain.trapped_absorbing_domain(
        system, (0.0, 0.0), seed_radius=0.05, bound_radius=10.0,
        n_orbits=8, n_steps=12, depth=4,
    )
    start = _trap_seeds((0.0, 0.0), 0.05, 8, 2, seed=0)
    for rep, sign in zip(reports, (1.0, -1.0)):
        assert not rep.bounded
        assert 4.75 < rep.max_radius < 4.85
        orbits = np.concatenate([start + k * sign * shift for k in range(3)])
        assert np.array_equal(rep.boxset.codes, np.unique(point_codes(dom, 4, orbits)))
        assert np.all(np.abs(rep.boxset.centers()[:, 0]) < 0.875)


def _trap_seeds(center, seed_radius, n_orbits, dim, seed):
    """The trap's seed ball: the center, then ``n_orbits`` uniform points."""
    center = np.asarray(center, dtype=float).reshape(1, -1)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=(n_orbits, dim))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    rad = seed_radius * rng.random(n_orbits) ** (1.0 / dim)
    return np.concatenate([center, center + vec * rad[:, None]], axis=0)


def _reference_trap(system, center, seed_radius, n_orbits, n_steps, depth, seed):
    """The trap's orbits run one direction at a time, by plain loops over
    ``system.forward`` and ``system.inverse``: (max radius, visited codes)
    for the forward and then the backward direction."""
    center = np.asarray(center, dtype=float).reshape(1, -1)
    start = _trap_seeds(center, seed_radius, n_orbits, system.dim, seed)
    out = []
    for step in (system.forward, system.inverse):
        pts = start
        max_r = float(np.max(np.linalg.norm(pts - center, axis=1)))
        visited = [point_codes(system.domain, depth, pts)]
        for _ in range(n_steps):
            pts = step(pts)
            max_r = max(max_r, float(np.max(np.linalg.norm(pts - center, axis=1))))
            visited.append(point_codes(system.domain, depth, pts))
        out.append((max_r, np.unique(np.concatenate(visited))))
    return out


@pytest.mark.parametrize("name", ["nf_timeq", "rotation"])
def test_joint_trap_matches_one_direction_at_a_time(name):
    # nf_timeq advances both orbit sets in one forward_inverse call; the
    # rotation has none and falls back to forward and inverse
    if name == "rotation":
        system, center, radii = _rotation_system(), (0.1, -0.2), (0.3, 0.5)
    else:
        system, center, radii = mapzoo.make_system(name, {}), (0.02, -0.01), (0.1, 0.15)
    assert (system.forward_inverse is not None) == (name == "nf_timeq")
    kw = dict(n_orbits=48, n_steps=5, depth=9, seed=3)
    reports = chain.trapped_absorbing_domain(
        system, center, seed_radius=radii[0], bound_radius=radii[1], **kw)
    for rep, (max_r, codes) in zip(reports, _reference_trap(system, center, radii[0], **kw)):
        assert rep.max_radius == max_r
        assert np.array_equal(rep.boxset.codes, codes)


def test_classify_on_cat_graph_matches_conservative():
    system = mapzoo.make_system("cat_map", {})
    g = build_graph(system, initial_cover(system.domain, 5), epsilon=1 / 32)
    report = chain.classify(g)
    assert report.classification == "Conservative"
    assert report.n_scc == 1
