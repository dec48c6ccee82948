import numpy as np
import pytest

from setdyn import chain, mapzoo
from setdyn.boxdyn import Domain, build_graph, initial_cover
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
    assert set(report.ruelle_repeller.codes) == {0, 1}
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


def test_attractor_basins_witness_uniqueness(graph_from_edges):
    # 4 -> both cycles: no unique terminal, so 4 is in neither witness
    g = graph_from_edges(
        6, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 0), (4, 2), (5, 0)]
    )
    dec = chain.decompose(g)
    atts = chain.attractors(dec, with_basins=True)
    by_boxes = {frozenset(int(c) for c in a.boxes.codes): a for a in atts}
    cyc01 = by_boxes[frozenset({0, 1})]
    assert 5 in set(cyc01.witness.codes)
    assert 4 not in set(cyc01.witness.codes)


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
    assert set(chain.attainable_from(g, [0], min_steps=2).codes) == {2, 3}
    assert set(chain.reach_set(g, [3], forward=False).codes) == {0, 1, 2, 3}
    with pytest.raises(ConfigError):
        chain.attainable_from(g, [0], min_steps=-1)


def test_absorbing_check(graph_from_edges):
    g = graph_from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    ok = chain.absorbing_check(g, [2, 3])
    assert ok.passed and ok.n_violations == 0
    leaky = chain.absorbing_check(g, [0, 1])
    assert not leaky.passed
    assert leaky.examples[0] == (1, 2)


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
        # repellers, basins included, are the attractors of the reversed graph
        reps = chain.repellers(dec, with_basins=True)
        rev_atts = chain.attractors(chain.decompose(g.reverse()), with_basins=True)
        assert len(reps) == len(rev_atts)
        for r, a in zip(reps, rev_atts):
            assert r.boxes == a.boxes
            assert r.witness == a.witness
            assert r.dissipative == a.dissipative


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


def test_core_scan_rejects_non_recurrent_target():
    system = mapzoo.make_system("cubic_interval", {})
    h = float(system.domain.box_width(6)[0])
    cert = chain.core_scan(system, (0.55,), [(6, h)], samples_per_axis=4)
    assert not cert.core_persistent
    assert not cert.stages[0].recurrent
    assert "chain-recurrent" in cert.stages[0].reason


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


def _rotation_system():
    theta = 2 * np.pi * (np.sqrt(5) - 1) / 2
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    dom = Domain(lower=(-1.0, -1.0), upper=(1.0, 1.0), periodic=(False, False))
    return mapzoo.MapSystem(
        name="rotation",
        dim=2,
        params={},
        domain=dom,
        forward=lambda pts: pts @ R.T,
        inverse=lambda pts: pts @ R,
        lipschitz_hint=1.0,
    )


def test_trapped_absorbing_domain_on_rotation():
    system = _rotation_system()
    for direction in ("forward", "backward"):
        rep = chain.trapped_absorbing_domain(
            system, (0.0, 0.0), seed_radius=0.3, bound_radius=0.5,
            n_orbits=16, n_steps=200, depth=5, direction=direction,
        )
        assert rep.bounded
        assert rep.max_radius <= 0.3 + 1e-12
        assert rep.contains_center
        assert rep.boxset.count > 0
    with pytest.raises(ConfigError):
        chain.trapped_absorbing_domain(
            system, (0.0, 0.0), seed_radius=0.3, bound_radius=0.5,
            n_orbits=4, n_steps=10, depth=5, direction="sideways",
        )


def test_classify_on_cat_graph_matches_conservative():
    system = mapzoo.make_system("cat_map", {})
    g = build_graph(system, initial_cover(system.domain, 5), epsilon=1 / 32)
    report = chain.classify(g)
    assert report.classification == "Conservative"
    assert report.n_scc == 1
