import dataclasses

import numpy as np
import pytest

from setdyn import chain, mapzoo
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
    assert set(chain.reach_set(g, [3], forward=False).codes) == {0, 1, 2, 3}
    members = BoxSet(g.boxset.domain, g.boxset.depth, np.array([1, 2]))
    assert set(chain.reach_set(g, members, forward=False).codes) == {0, 1, 2}


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
        g_rev = graph_from_edges(n, [(b, a) for a, b in edges])
        rev_atts = chain.attractors(chain.decompose(g_rev), with_basins=True)
        assert len(reps) == len(rev_atts)
        for r, a in zip(reps, rev_atts):
            assert r.boxes == a.boxes
            assert r.witness == a.witness
            assert r.dissipative == a.dissipative


def test_condensation_closures_match_box_graph_reach(graph_from_edges):
    # reach_set walks the box graph and is the oracle for the condensation
    for trial in range(60):
        rng = np.random.default_rng((2025, trial))
        n = int(rng.integers(2, 30))
        m = int(rng.integers(0, 4 * n))
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))]
        g = graph_from_edges(n, edges)
        dec = chain.decompose(g)
        rev = chain._reversed(dec)
        for i in range(n):
            s = int(dec.scc_id[i])
            assert dec.scc_boxes(chain._reached_sccs(dec, s)) == chain.reach_set(g, [i])
            assert (dec.scc_boxes(chain._reached_sccs(rev, s))
                    == chain.reach_set(g, [i], forward=False))
        f_att = chain.full_attractor(dec)
        f_rep = chain.full_repeller(dec)
        assert chain.reach_set(g, f_att, forward=True) == f_att
        assert chain.reach_set(g, f_rep, forward=False) == f_rep
        report = chain.classify(g, dec)
        assert report.ruelle_attractor == f_att
        assert report.ruelle_repeller == f_rep


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


@pytest.mark.parametrize("name, target", [
    ("cubic_interval", (0.0,)),
    ("cubic_interval", (0.55,)),
    ("nested_rings", (0.0, 0.0)),
    ("nested_rings", (0.45, 0.1)),
])
def test_core_scan_sets_match_box_graph_reach(name, target):
    # reach_set on the stage's own graph is the oracle for the absorbing sets
    # and for the attractors/repellers the gap is measured between
    system = mapzoo.make_system(name, {})
    depth = 5
    eps = system.domain.max_box_width(depth)
    st = chain.core_scan(system, target, [(depth, eps)], samples_per_axis=3).stages[0]
    g = chain.cover_graph(system, depth, eps, 3)
    dec = chain.decompose(g)
    t_idx = int(g.boxset.indices_of(point_codes(system.domain, depth, np.array([target])))[0])
    fwd = chain.reach_set(g, [t_idx])
    bwd = chain.reach_set(g, [t_idx], forward=False)
    assert st.fwd_absorbing == fwd
    assert st.bwd_absorbing == bwd
    if not (st.terminal and st.initial):
        gap = chain._min_gap(system.domain, fwd.intersection(chain.full_attractor(dec)),
                             bwd.intersection(chain.full_repeller(dec)))
        assert st.gap == gap


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
            if not bool(system.domain.contains(x, atol=0.0)[0]):
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
def test_noisy_attractor_matches_per_trial_loop(case):
    name, params, x0, noise, n_steps, n_trials, depth, seed, burn_in = NOISY_CASES[case]
    system = mapzoo.make_system(name, params)
    rep = chain.noisy_attractor(system, x0, noise, n_steps, n_trials, depth,
                                seed=seed, burn_in=burn_in)
    codes, counts, n_exits = _reference_noisy_attractor(
        system, x0, noise, n_steps, n_trials, depth, seed=seed, burn_in=burn_in)
    assert rep.codes.dtype == codes.dtype and rep.counts.dtype == counts.dtype
    assert np.array_equal(rep.codes, codes)
    assert np.array_equal(rep.counts, counts)
    assert rep.n_exits == n_exits
    assert rep.burn_in == int(burn_in * n_steps)


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


@pytest.mark.parametrize("kw", [
    dict(n_steps=-1), dict(n_trials=-2), dict(n_steps=2.5), dict(depth=-1),
    dict(noise=float("nan")), dict(noise=float("inf")), dict(noise=-0.1),
    dict(burn_in=1.0),
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
