"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single summary line on success; a pytest failure line identifies
the guarantee that broke.  Configurations here are the reference ones, so
several tests build real graphs and integrate real orbits — the whole module
runs in a few minutes.
"""

import json
import math
import time

import numpy as np

from setdyn import chain, cli, flows, mapzoo, revcore
from setdyn.boxdyn import build_graph, initial_cover


def _ok(line: str) -> None:
    print(f"\nPASS {line}")


# ---------------------------------------------------------------------------
# 1. hyperbolic torus automorphism is chain-transitive
# ---------------------------------------------------------------------------


def test_criterion_01_cat_map_single_recurrent_class():
    t0 = time.perf_counter()
    system = mapzoo.make_system("cat_map", {})
    depth = 8
    h = float(system.domain.box_width(depth)[0])
    graph = build_graph(system, initial_cover(system.domain, depth), epsilon=h)
    report = chain.classify(graph)
    dec = chain.decompose(graph)
    elapsed = time.perf_counter() - t0

    assert report.n_scc == 1
    assert chain.chain_recurrent(dec).count == graph.n_boxes
    assert report.classification == "Conservative"
    assert elapsed < 30.0
    _ok(f"criterion 1: cat map depth 8 -> 1 SCC, 100% recurrent, "
        f"Conservative in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. semistable circle map: everything is chain-recurrent, one true fixed point
# ---------------------------------------------------------------------------


def test_criterion_02_circle_chain_recurrence_vs_fixed_points():
    system = mapzoo.make_system("circle_semistable", {})
    for depth in (7, 8, 9):
        h = float(system.domain.box_width(depth)[0])
        graph = build_graph(system, initial_cover(system.domain, depth), epsilon=h)
        dec = chain.decompose(graph)
        assert chain.chain_recurrent(dec).count == graph.n_boxes, depth

    points = revcore.find_fixed_points(system)
    assert len(points) == 1
    assert abs(points[0].location[0] - 0.0) <= 1e-8
    _ok("criterion 2: circle map chain-recurrent everywhere at depths 7-9, "
        "exactly one fixed point at phi=0")


# ---------------------------------------------------------------------------
# 3. cubic interval map separates attractor and repeller
# ---------------------------------------------------------------------------


def test_criterion_03_cubic_dissipative_with_located_sets():
    system = mapzoo.make_system("cubic_interval", {"a": 0.25})
    depth = 8
    h = float(system.domain.box_width(depth)[0])
    graph = build_graph(system, initial_cover(system.domain, depth), epsilon=h / 4)
    report = chain.classify(graph)

    assert report.classification == "Dissipative"

    att = report.full_attractor.centers()[:, 0]
    att_dist = np.minimum(np.abs(att - 1.0), np.abs(att + 1.0))
    assert att.size and np.max(att_dist) <= 2 * h

    rep = report.full_repeller.centers()[:, 0]
    assert rep.size and np.max(np.abs(rep)) <= 2 * h

    # the prolongations: the full attractor's forward closure and the full
    # repeller's backward closure on the box graph
    prolongations = (chain.reach_set(graph, report.full_attractor),
                     chain.reach_set(graph.reversed, report.full_repeller))
    assert prolongations[0].intersection(prolongations[1]).count == 0
    _ok(f"criterion 3: cubic a=1/4 Dissipative; attractor within {2*h:.4f} "
        "of {-1,+1}, repeller of {0}, prolongations disjoint")


# ---------------------------------------------------------------------------
# 4. ring cascade: persistent core plus fresh witnesses at each refinement
# ---------------------------------------------------------------------------


def test_criterion_04_nested_rings_core_scan():
    system = mapzoo.make_system("nested_rings", {"step": 0.02})
    schedule = [(7, 2.0 ** -6), (8, 2.0 ** -7), (9, 2.0 ** -8)]
    cert = chain.core_scan(system, (0.0, 0.0), schedule, samples_per_axis=3)

    assert cert.core_persistent
    for st in cert.stages[1:]:
        assert st.nested_fwd and st.nested_bwd
    assert cert.n_attractor_witnesses >= 2
    assert cert.n_repeller_witnesses >= 2
    _ok(f"criterion 4: nested rings 3-stage scan core-persistent at origin, "
        f"{cert.n_attractor_witnesses} attractor and "
        f"{cert.n_repeller_witnesses} repeller witnesses between stages")


# ---------------------------------------------------------------------------
# 5. resonant normal-form time-q map traps a neighbourhood of the origin
# ---------------------------------------------------------------------------


def test_criterion_05_normal_form_absorbing_domains():
    t0 = time.perf_counter()
    rho0 = 0.05
    base = flows.NormalFormParams(q=5, p=1, mu=0.0, delta=0.0, B=1.0, C=-1.0,
                                  omega=(1.0,))
    res = flows.rescale(base, rho0, 0.0)
    system = mapzoo.make_system(
        "nf_timeq",
        {"q": 5, "p": 1, "mu": res.mu, "delta": res.delta, "B": 1.0, "C": -1.0,
         "omega1": 1.0, "radius": 3 * rho0},
    )
    reports = dict(zip(("forward", "backward"), chain.trapped_absorbing_domain(
        system, (0.0, 0.0),
        seed_radius=2 * rho0, bound_radius=3 * rho0,
        n_orbits=48, n_steps=1000, depth=9,
    )))
    elapsed = time.perf_counter() - t0

    for direction, rep in reports.items():
        assert rep.bounded, direction
        assert rep.contains_center, direction
        assert rep.max_radius < 3 * rho0, direction
        assert rep.boxset.count > 0, direction
    assert elapsed < 300.0
    _ok(f"criterion 5: time-q map at rho0=0.05 has forward and backward "
        f"absorbing domains around 0 inside r<0.15 "
        f"(max radius {max(r.max_radius for r in reports.values()):.4f}) "
        f"in {elapsed:.0f}s at depth 9")


# ---------------------------------------------------------------------------
# 6. equilibria of the limit system at D=0, beta=1
# ---------------------------------------------------------------------------


def test_criterion_06_limit_equilibria_exact():
    eqs = flows.equilibria(0.0, 1.0)
    want = {
        (1.0, 0.0): ("saddle", sorted([-1.0, 1.0])),
        (-1.0, math.pi): ("saddle", sorted([-1.0, 1.0])),
        (0.0, -math.pi / 2): ("sink", [-1.0, -1.0]),
        (0.0, math.pi / 2): ("source", [1.0, 1.0]),
    }
    assert len(eqs) == 4
    matched = set()
    for eq in eqs:
        hit = None
        for (V, phi), (kind, eigs) in want.items():
            dphi = (eq.phi - phi + math.pi) % (2 * math.pi) - math.pi
            if abs(eq.V - V) <= 1e-10 and abs(dphi) <= 1e-10:
                hit = (V, phi)
                assert eq.kind == kind
                got = sorted(e.real for e in eq.eigenvalues)
                assert np.allclose(got, eigs, atol=1e-10)
                assert max(abs(e.imag) for e in eq.eigenvalues) <= 1e-10
        assert hit is not None, f"unexpected equilibrium {(eq.V, eq.phi)}"
        matched.add(hit)
    assert len(matched) == 4
    _ok("criterion 6: limit equilibria at D=0, beta=1 are (1,0), (-1,pi) "
        "saddles and (0,-pi/2)/(0,pi/2) with double -1/+1, all to 1e-10")


# ---------------------------------------------------------------------------
# 7. the first integral is conserved along circulating RK4 orbits
# ---------------------------------------------------------------------------


def test_criterion_07_first_integral_drift():
    worst = 0.0
    rng = np.random.default_rng(20240817)
    for beta in (0.5, 1.0, 2.5):
        starts = []
        for _ in range(10):
            # circulating orbits: |V| well away from the V = -D singular line
            V0 = rng.uniform(2.2, 3.0) * (1 if rng.random() < 0.5 else -1)
            phi0 = rng.uniform(0.0, 2 * math.pi)
            starts.append([V0, phi0])
        # the 10 orbits as one batch, each with the bits of its own run
        traj = flows.integrate(flows.limit_rhs(0.0, beta), np.array(starts), T=10.0, step=1e-3)
        assert not traj.blowup.any()
        K = flows.first_integral_K(traj.states[..., 0], traj.states[..., 1], 0.0, beta)
        worst = max(worst, float(np.max(np.abs(K - K[0]))))
    assert worst < 1e-6
    _ok(f"criterion 7: K-drift over 30 orbits (beta in 0.5/1/2.5, t<=10) "
        f"is {worst:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# 8. cartesian and polar integrations describe the same motion
# ---------------------------------------------------------------------------


def test_criterion_08_cartesian_polar_agreement():
    params = flows.NormalFormParams(q=5, p=1, mu=0.01, delta=0.02, B=1.0,
                                    C=-1.0, omega=(1.0,))
    z0 = 0.4 * np.exp(0.2j)
    rho0, phi0 = abs(z0) ** 2, params.q * np.angle(z0)

    zt = flows.integrate(flows.nf_rhs(params), np.array(z0), T=1.0, step=1e-3)
    pt = flows.integrate(flows.polar_rhs(params), np.array([rho0, phi0]),
                         T=1.0, step=1e-3)

    r_err = np.max(np.abs(np.abs(zt.states) - np.sqrt(pt.states[:, 0])))
    dphi = params.q * np.angle(zt.states) - pt.states[:, 1]
    p_err = np.max(np.abs((dphi + math.pi) % (2 * math.pi) - math.pi))
    assert r_err < 1e-6
    assert p_err < 1e-6
    _ok(f"criterion 8: |z| and phase agree between charts to "
        f"{max(r_err, p_err):.2e} over t in [0,1]")


# ---------------------------------------------------------------------------
# 9. the window field converges to the limit field at the predicted rate
# ---------------------------------------------------------------------------


def test_criterion_09_window_convergence_rate():
    params = flows.NormalFormParams(q=5, p=1, mu=0.0, delta=0.0, B=1.0,
                                    C=-1.0, omega=(1.0,))
    V, phi = np.meshgrid(np.linspace(-2.0, 2.0, 41),
                         np.linspace(0.0, 2 * math.pi, 41))
    gaps = []
    for rho0 in (1e-2, 1e-3):
        beta = flows.rescale(params, rho0, 0.0).beta
        lv, lp = flows.limit_field(V, phi, 0.0, beta)
        rv, rp = flows.rescaled_field(V, phi, params, rho0, 0.0)
        gaps.append(max(np.max(np.abs(rv - lv)), np.max(np.abs(rp - lp))))
    exponent = math.log10(gaps[0] / gaps[1])
    assert abs(exponent - 1.5) <= 0.2 * 1.5
    _ok(f"criterion 9: sup-gap decays with exponent {exponent:.3f} "
        f"(target 1.5 +- 20%)")


# ---------------------------------------------------------------------------
# 10. the time-q map is reversible and symmetric points pair multipliers
# ---------------------------------------------------------------------------


def test_criterion_10_normal_form_reversibility():
    system = mapzoo.make_system("nf_timeq", {})
    rep = revcore.verify_reversibility(system, n_samples=100, seed=0, tol=1e-8)
    assert rep.passed
    assert rep.max_residual < 1e-8

    scan = revcore.find_symmetric_fixed_points(system)
    assert scan.points, "no symmetric fixed points located"
    worst = max(p.multipliers.max_pairing_error for p in scan.points)
    assert worst < 1e-6
    _ok(f"criterion 10: reversibility residual {rep.max_residual:.2e} over "
        f"100 samples; multiplier pairing error {worst:.2e} at "
        f"{len(scan.points)} symmetric point(s)")


# ---------------------------------------------------------------------------
# 11. resonant spot: explicit threshold, unit determinant, finite return
# ---------------------------------------------------------------------------


def test_criterion_11_spot_return_check():
    rep = revcore.periodic_spot_check(3, 2 * math.pi / 5, n_samples=100)
    assert abs(rep.epsilon - 0.23032767) <= 1e-8
    assert rep.k == 5
    assert rep.det_is_exactly_one
    assert rep.power_residual < 1e-9
    assert rep.max_return_error < 1e-8
    _ok(f"criterion 11: q=3, theta=2pi/5 -> epsilon={rep.epsilon:.8f}, "
        f"M^5 residual {rep.power_residual:.1e}, 100 points return to "
        f"{rep.max_return_error:.1e}")


# ---------------------------------------------------------------------------
# 12. attractor/repeller exclusivity across a large graph population
# ---------------------------------------------------------------------------


def test_criterion_12_exclusivity_population(graph_from_edges):
    graphs = []
    for trial in range(1000):
        rng = np.random.default_rng((12, trial))
        n = int(rng.integers(2, 201))
        m = int(rng.integers(0, 4 * n))
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))]
        graphs.append(graph_from_edges(n, edges))

    for name, depth, eps_frac, samples in (
        ("cat_map", 6, 1.0, 4),
        ("circle_semistable", 7, 1.0, 4),
        ("cubic_interval", 7, 0.25, 4),
        ("nested_rings", 6, 1.0, 3),
        ("periodic_spot", 6, 1.0, 3),
        ("nf_timeq", 5, 1.0, 3),
    ):
        system = mapzoo.make_system(name, {})
        h = float(np.max(system.domain.box_width(depth)))
        graphs.append(build_graph(system, initial_cover(system.domain, depth),
                                  epsilon=h * eps_frac, samples_per_axis=samples))

    counterexamples = 0
    shared = 0
    for g in graphs:
        dec = chain.decompose(g)
        atts = chain.attractors(dec)
        reps = chain.repellers(dec)
        for a in atts:
            for r in reps:
                if a.boxes.intersection(r.boxes).count == 0:
                    continue
                shared += 1
                same = a.scc == r.scc and a.boxes == r.boxes
                flags = bool(dec.terminal[a.scc]) and bool(dec.initial[a.scc])
                if not (same and flags):
                    counterexamples += 1
    assert counterexamples == 0
    assert shared > 0  # the property was actually exercised
    _ok(f"criterion 12: 1000 random digraphs + 6 builtin graphs, "
        f"{shared} shared-box pairs, 0 exclusivity counterexamples")


# ---------------------------------------------------------------------------
# 13. identical configurations reproduce outputs byte for byte
# ---------------------------------------------------------------------------


def test_criterion_13_byte_identical_outputs(tmp_path):
    runs = {
        "a": ["classify", "--system", "nested_rings", "--depth", "6",
              "--epsilon", "0.04", "--samples", "3", "--workers", "1"],
        "b": ["classify", "--system", "nested_rings", "--depth", "6",
              "--epsilon", "0.04", "--samples", "3", "--workers", "1"],
        "c": ["classify", "--system", "nested_rings", "--depth", "6",
              "--epsilon", "0.04", "--samples", "3", "--workers", "2"],
    }
    for tag, argv in runs.items():
        out = tmp_path / tag
        assert cli.main(argv + ["--out", str(out)]) == 0
    ref_json = (tmp_path / "a" / "report.json").read_bytes()
    ref_pgm = (tmp_path / "a" / "classify.pgm").read_bytes()
    for tag in ("b", "c"):
        assert (tmp_path / tag / "report.json").read_bytes() == ref_json
        assert (tmp_path / tag / "classify.pgm").read_bytes() == ref_pgm

    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({
        "system": "cat_map",
        "schedule": [[5, 0.04]],
        "target": [0.5, 0.5],
        "samples": 3,
        "seed": 11,
        "trap": {"seed_radius": 0.1, "bound_radius": 2.0,
                 "n_orbits": 8, "n_steps": 40, "depth": 5},
    }))
    certs = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert cli.main(["core-scan", "--config", str(cfg),
                         "--out", str(out)]) == 0
        certs.append((out / "certificate.json").read_bytes())
    assert certs[0] == certs[1]

    noisy = []
    for tag in ("n1", "n2"):
        out = tmp_path / tag
        assert cli.main(["noisy", "--system", "cat_map", "--x0", "0.2,0.7",
                         "--noise", "0.01", "--steps", "300", "--trials", "4",
                         "--depth", "6", "--seed", "5",
                         "--out", str(out)]) == 0
        noisy.append((out / "noisy.csv").read_bytes()
                     + (out / "noisy.pgm").read_bytes())
    assert noisy[0] == noisy[1]
    _ok("criterion 13: classify (including workers=2), core-scan and noisy "
        "outputs byte-identical across reruns")
