import dataclasses
import math

import numpy as np
import pytest

from setdyn import mapzoo, revcore
from setdyn.boxdyn import Domain
from setdyn.errors import ConfigError


def _linear_saddle():
    """diag(2, 1/2) with the coordinate swap as reversing involution."""
    A = np.diag([2.0, 0.5])
    dom = Domain(lower=(-2.0, -2.0), upper=(2.0, 2.0), periodic=(False, False))
    return mapzoo.MapSystem(
        name="saddle",
        params={},
        domain=dom,
        forward=lambda p: p @ A.T,
        inverse=lambda p: p @ np.diag([0.5, 2.0]).T,
        involution=lambda p: p[..., ::-1],
        involution_fixed={
            "kind": "line",
            "point": (0.0, 0.0),
            "direction": (1.0, 1.0),
            "range": (-1.0, 1.0),
        },
        sample_region=Domain(
            lower=(-1.0, -1.0), upper=(1.0, 1.0), periodic=(False, False)
        ),
    )


# ---------------------------------------------------------------------------
# reversibility checks
# ---------------------------------------------------------------------------


def test_linear_saddle_is_exactly_reversible():
    rep = revcore.verify_reversibility(_linear_saddle(), n_samples=64, seed=1)
    assert rep.passed
    assert rep.max_residual == 0.0
    assert rep.involution_residual == 0.0


def test_reversibility_requires_involution():
    system = mapzoo.make_system("cat_map", {})
    assert system.involution is None
    with pytest.raises(ConfigError):
        revcore.verify_reversibility(system)


def test_broken_involution_fails():
    system = dataclasses.replace(_linear_saddle(), involution=lambda p: p)
    rep = revcore.verify_reversibility(system, n_samples=32, seed=1)
    assert not rep.passed


# ---------------------------------------------------------------------------
# fixed points on the interval / circle
# ---------------------------------------------------------------------------


def test_circle_finder_reports_single_semistable_point():
    system = mapzoo.make_system("circle_semistable", {})
    points = revcore.find_fixed_points(system)
    assert len(points) == 1
    assert abs(points[0].location[0]) <= 1e-8
    assert points[0].multipliers.kind == "parabolic"
    lam = points[0].multipliers.eigenvalues[0]
    assert abs(lam - 1.0) < 1e-4


def test_cubic_finder_reports_three_hyperbolic_points():
    system = mapzoo.make_system("cubic_interval", {"a": 0.25})
    points = revcore.find_fixed_points(system)
    locs = sorted(p.location[0] for p in points)
    assert locs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)
    lams = {round(float(p.multipliers.eigenvalues[0].real), 6) for p in points}
    assert lams == {0.5, 1.25}


def test_fixed_point_finder_is_one_dimensional_only():
    with pytest.raises(ConfigError):
        revcore.find_fixed_points(mapzoo.make_system("cat_map", {}))


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def test_cat_map_multipliers_at_origin():
    system = mapzoo.make_system("cat_map", {})
    rep = revcore.multipliers_at(system, (0.0, 0.0))
    eigs = sorted(e.real for e in rep.eigenvalues)
    golden = (3 + math.sqrt(5)) / 2
    assert eigs == pytest.approx([1 / golden, golden], abs=1e-6)
    assert rep.kind == "hyperbolic"
    assert rep.max_pairing_error < 1e-6


def test_saddle_multipliers_pair_exactly():
    rep = revcore.multipliers_at(_linear_saddle(), (0.0, 0.0))
    assert rep.max_pairing_error < 1e-9
    assert sorted(e.real for e in rep.eigenvalues) == pytest.approx([0.5, 2.0], abs=1e-8)


# ---------------------------------------------------------------------------
# symmetric fixed points
# ---------------------------------------------------------------------------


def test_saddle_symmetric_scan_finds_origin():
    scan = revcore.find_symmetric_fixed_points(_linear_saddle())
    assert not scan.degenerate
    assert len(scan.points) == 1
    assert np.allclose(scan.points[0].location, (0.0, 0.0), atol=1e-10)
    assert scan.points[0].multipliers.max_pairing_error < 1e-8


def test_identity_map_scan_flags_degeneracy():
    dom = Domain(lower=(-1.0, -1.0), upper=(1.0, 1.0), periodic=(False, False))
    system = mapzoo.MapSystem(
        name="identity",
        params={},
        domain=dom,
        forward=lambda p: p,
        inverse=lambda p: p,
        involution=lambda p: p * np.array([1.0, -1.0]),
        involution_fixed={
            "kind": "line",
            "point": (0.0, 0.0),
            "direction": (1.0, 0.0),
            "range": (-1.0, 1.0),
        },
    )
    scan = revcore.find_symmetric_fixed_points(system)
    assert scan.degenerate
    assert len(scan.points) > 0


def test_spot_symmetric_scan_finds_periodic_point():
    system = mapzoo.make_system("periodic_spot", {"q": 3, "epsilon": 0.2})
    scan = revcore.find_symmetric_fixed_points(system)
    locs = np.array([p.location for p in scan.points])
    assert np.any(np.all(np.abs(locs) < 1e-8, axis=1))
    for p in scan.points:
        assert p.multipliers.max_pairing_error < 1e-6


# ---------------------------------------------------------------------------
# resonant spot normal form
# ---------------------------------------------------------------------------


def test_spot_check_q3_golden_angle():
    rep = revcore.periodic_spot_check(3, 2 * math.pi / 5)
    assert rep.k == 5
    assert rep.epsilon == pytest.approx((1 - math.cos(2 * math.pi / 5)) / 3, abs=1e-15)
    assert rep.det_is_exactly_one
    assert rep.power_residual < 1e-9
    assert rep.max_return_error < 1e-8


def test_spot_check_right_angle():
    rep = revcore.periodic_spot_check(1, math.pi / 2)
    assert rep.k == 4
    assert rep.epsilon == pytest.approx(1.0, abs=1e-15)
    assert rep.power_residual < 1e-12


def test_spot_check_rejects_bad_angles():
    with pytest.raises(ConfigError):
        revcore.periodic_spot_check(3, 1.0)  # not a rational multiple of 2*pi
    with pytest.raises(ConfigError):
        revcore.periodic_spot_check(3, 3.5)  # outside (0, pi)
    with pytest.raises(ConfigError):
        revcore.periodic_spot_check(0, math.pi / 2)


def test_involution_residual_zero_for_exact_involution():
    system = mapzoo.make_system("periodic_spot", {"q": 3, "epsilon": 0.2})
    assert revcore.involution_residual(system, system.involution, n_samples=40, seed=0) < 1e-14
