import math

import numpy as np
import pytest

from setdyn import flows
from setdyn.errors import ConfigError, NumericsError


def _params(**kw):
    base = dict(q=5, p=1, mu=0.0, delta=0.0, B=1.0, C=-1.0, omega=(1.0,))
    base.update(kw)
    return flows.NormalFormParams(**base)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


def test_nf_field_pure_rotation_point():
    # With mu = delta = 0 and B = -C the resonant terms cancel on the real
    # axis, leaving i*Omega(|z|^2)*z = i * 0.25 * 0.5.
    p = _params()
    assert flows.nf_rhs(p)(0.5 + 0.0j) == 0.125j


def test_nf_field_full_sum():
    p = _params(mu=0.05, delta=0.1)
    # -i*0.05*0.5 + i*0.25*0.5 + i*0.1*0.5**4 + i*0.5**6 - i*0.5*0.5**5
    want = 1j * (-0.025 + 0.125 + 0.1 * 0.0625)
    assert flows.nf_rhs(p)(0.5 + 0.0j) == pytest.approx(want, abs=1e-16)


def test_nf_field_vectorized_matches_scalar():
    p = _params(mu=0.03, delta=0.07, omega=(1.0, -0.5))
    zs = np.array([0.2 + 0.1j, -0.4j, 0.05 - 0.3j])
    batch = flows.nf_rhs(p)(zs)
    for z, w in zip(zs, batch):
        assert flows.nf_rhs(p)(complex(z)) == pytest.approx(complex(w), abs=1e-16)


def _product_powers(z, q):
    """z^(q-1) and z^(q+1) as written-out products, for the q the cases use."""
    z2 = z * z
    low = {3: z2, 4: z * z2, 5: z2 * z2, 7: z2 * (z2 * z2)}[q]
    return low, low * z2


def _omega_plain(rho, params):
    omega = np.zeros_like(rho)
    for coeff in reversed(params.omega):
        omega = (omega + coeff) * rho
    return omega


def _reference_nf_field(z, params):
    """The product-form field as a plain expression with Python-float
    coefficients."""
    z = np.asarray(z, dtype=complex)
    rho = (z * np.conj(z)).real
    low, high = _product_powers(z, params.q)
    out = 1j * (
        (_omega_plain(rho, params) - params.mu) * z
        + (params.delta + params.C * rho) * np.conj(low)
        + params.B * high
    )
    return out if out.ndim else complex(out)


def _power_form_nf_field(z, params):
    """The module formula with complex ``**``: the accuracy reference."""
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    rho = (z * zc).real
    return 1j * (
        (_omega_plain(rho, params) - params.mu) * z
        + params.delta * zc ** (params.q - 1)
        + params.B * z ** (params.q + 1)
        + params.C * z * zc**params.q
    )


@pytest.mark.parametrize("kw", [
    dict(mu=0.05, delta=0.1, omega=(1.0, 0.0, 0.0)),
    dict(q=3, mu=-0.3, delta=-0.0, B=-2.0, C=0.5, omega=(-0.0,)),
    dict(q=4, delta=0.2, B=0.0, C=0.0, omega=(2.0, -1.5, 0.25, 3.0)),
    dict(q=7, p=2, mu=1e-3, delta=1e-2, B=0.3, C=-0.7, omega=(1.0, 0.0, -0.0)),
])
def test_nf_rhs_equals_plain_expression_bitwise(kw):
    # nf_rhs keeps its coefficients as 0-d arrays; every bit, signed zeros
    # and non-finite values included, must match the plain product form,
    # which in turn must match the ``**`` formula to rounding
    p = _params(**kw)
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 1e-300, -1e-300, 0.1, -0.1, 3.0, 1e200, np.inf, -np.inf, np.nan]
    zs = np.concatenate([
        rng.normal(scale=0.1, size=500) + 1j * rng.normal(scale=0.1, size=500),
        -rng.random(50) + 0j,
        1j * rng.normal(size=50),
        np.array([complex(a, b) for a in special for b in special]),
    ])
    with np.errstate(all="ignore"):
        got, want = flows.nf_rhs(p)(zs), _reference_nf_field(zs, p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for z in zs[::7]:
            got1, want1 = flows.nf_rhs(p)(complex(z)), _reference_nf_field(complex(z), p)
            assert type(got1) is complex and np.array(got1).tobytes() == np.array(want1).tobytes()
        rho = np.abs(zs) ** 2
        ref = _omega_plain(rho, p)
        assert flows.omega_eval(p, rho).tobytes() == ref.tobytes()

        power = _power_form_nf_field(zs, p)
        assert np.array_equal(np.isfinite(got), np.isfinite(power))
        a = np.abs(zs)
        terms = (np.abs(ref - p.mu) * a + abs(p.delta) * a ** (p.q - 1)
                 + (abs(p.B) + abs(p.C)) * a ** (p.q + 1))
    check = np.isfinite(zs) & np.isfinite(power)
    assert np.count_nonzero(check) > 600
    assert np.all(np.abs(got - power)[check] <= 1e-15 * terms[check])


def test_omega_eval_polynomial():
    p = _params(omega=(2.0, 3.0))
    assert flows.omega_eval(p, 0.5) == 2.0 * 0.5 + 3.0 * 0.25


def test_polar_field_is_pushforward_of_cartesian():
    p = _params(mu=0.02, delta=0.05, omega=(1.0, 0.3))
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = rng.uniform(0.01, 0.5)
        phi = rng.uniform(0, 2 * math.pi)
        z = math.sqrt(rho) * np.exp(1j * phi / p.q)
        zdot = flows.nf_rhs(p)(z)
        rho_dot, phi_dot = flows.polar_field(rho, phi, p)
        assert rho_dot == pytest.approx(2.0 * (np.conj(z) * zdot).real, abs=1e-13)
        assert phi_dot == pytest.approx(p.q * (zdot / z).imag, abs=1e-12)


def test_params_validation():
    with pytest.raises(ConfigError):
        _params(q=2)
    with pytest.raises(ConfigError):
        flows.NormalFormParams(q=6, p=2, mu=0.0, delta=0.0, B=1.0, C=-1.0, omega=(1.0,))
    with pytest.raises(ConfigError):
        _params(B=float("nan"))


# ---------------------------------------------------------------------------
# rescaling and the limit system
# ---------------------------------------------------------------------------


def test_rescale_oracle_values():
    res = flows.rescale(_params(), rho0=0.01, D=0.0)
    assert res.mu == pytest.approx(0.01, abs=1e-18)
    assert res.delta == pytest.approx(0.02, abs=1e-18)
    assert res.time_scale == pytest.approx(-4.0e-5, rel=1e-12)
    assert res.beta == 2.5


def test_rescale_detuning_shifts_delta():
    p = _params()
    d0 = flows.rescale(p, 0.01, 0.0).delta
    d1 = flows.rescale(p, 0.01, 1.0).delta
    assert d1 - d0 == pytest.approx(2.0 * 2.0 * 0.01 ** 2.5, rel=1e-12)


def test_rescale_rejects_degenerate_coefficients():
    with pytest.raises(ConfigError):
        flows.rescale(_params(C=1.0), 0.01, 0.0)
    with pytest.raises(ConfigError):
        flows.rescale(_params(), -0.1, 0.0)


def test_limit_field_equilibria_vanish():
    for D, beta in [(0.0, 1.0), (0.3, 1.7), (-0.6, 0.4)]:
        for eq in flows.equilibria(D, beta):
            vd, pd = flows.limit_field(eq.V, eq.phi, D, beta)
            assert abs(vd) < 1e-12 and abs(pd) < 1e-12


def test_equilibria_count_and_kinds():
    eqs = flows.equilibria(0.3, 1.7)
    assert len(eqs) == 4
    kinds = sorted(e.kind for e in eqs)
    assert kinds == ["saddle", "saddle", "sink", "source"]
    # detuning beyond the fold removes the axis pair
    assert len(flows.equilibria(1.5, 1.7)) == 2


def test_first_integral_oracles():
    assert flows.first_integral_K(1.0, 0.0, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-15)
    assert flows.first_integral_K(1.0, 0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_first_integral_conserved_along_flow():
    D, beta = 0.0, 2.0
    rhs = flows.limit_rhs(D, beta)
    x0 = np.array([2.5, 1.0])
    traj = flows.integrate(rhs, x0, T=5.0, step=1e-3)
    K = flows.first_integral_K(traj.states[:, 0], traj.states[:, 1], D, beta)
    assert np.max(np.abs(K - K[0])) < 1e-8


def test_rescaled_field_approaches_limit_field():
    p = _params()
    V, phi = np.meshgrid(np.linspace(-2, 2, 21), np.linspace(0, 2 * math.pi, 21))
    res = flows.rescale(p, 1e-3, 0.0)
    lv, lp = flows.limit_field(V, phi, 0.0, res.beta)
    rv, rp = flows.rescaled_field(V, phi, p, 1e-3, 0.0)
    gap = max(np.max(np.abs(rv - lv)), np.max(np.abs(rp - lp)))
    assert gap < 0.02  # O(rho0^1.5) with a moderate constant


def test_rescaled_field_rejects_nonpositive_radius():
    # V so large that rho0 - scale*V leaves the annulus entirely
    p = _params()
    with pytest.raises(NumericsError):
        flows.rescaled_field(2e4, 0.0, p, 1e-3, 0.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_integrate_linear_decay():
    traj = flows.integrate(lambda y: -y, np.array([1.0]), T=1.0, step=1e-3)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert not traj.blowup


def test_integrate_backward_time():
    traj = flows.integrate(lambda y: -y, np.array([1.0]), T=-1.0, step=1e-3)
    assert traj.times[-1] == pytest.approx(-1.0)
    assert traj.states[-1, 0] == pytest.approx(math.exp(1.0), abs=1e-11)


def test_integrate_blowup_truncates():
    traj = flows.integrate(lambda y: y ** 2, np.array([2.0]), T=1.0, step=1e-4)
    assert traj.blowup
    assert traj.times[-1] < 1.0
    assert np.all(np.isfinite(traj.states))


def test_integrate_validates_arguments():
    with pytest.raises(ConfigError):
        flows.integrate(lambda y: y, np.array([1.0]), T=0.0)
    with pytest.raises(ConfigError):
        flows.integrate(lambda y: y, np.array([1.0]), T=1.0, step=-1e-3)


def _assert_orbit_is_its_own_run(traj, i, single):
    """Orbit i of a batch trajectory has the bits of its one-orbit run."""
    m = traj.lengths[i]
    assert m == len(single) and traj.blowup[i] == single.blowup
    assert traj.times[:m].tobytes() == single.times.tobytes()
    assert traj.states[:m, i].reshape(single.states.shape).tobytes() == single.states.tobytes()
    assert np.isnan(traj.states[m:, i]).all()


def test_batched_integrate_matches_one_orbit_runs_bitwise():
    rng = np.random.default_rng(7)
    starts = np.column_stack([rng.uniform(-2.5, 2.5, 6), rng.uniform(0, 2 * math.pi, 6)])
    rhs = flows.limit_rhs(0.3, 2.5)
    traj = flows.integrate(rhs, starts, T=3.0, step=1e-3)
    assert traj.states.shape == (3001, 6, 2) and not traj.blowup.any()
    for i, x0 in enumerate(starts):
        _assert_orbit_is_its_own_run(traj, i, flows.integrate(rhs, x0, T=3.0, step=1e-3))
    # complex states: a batch of (N, 1) against complex scalars, backward in time
    rhs = flows.nf_rhs(_params(mu=0.01, delta=0.02))
    z0 = np.array([[0.3 + 0.1j], [-0.2 + 0.25j], [0.05 - 0.4j]])
    traj = flows.integrate(rhs, z0, T=-0.5, step=1e-3)
    assert traj.times[0] == 0.0 and not math.copysign(1.0, traj.times[0]) < 0
    for i, z in enumerate(z0[:, 0]):
        _assert_orbit_is_its_own_run(traj, i, flows.integrate(rhs, np.array(z), T=-0.5, step=1e-3))


def test_batched_integrate_truncates_each_orbit_on_its_own():
    # y' = y^2 from y0 blows up at t = 1/y0: inside the run for 2.0 and 1.25,
    # not for 0.5 or -1.0; the orbits that blow up stop at different steps
    starts = np.array([[0.5], [2.0], [-1.0], [1.25]])
    traj = flows.integrate(lambda y: y ** 2, starts, T=1.0, step=1e-4)
    assert traj.blowup.tolist() == [False, True, False, True]
    assert traj.lengths[0] == traj.lengths[2] == 10001 == len(traj)
    assert traj.lengths[1] < traj.lengths[3] < 10001
    for i, x0 in enumerate(starts):
        _assert_orbit_is_its_own_run(traj, i, flows.integrate(lambda y: y ** 2, x0, T=1.0, step=1e-4))


def test_batched_integrate_stops_when_every_orbit_is_cut():
    calls = []

    def field(y):
        calls.append(len(y))
        return y ** 2

    traj = flows.integrate(field, np.array([[2.0], [4.0]]), T=1.0, step=1e-3)
    assert traj.blowup.all() and len(traj) == traj.lengths.max() < 1001
    assert len(calls) == 4 * (len(traj))  # the step past the longest orbit is the last


def test_empty_batch_checks_its_settings_and_takes_no_step():
    def field(y):
        raise AssertionError("an empty batch was stepped")

    traj = flows.integrate(field, np.empty((0, 2)), T=1.0)
    assert traj.states.shape == (1, 0, 2) and traj.lengths.size == 0
    with pytest.raises(ConfigError):
        flows.integrate(field, np.empty((0, 2)), T=0.0)
    with pytest.raises(ConfigError):
        flows.integrate(field, np.empty((0, 2)), T=1.0, step=0.0)


def test_flow_map_matches_integrate_endpoints():
    p = _params(mu=0.01, delta=0.02)
    rhs = flows.nf_rhs(p)
    z0 = np.array([0.3 + 0.1j, -0.2 + 0.25j])
    ends = flows.flow_map(rhs, z0, T=0.5, step=1e-3)
    for z, e in zip(z0, ends):
        traj = flows.integrate(rhs, np.array(z), T=0.5, step=1e-3)
        assert complex(traj.states[-1]) == pytest.approx(complex(e), abs=1e-14)


def test_flow_map_rejects_per_point_times_of_different_size():
    z = np.array([0.1 + 0.1j, 0.2 - 0.1j])
    with pytest.raises(ConfigError):
        flows.flow_map(lambda y: -y, z, np.array([1.0, 0.5]))
    with pytest.raises(ConfigError):
        flows.flow_map(lambda y: -y, z, np.array([1.0, np.nan]))
    with pytest.raises(ConfigError):
        flows.flow_map(lambda y: -y, z, np.array([np.nan, np.nan]))
    with pytest.raises(ConfigError):
        flows.flow_map(lambda y: -y, z, np.array([np.inf, -np.inf]))
    with pytest.raises(ConfigError):
        flows.flow_map(lambda y: -y, z[:0], np.array([]))
