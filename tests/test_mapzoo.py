import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setdyn import flows, mapzoo
from setdyn.errors import ConfigError, NumericsError

ALL_SYSTEMS = mapzoo.list_systems()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_contents():
    assert ALL_SYSTEMS == [
        "cat_map",
        "circle_semistable",
        "cubic_interval",
        "nested_rings",
        "nf_timeq",
        "periodic_spot",
    ]


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_system_dimension_is_its_domains(name):
    # a system's dimension is read off its domain, never set beside it
    system = mapzoo.make_system(name, {})
    assert system.dim == system.domain.dim
    assert "dim" not in {f.name for f in dataclasses.fields(mapzoo.MapSystem)}


def test_make_system_rejects_unknown_name():
    with pytest.raises(ConfigError, match="unknown system"):
        mapzoo.make_system("lorenz", {})


def test_make_system_rejects_unknown_and_bad_params():
    with pytest.raises(ConfigError, match="no parameter"):
        mapzoo.make_system("cubic_interval", {"b": 0.1})
    with pytest.raises(ConfigError):
        mapzoo.make_system("cubic_interval", {"a": float("inf")})
    with pytest.raises(ConfigError):
        mapzoo.make_system("cubic_interval", {"a": 0.7})
    with pytest.raises(ConfigError):
        mapzoo.make_system("periodic_spot", {"q": 3, "epsilon": 0.9})


@pytest.mark.parametrize("name, params", [
    ("cubic_interval", {"a": "x"}),
    ("cubic_interval", {"a": None}),
    ("cubic_interval", {"a": [0.1]}),
    ("periodic_spot", {"q": None}),
    ("periodic_spot", {"q": "three"}),
    ("periodic_spot", {"q": float("nan")}),
    ("periodic_spot", {"q": 10 ** 400}),
])
def test_make_system_rejects_values_that_are_not_numbers(name, params):
    with pytest.raises(ConfigError, match="parameter '"):
        mapzoo.make_system(name, params)


# periodic_spot is a local chart around the periodic point, not an invariant
# set: the shear legitimately carries window points outside it.
@pytest.mark.parametrize("name", [n for n in ALL_SYSTEMS if n != "periodic_spot"])
def test_forward_keeps_sample_points_in_domain(name):
    system = mapzoo.make_system(name, {})
    pts = system.sample_points(200, seed=3)
    img = system.domain.wrap(system.forward(pts))
    lo, hi = np.asarray(system.domain.lower), np.asarray(system.domain.upper)
    assert np.all((img >= lo - 1e-9) & (img <= hi + 1e-9))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_inverse_round_trip(name):
    system = mapzoo.make_system(name, {})
    assert system.inverse is not None
    report = mapzoo.check_inverse_consistency(system, n_samples=60, seed=11)
    assert report.passed, f"{name}: round-trip error {report.max_error:.3e}"


# a graph padded by lipschitz_hint is an outer approximation only if the hint
# bounds the map's max-metric difference quotients at the scale of a cell
@pytest.mark.parametrize(
    "name", [n for n in ALL_SYSTEMS if mapzoo.make_system(n, {}).lipschitz_hint is not None])
@settings(max_examples=200, deadline=None)
@given(u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       t=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_lipschitz_hint_bounds_difference_quotients(name, u, t):
    system = mapzoo.make_system(name, {})
    dom = system.domain
    lo, hi = np.asarray(dom.lower), np.asarray(dom.upper)
    r = dom.max_box_width(5)
    x = np.clip(lo + np.asarray(u[: dom.dim]) * dom.widths, lo, hi)
    y = np.clip(dom.wrap(x + r * np.asarray(t[: dom.dim])), lo, hi)
    dist = float(dom.distance(x, y))
    # much closer than this, rounding in the map outweighs the difference
    assume(dist >= 1e-3 * r)
    img_dist = float(dom.distance(system.forward(x[None]), system.forward(y[None]))[0])
    assert img_dist <= system.lipschitz_hint * dist * (1 + 1e-9)


def test_sample_points_deterministic():
    system = mapzoo.make_system("cat_map", {})
    a = system.sample_points(50, seed=5)
    b = system.sample_points(50, seed=5)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# individual maps
# ---------------------------------------------------------------------------


def test_cat_map_known_image():
    system = mapzoo.make_system("cat_map", {})
    img = system.forward(np.array([[0.2, 0.3]]))
    assert np.allclose(img % 1.0, [[0.7, 0.5]], atol=1e-15)


def test_circle_fixed_point_and_monotone_lift():
    system = mapzoo.make_system("circle_semistable", {})
    assert system.forward(np.array([[0.0]]))[0, 0] == 0.0
    assert system.forward(np.array([[np.pi]]))[0, 0] == pytest.approx(np.pi + 1.0)
    grid = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)[:, None]
    lift = system.forward(grid)[:, 0]
    assert np.all(np.diff(lift) > 0)


def test_cubic_is_odd_with_three_fixed_points():
    system = mapzoo.make_system("cubic_interval", {"a": 0.25})
    for x in (-1.0, 0.0, 1.0):
        assert system.forward(np.array([[x]]))[0, 0] == x
    xs = np.linspace(-1, 1, 101)[:, None]
    assert np.allclose(system.forward(-xs), -system.forward(xs), atol=1e-15)


def test_nested_rings_ring_invariance():
    system = mapzoo.make_system("nested_rings", {})
    for n in (2, 3, 4, 5):
        r = 1.0 / n
        pts = np.stack([r * np.cos([0.3, 1.1, 2.9]), r * np.sin([0.3, 1.1, 2.9])], axis=1)
        out = system.forward(pts)
        drift = np.abs(np.hypot(out[:, 0], out[:, 1]) - r)
        assert np.max(drift) < 1e-6, f"ring 1/{n} drifted by {np.max(drift):.2e}"


@pytest.mark.parametrize("params", [{}, {"step": 0.02}])
def test_nested_rings_commutes_with_the_quarter_turn_on_this_host(params):
    # nested_rings declares quarter_turn, so build_graph turns one lattice
    # point's image to get the others'.  Checked on every point of the full
    # depth-7 lattice at 3 samples an axis, 257 x 257 of them, with steps
    # of h/2 = 2.5/256, all exact: the point (i, j) turned, (-y, x), is the
    # lattice point (256 - j, i) but where y is 0.0, which turns to -0.0
    system = mapzoo.make_system("nested_rings", params)
    assert system.quarter_turn
    x = -1.25 + np.arange(257) * (2.5 / 256)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    i, j = np.divmod(np.arange(len(pts)), 257)
    turned = (256 - j) * 257 + i

    def turn(p):
        return np.stack([-p[:, 1], p[:, 0]], axis=-1)

    same = np.all(turn(pts).view(np.int64) == pts[turned].view(np.int64), axis=1)
    assert np.array_equal(~same, pts[:, 1] == 0.0)
    assert np.all(turn(pts) == pts[turned])  # the rest differ in the sign of zero only
    img = system.forward(pts)
    assert np.array_equal(img[turned][same].view(np.int64), turn(img)[same].view(np.int64))


def test_nested_rings_rim_is_clamped():
    system = mapzoo.make_system("nested_rings", {})
    pts = np.array([[1.2, 0.3], [-0.9, 0.9]])
    out = system.forward(pts)
    assert np.all(np.hypot(out[:, 0], out[:, 1]) <= 1.25 + 1e-9)


def _reference_clamped_map(field, T, step, rmax):
    """Clamped RK4 time-T map written out in full, as a bitwise oracle."""
    n = max(1, math.ceil(abs(T) / step - 1e-12))
    h = T / n

    def run(z):
        for _ in range(n):
            k1 = field(z)
            k2 = field(z + 0.5 * h * k1)
            k3 = field(z + 0.5 * h * k2)
            k4 = field(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            r = np.abs(z)
            over = r > rmax
            if np.any(over):
                z = np.where(over, z * (rmax / np.where(over, r, 1.0)), z)
        return z

    return run


def _reference_maps(system):
    step = system.params["step"]
    if system.name == "nested_rings":
        field, rmax = mapzoo._rings_field, mapzoo._RINGS_RMAX
    else:
        field, rmax = flows.nf_rhs(mapzoo._normal_form(system.params)), system.params["radius"]
    fwd = _reference_clamped_map(field, 1.0, step, rmax)
    bwd = _reference_clamped_map(field, -1.0, step, rmax)
    if system.name == "nested_rings":
        return fwd, bwd
    ang = mapzoo._normal_form(system.params).rotation_angle
    rot = complex(math.cos(ang), math.sin(ang))
    return (lambda z: rot * fwd(z)), (lambda z: bwd(rot.conjugate() * z))


def _domain_points(system, n, seed):
    """Uniform points of the whole domain, not just the sample region,
    drawn as ``sample_points`` draws them."""
    lo, hi = np.asarray(system.domain.lower), np.asarray(system.domain.upper)
    return lo + (hi - lo) * np.random.default_rng(seed).random((n, system.dim))


@pytest.mark.parametrize("name", ["nested_rings", "nf_timeq"])
def test_clamped_flow_maps_match_reference_rk4(name):
    system = mapzoo.make_system(name, {})
    # the whole domain, so the square's corners exercise the clamp
    pts = _domain_points(system, 256, seed=8)
    z = pts[..., 0] + 1j * pts[..., 1]
    for got, ref in zip((system.forward, system.inverse), _reference_maps(system)):
        want = ref(z)
        assert np.array_equal(got(pts), np.stack([want.real, want.imag], axis=-1))


@pytest.mark.parametrize("name", ["nested_rings", "nf_timeq"])
@pytest.mark.parametrize("n", [1, 49, 8191])
def test_per_point_time_matches_scalar_time_blocks(name, n):
    # one clamped flow_map call over two blocks with T = +1 and -1 gives the
    # bytes of a scalar-T call on each block; 2 * 8191 points stay under the
    # 16,384 from which numpy reuses temporaries in place.  A coarse step
    # keeps the big blocks fast; the arithmetic per step is the same.
    system = mapzoo.make_system(name, {})
    if name == "nested_rings":
        field, rmax = mapzoo._rings_field, mapzoo._RINGS_RMAX
    else:
        field, rmax = flows.nf_rhs(mapzoo._normal_form(system.params)), system.params["radius"]
    flow = mapzoo._clamped_time_map(field, 0.05, rmax)
    pts = _domain_points(system, 2 * n, seed=n)
    z = pts[..., 0] + 1j * pts[..., 1]
    joint = flow(z, np.repeat([1.0, -1.0], n))
    assert joint[:n].tobytes() == flow(z[:n], 1.0).tobytes()
    assert joint[n:].tobytes() == flow(z[n:], -1.0).tobytes()


def test_forward_inverse_matches_forward_and_inverse():
    system = mapzoo.make_system("nf_timeq", {})
    a = _domain_points(system, 49, seed=4)
    b = _domain_points(system, 7, seed=5)
    fa, fb = system.forward_inverse(a, b)
    assert fa.tobytes() == system.forward(a).tobytes()
    assert fb.tobytes() == system.inverse(b).tobytes()


@pytest.mark.parametrize("name", ["nested_rings", "nf_timeq"])
@pytest.mark.parametrize("n", [16000, 20000, 40000])
def test_flow_maps_are_batch_invariant(name, n):
    # a batch and any split of it give the same bytes, on both sides of the
    # 16,384 points from which numpy reuses temporaries in place; a coarse
    # step keeps the batches fast, and the arithmetic per step is the same
    system = mapzoo.make_system(name, {"step": 0.05})
    pts = _domain_points(system, n, seed=n)
    rng = np.random.default_rng(n)
    cuts = [[1], [n // 2], sorted(rng.choice(np.arange(1, n), 3, replace=False))]
    for step in (system.forward, system.inverse):
        whole = step(pts)
        for cut in cuts:
            parts = [step(p) for p in np.split(pts, cut)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()
    if system.forward_inverse is not None:
        # per-point T: the joint batch holds both blocks
        a, b = pts[: n // 2], pts[n // 2:]
        fa, fb = system.forward_inverse(a, b)
        assert fa.tobytes() == system.forward(a).tobytes()
        assert fb.tobytes() == system.inverse(b).tobytes()
        for cut in cuts[2]:
            ka, kb = min(cut, len(a) - 1), min(cut, len(b) - 1)
            pa, pb = system.forward_inverse(a[:ka], b[kb:])
            qa, qb = system.forward_inverse(a[ka:], b[:kb])
            assert np.concatenate([pa, qa]).tobytes() == fa.tobytes()
            assert np.concatenate([qb, pb]).tobytes() == fb.tobytes()


def test_in_blocks_uses_fewest_equal_blocks_below_the_limit():
    calls = []

    def record(*batches):
        calls.append([len(b) for b in batches])
        return batches if len(batches) > 1 else batches[0]

    for sizes, want in [
        ([16383], [[16383]]),
        ([16384], [[8192]] * 2),
        ([36864], [[12288]] * 3),
        ([9216, 9216], [[4608, 4608]] * 2),
        ([49, 49], [[49, 49]]),
    ]:
        calls.clear()
        batches = [np.arange(2.0 * m).reshape(m, 2) for m in sizes]
        out = mapzoo._in_blocks(record)(*batches)
        assert calls == want
        for got, b in zip(out if len(sizes) > 1 else [out], batches):
            assert got.tobytes() == b.tobytes()


def test_nf_timeq_fixes_origin():
    system = mapzoo.make_system("nf_timeq", {})
    out = system.forward(np.zeros((1, 2)))
    assert np.allclose(out, 0.0, atol=1e-14)


def test_nf_timeq_respects_parameter_overrides():
    system = mapzoo.make_system("nf_timeq", {"mu": 0.02, "q": 7})
    nf = mapzoo._normal_form(system.params)
    assert nf.mu == 0.02 and nf.q == 7


def test_periodic_spot_involution_conjugates_inverse():
    system = mapzoo.make_system("periodic_spot", {"q": 3, "epsilon": 0.2})
    h = system.involution
    pts = system.sample_points(50, seed=2)
    assert np.allclose(h(h(pts)), pts, atol=1e-14)
    lhs = h(system.forward(h(pts)))
    rhs = system.inverse(pts)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_newton_inverse_rejects_bad_bracket():
    # inverting y = x^3 around a bracket that excludes the preimage
    with pytest.raises(NumericsError, match="did not reach"):
        mapzoo.newton_inverse_1d(lambda x: x ** 3, lambda x: 3.0 * x ** 2, np.array([8.0]),
                                 np.array([0.5]), lo=-1.0, hi=1.0)
