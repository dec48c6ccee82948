"""Reversibility checks, symmetric fixed points, and multiplier reciprocity.

A map f is reversible when an involution g (g∘g = id) conjugates it to its
inverse: f^{-1} = g∘f∘g.  Fixed points on Fix(g) then come with reciprocal
multiplier pairs (lambda, 1/lambda); on the unit circle that means elliptic
points e^{±i·omega}.  This module verifies the conjugacy numerically, scans
the fixed set of the involution for symmetric fixed points, and
classifies them through finite-difference multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, NumericsError
from .mapzoo import MapSystem

_FD_STEP = 1e-6

# the fixed-point finders' grid sizes, bisection width and displacement
# bounds (see their docstrings), and the half-width of the square that
# periodic_spot_check samples
_FIXED_GRID = 4096
_SYMMETRIC_GRID = 2048
_REFINE_TOL = 1e-10
_ACCEPT_TOL = 1e-12
_POINT_TOL = 1e-8
_SPOT_HALFWIDTH = 0.25


# ---------------------------------------------------------------------------
# reversibility verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReversibilityReport:
    max_residual: float
    involution_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol and self.involution_residual < self.tol


def involution_residual(system: MapSystem, involution, n_samples: int = 100, seed: int = 0) -> float:
    """Max distance between g(g(x)) and x over random samples."""
    pts = system.sample_points(n_samples, seed=seed)
    back = involution(involution(pts))
    return float(np.max(system.domain.distance(back, pts)))


def verify_reversibility(
    system: MapSystem,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
) -> ReversibilityReport:
    """Check f^{-1} = g∘f∘g (and g∘g = id), g the system's involution, on random points."""
    g = system.involution
    if g is None:
        raise ConfigError(f"system {system.name!r} has no involution to verify")
    if system.inverse is None:
        raise ConfigError(f"system {system.name!r} has no inverse to compare against")
    pts = system.sample_points(n_samples, seed=seed)
    lhs = system.inverse(pts)
    rhs = g(system.forward(g(pts)))
    res = float(np.max(system.domain.distance(lhs, rhs)))
    return ReversibilityReport(
        max_residual=res,
        involution_residual=involution_residual(system, g, n_samples, seed),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierReport:
    eigenvalues: tuple
    max_pairing_error: float
    kind: str


def _map_jacobian(system: MapSystem, x: np.ndarray) -> np.ndarray:
    """Richardson-extrapolated central-difference Jacobian of f."""
    dim = system.dim
    x = np.asarray(x, dtype=float).reshape(dim)

    def jac(h: float) -> np.ndarray:
        cols = []
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            hi = system.forward((x + e)[None, :])[0]
            lo = system.forward((x - e)[None, :])[0]
            cols.append(system.domain.signed_diff(hi, lo) / (2.0 * h))
        return np.stack(cols, axis=1)

    J1 = jac(_FD_STEP)
    J2 = jac(_FD_STEP / 2.0)
    J = (4.0 * J2 - J1) / 3.0
    if not np.all(np.isfinite(J)):
        raise NumericsError("non-finite Jacobian in multiplier computation")
    return J


def _classify_multipliers(eigs: np.ndarray, tol: float = 1e-4) -> str:
    mods = np.abs(eigs)
    if len(eigs) == 1:
        return "parabolic" if abs(mods[0] - 1.0) <= tol else "hyperbolic"
    on_circle = np.all(np.abs(mods - 1.0) <= tol)
    if on_circle and np.max(np.abs(eigs.imag)) > tol:
        return "elliptic"
    if on_circle:
        return "parabolic"
    if np.max(np.abs(eigs.imag)) <= tol and np.min(mods) < 1.0 - tol < 1.0 + tol < np.max(mods):
        return "hyperbolic"
    return "generic"


def multipliers_at(system: MapSystem, x) -> MultiplierReport:
    """Multipliers of f at a fixed point, with reciprocal pairing.

    Each eigenvalue's pairing error is the least |lambda * partner - 1| over
    the eigenvalues; for reversible maps at symmetric points the largest of
    these should vanish to discretization accuracy.
    """
    J = _map_jacobian(system, x)
    eigs = np.linalg.eigvals(J)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    return MultiplierReport(
        eigenvalues=tuple(complex(e) for e in eigs),
        max_pairing_error=max(float(np.abs(eigs * lam - 1.0).min()) for lam in eigs),
        kind=_classify_multipliers(eigs),
    )


# ---------------------------------------------------------------------------
# fixed-point finders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    location: tuple
    residual: float
    multipliers: MultiplierReport


def _signed_displacement(system: MapSystem, x: np.ndarray) -> np.ndarray:
    """f(x) - x as a signed scalar, shortest way around on a periodic axis."""
    return system.domain.signed_diff(system.forward(x[..., None]), x[..., None])[..., 0]


def find_fixed_points(system: MapSystem) -> list[FixedPoint]:
    """All fixed points of a one-dimensional map, including tangential ones.

    Transversal roots come from sign changes of the displacement f(x) - x
    on a grid of ``_FIXED_GRID`` points; semi-stable points, where the
    displacement touches zero without changing sign, come from sign changes
    of its derivative whose displacement value is below ``_ACCEPT_TOL``.
    Roots are bisected to ``_REFINE_TOL``.
    """
    if system.dim != 1:
        raise ConfigError("find_fixed_points handles one-dimensional systems; "
                          "use find_symmetric_fixed_points in higher dimension")
    lo, hi = system.domain.lower[0], system.domain.upper[0]
    per = system.domain.periodic[0]
    xs = np.linspace(lo, hi, _FIXED_GRID, endpoint=not per)
    d = _signed_displacement(system, xs)

    def disp(x):
        return float(_signed_displacement(system, np.atleast_1d(np.asarray(x, float)))[0])

    fd = 1e-7 * max(1.0, hi - lo)

    def dprime(x):
        return (disp(x + fd) - disp(x - fd)) / (2.0 * fd)

    roots: list[float] = []
    n_seg = len(xs) if per else len(xs) - 1
    for i in range(n_seg):
        a = xs[i]
        # on a circle the last segment wraps: [last grid point, upper == lower]
        b = xs[i + 1] if i + 1 < len(xs) else hi
        da, db = d[i], d[(i + 1) % len(xs)]
        if da == 0.0:
            roots.append(float(a))
            continue
        if da * db < 0:
            roots.append(_bisect(disp, a, b, _REFINE_TOL))
        else:
            pa, pb = dprime(a), dprime(b)
            if pa * pb < 0:
                t = _bisect(dprime, a, b, _REFINE_TOL)
                if abs(disp(t)) < _ACCEPT_TOL:
                    roots.append(t)
    if not per and abs(d[-1]) < _ACCEPT_TOL:
        roots.append(float(xs[-1]))

    out: list[FixedPoint] = []
    spacing = (hi - lo) / _FIXED_GRID
    for r in sorted(roots):
        r_wrapped = (r - lo) % (hi - lo) + lo if per else r
        if out and _axis_dist(system, r_wrapped, out[-1].location[0]) < 2 * spacing:
            continue
        out.append(
            FixedPoint(
                location=(float(r_wrapped),),
                residual=abs(disp(r_wrapped)),
                multipliers=multipliers_at(system, np.array([r_wrapped])),
            )
        )
    # wrap-around dedup on a circle
    if per and len(out) > 1 and _axis_dist(system, out[0].location[0], out[-1].location[0]) < 2 * spacing:
        out.pop()
    return out


def _axis_dist(system: MapSystem, a: float, b: float) -> float:
    return float(system.domain.distance(np.array([a]), np.array([b])))


def _bisect(fun, a: float, b: float, tol: float) -> float:
    fa = fun(a)
    for _ in range(200):
        if b - a < tol:
            break
        m = 0.5 * (a + b)
        fm = fun(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# symmetric points
# ---------------------------------------------------------------------------


@dataclass
class SymmetricScan:
    points: list[FixedPoint]
    degenerate: bool


def find_symmetric_fixed_points(system: MapSystem) -> SymmetricScan:
    """Scan Fix(g) of the system's involution g for symmetric fixed points
    of f.

    The fixed set must be described as a parameterized line (see
    MapSystem.involution_fixed).  Candidates are parameters t, on a grid of
    ``_SYMMETRIC_GRID`` points, where f maps the curve point back
    onto the fixed set; a candidate is a fixed point when the full
    displacement lands within ``_POINT_TOL``.  When more than half the grid
    already consists of fixed points the map is degenerate along the curve
    (e.g. the identity) and the scan reports that instead of an arbitrary
    subset.
    """
    desc = system.involution_fixed
    if desc is None:
        raise ConfigError("system has no fixed-set description (involution_fixed)")
    if system.involution is None:
        raise ConfigError("system has no involution")

    if desc["kind"] != "line":
        raise ConfigError(f"unsupported fixed-set kind {desc['kind']!r}")

    p0 = np.asarray(desc["point"], dtype=float)
    u = np.asarray(desc["direction"], dtype=float)
    t0, t1 = desc["range"]
    normal = np.array([-u[1], u[0]]) / math.hypot(u[0], u[1])

    ts = np.linspace(t0, t1, _SYMMETRIC_GRID)
    curve = p0[None, :] + ts[:, None] * u[None, :]
    image = system.forward(curve)
    disp_full = np.max(np.abs(image - curve), axis=1)
    if np.mean(disp_full < _POINT_TOL) > 0.5:
        pts = [
            FixedPoint(
                tuple(curve[i].tolist()), float(disp_full[i]), multipliers_at(system, curve[i])
            )
            for i in range(0, _SYMMETRIC_GRID, _SYMMETRIC_GRID // 16)
        ]
        return SymmetricScan(points=pts, degenerate=True)

    s = (image - p0[None, :]) @ normal  # signed distance of image from Fix(g)

    def s_of(t: float) -> float:
        x = p0 + t * u
        y = system.forward(x[None, :])[0]
        return float((y - p0) @ normal)

    roots: list[float] = []
    for i in range(_SYMMETRIC_GRID - 1):
        if s[i] == 0.0:
            roots.append(float(ts[i]))
        elif s[i] * s[i + 1] < 0:
            roots.append(_bisect(s_of, float(ts[i]), float(ts[i + 1]), _REFINE_TOL))
    if s[-1] == 0.0:
        roots.append(float(ts[-1]))

    spacing = (t1 - t0) / _SYMMETRIC_GRID
    points: list[FixedPoint] = []
    last_t = None
    for t in sorted(roots):
        if last_t is not None and abs(t - last_t) < 2 * spacing:
            continue
        last_t = t
        x = p0 + t * u
        res = float(np.max(np.abs(system.forward(x[None, :]) - x)))
        if res < _POINT_TOL:
            points.append(FixedPoint(tuple(x.tolist()), res, multipliers_at(system, x)))
    return SymmetricScan(points=points, degenerate=False)


# ---------------------------------------------------------------------------
# elliptic-spot arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpotReport:
    q: int
    theta: float
    epsilon: float
    k: int
    det_is_exactly_one: bool
    power_residual: float
    max_return_error: float


def periodic_spot_check(
    q: int,
    theta: float,
    n_samples: int = 100,
    seed: int = 0,
) -> SpotReport:
    """Verify the elliptic-rotation normal behaviour of the spot map.

    For rotation number theta the shear strength is epsilon = (1-cos
    theta)/q, giving the unit-determinant linearization
    M = [[1, 2q], [-epsilon, 1-2q*epsilon]] with eigenvalues e^{±i·theta}.
    When theta is a rational multiple of 2*pi with denominator k, M^k = Id
    and every sampled point returns after k iterations.  The determinant is
    certified with exact rational arithmetic on the float entries.
    """
    if int(q) != q or q < 1:
        raise ConfigError(f"q must be a positive integer, got {q!r}")
    q = int(q)
    if not (0.0 < theta < math.pi):
        raise ConfigError(
            f"theta must lie in (0, pi) so that epsilon is in (0, 2/q), got {theta!r}"
        )
    # Denominators are capped at 1000 so the return time stays a practical
    # iteration count; beyond that the nearest rational can sit within any
    # floating tolerance of an irrational angle and the test would be vacuous.
    frac = Fraction(theta / (2.0 * math.pi)).limit_denominator(1000)
    if abs(float(frac) - theta / (2.0 * math.pi)) > 1e-9:
        raise ConfigError(
            "theta must be a rational multiple of 2*pi (denominator <= 1000) "
            "for the return check"
        )
    k = frac.denominator

    eps = (1.0 - math.cos(theta)) / q
    fe = Fraction(eps)
    det = Fraction(1) * (1 - 2 * q * fe) - Fraction(2 * q) * (-fe)
    M = np.array([[1.0, 2.0 * q], [-eps, 1.0 - 2.0 * q * eps]])
    Mk = np.linalg.matrix_power(M, k)
    power_residual = float(np.max(np.abs(Mk - np.eye(2))))

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-_SPOT_HALFWIDTH, _SPOT_HALFWIDTH, size=(n_samples, 2))
    cur = pts.copy()
    for _ in range(k):
        cur = cur @ M.T
    ret_err = float(np.max(np.abs(cur - pts)))

    return SpotReport(
        q=q,
        theta=float(theta),
        epsilon=float(eps),
        k=k,
        det_is_exactly_one=det == 1,
        power_residual=power_residual,
        max_return_error=ret_err,
    )
