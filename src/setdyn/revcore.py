"""Reversibility checks, symmetric fixed points, and multiplier reciprocity.

A map f is reversible when an involution g (g∘g = id) conjugates it to its
inverse: f^{-1} = g∘f∘g.  Fixed points on Fix(g) then come with reciprocal
multiplier pairs (lambda, 1/lambda); on the unit circle that means elliptic
points e^{±i·omega}.  This module verifies the conjugacy numerically, scans
the fixed set of the involution for symmetric fixed/periodic points, and
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


# ---------------------------------------------------------------------------
# reversibility verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReversibilityReport:
    max_residual: float
    involution_residual: float
    n_samples: int
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
    involution=None,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
) -> ReversibilityReport:
    """Check f^{-1} = g∘f∘g (and g∘g = id) on random sample points."""
    g = involution or system.involution
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
        n_samples=n_samples,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierPair:
    lam: complex
    partner: complex
    pairing_error: float


@dataclass(frozen=True)
class MultiplierReport:
    eigenvalues: tuple
    pairs: tuple
    kind: str

    @property
    def max_pairing_error(self) -> float:
        return max((p.pairing_error for p in self.pairs), default=math.inf)


def _map_jacobian(system: MapSystem, x: np.ndarray, period: int) -> np.ndarray:
    """Richardson-extrapolated central-difference Jacobian of f^period."""
    dim = system.dim
    x = np.asarray(x, dtype=float).reshape(dim)

    def jac(h: float) -> np.ndarray:
        cols = []
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            hi = system.iterate((x + e)[None, :], period)[0]
            lo = system.iterate((x - e)[None, :], period)[0]
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


def multipliers_at(system: MapSystem, x, period: int = 1) -> MultiplierReport:
    """Multipliers of f^period at a (periodic) point, with reciprocal pairing.

    Each eigenvalue is paired with the one minimizing |lambda * partner - 1|;
    for reversible maps at symmetric points the pairing errors should vanish
    to discretization accuracy.
    """
    if period < 1:
        raise ConfigError("period must be >= 1")
    J = _map_jacobian(system, x, period)
    eigs = np.linalg.eigvals(J)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    pairs = []
    for lam in eigs:
        errs = np.abs(eigs * lam - 1.0)
        jbest = int(np.argmin(errs))
        pairs.append(MultiplierPair(complex(lam), complex(eigs[jbest]), float(errs[jbest])))
    return MultiplierReport(
        eigenvalues=tuple(complex(e) for e in eigs),
        pairs=tuple(pairs),
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


def find_fixed_points(
    system: MapSystem,
    n_grid: int = 4096,
    refine_tol: float = 1e-10,
    accept_tol: float = 1e-12,
) -> list[FixedPoint]:
    """All fixed points of a one-dimensional map, including tangential ones.

    Transversal roots come from sign changes of the displacement f(x) - x;
    semi-stable points, where the displacement touches zero without changing
    sign, come from sign changes of its derivative whose displacement value
    is below ``accept_tol``.  Roots are bisected to ``refine_tol``.
    """
    if system.dim != 1:
        raise ConfigError("find_fixed_points handles one-dimensional systems; "
                          "use find_symmetric_fixed_points in higher dimension")
    lo, hi = system.domain.lower[0], system.domain.upper[0]
    per = system.domain.periodic[0]
    xs = np.linspace(lo, hi, n_grid, endpoint=not per)
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
        b = xs[(i + 1) % len(xs)] if per and i == len(xs) - 1 else xs[min(i + 1, len(xs) - 1)]
        if per and i == len(xs) - 1:
            b = hi  # wrap segment [last grid point, upper == lower]
        da, db = d[i], d[(i + 1) % len(xs)]
        if da == 0.0:
            roots.append(float(a))
            continue
        if da * db < 0:
            roots.append(_bisect(disp, a, b, refine_tol))
        else:
            pa, pb = dprime(a), dprime(b)
            if pa * pb < 0:
                t = _bisect(dprime, a, b, refine_tol)
                if abs(disp(t)) < accept_tol:
                    roots.append(t)
    if not per and abs(d[-1]) < accept_tol:
        roots.append(float(xs[-1]))

    out: list[FixedPoint] = []
    spacing = (hi - lo) / n_grid
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


@dataclass(frozen=True)
class SymmetricPoint:
    location: tuple
    period: int
    residual: float
    multipliers: MultiplierReport


@dataclass
class SymmetricScan:
    points: list[SymmetricPoint]
    degenerate: bool
    n_grid: int
    searched: str


def find_symmetric_fixed_points(
    system: MapSystem,
    involution=None,
    fixed_set: dict | None = None,
    period: int = 1,
    n_grid: int = 2048,
    refine_tol: float = 1e-10,
    point_tol: float = 1e-8,
) -> SymmetricScan:
    """Scan Fix(g) for symmetric fixed (or periodic) points of f^period.

    The fixed set must be described as a point or a parameterized line
    (see MapSystem.involution_fixed).  Candidates are parameters t where
    f^period maps the curve point back onto the fixed set; a candidate is a
    fixed point when the full displacement lands within ``point_tol``.
    When more than half the grid already consists of fixed points the map is
    degenerate along the curve (e.g. the identity) and the scan reports that
    instead of an arbitrary subset.
    """
    g = involution or system.involution
    desc = fixed_set or system.involution_fixed
    if desc is None:
        raise ConfigError(
            "no fixed-set description available; pass fixed_set= explicitly"
        )
    if g is None:
        raise ConfigError("system has no involution; pass involution= explicitly")

    if desc["kind"] == "point":
        p = np.asarray(desc["point"], dtype=float)
        res = _full_residual(system, p[None, :], period)[0]
        pts = []
        if res < point_tol:
            pts.append(
                SymmetricPoint(tuple(p.tolist()), period, float(res), multipliers_at(system, p, period))
            )
        return SymmetricScan(points=pts, degenerate=False, n_grid=1, searched="point")

    if desc["kind"] != "line":
        raise ConfigError(f"unsupported fixed-set kind {desc['kind']!r}")

    p0 = np.asarray(desc["point"], dtype=float)
    u = np.asarray(desc["direction"], dtype=float)
    t0, t1 = desc["range"]
    normal = np.array([-u[1], u[0]]) / math.hypot(u[0], u[1])

    ts = np.linspace(t0, t1, n_grid)
    curve = p0[None, :] + ts[:, None] * u[None, :]
    image = system.iterate(curve, period)
    disp_full = np.max(np.abs(image - curve), axis=1)
    if np.mean(disp_full < point_tol) > 0.5:
        pts = [
            SymmetricPoint(
                tuple(curve[i].tolist()), period, float(disp_full[i]), multipliers_at(system, curve[i], period)
            )
            for i in range(0, n_grid, max(1, n_grid // 16))
        ]
        return SymmetricScan(points=pts, degenerate=True, n_grid=n_grid, searched="line")

    s = (image - p0[None, :]) @ normal  # signed distance of image from Fix(g)

    def s_of(t: float) -> float:
        x = p0 + t * u
        y = system.iterate(x[None, :], period)[0]
        return float((y - p0) @ normal)

    roots: list[float] = []
    for i in range(n_grid - 1):
        if s[i] == 0.0:
            roots.append(float(ts[i]))
        elif s[i] * s[i + 1] < 0:
            roots.append(_bisect(s_of, float(ts[i]), float(ts[i + 1]), refine_tol))
    if s[-1] == 0.0:
        roots.append(float(ts[-1]))

    spacing = (t1 - t0) / n_grid
    points: list[SymmetricPoint] = []
    last_t = None
    for t in sorted(roots):
        if last_t is not None and abs(t - last_t) < 2 * spacing:
            continue
        last_t = t
        x = p0 + t * u
        res = _full_residual(system, x[None, :], period)[0]
        if res < point_tol:
            points.append(
                SymmetricPoint(tuple(x.tolist()), period, float(res), multipliers_at(system, x, period))
            )
    return SymmetricScan(points=points, degenerate=False, n_grid=n_grid, searched="line")


def _full_residual(system: MapSystem, pts: np.ndarray, period: int) -> np.ndarray:
    image = system.iterate(pts, period)
    return np.max(np.abs(image - pts), axis=1)


# ---------------------------------------------------------------------------
# elliptic-spot arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpotReport:
    q: int
    theta: float
    epsilon: float
    k: int
    matrix: tuple
    det_is_exactly_one: bool
    power_residual: float
    max_return_error: float
    n_samples: int


def periodic_spot_check(
    q: int,
    theta: float,
    n_samples: int = 100,
    seed: int = 0,
    halfwidth: float = 0.25,
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
    pts = rng.uniform(-halfwidth, halfwidth, size=(n_samples, 2))
    cur = pts.copy()
    for _ in range(k):
        cur = cur @ M.T
    ret_err = float(np.max(np.abs(cur - pts)))

    return SpotReport(
        q=q,
        theta=float(theta),
        epsilon=float(eps),
        k=k,
        matrix=tuple(map(tuple, M.tolist())),
        det_is_exactly_one=det == 1,
        power_residual=power_residual,
        max_return_error=ret_err,
        n_samples=n_samples,
    )
