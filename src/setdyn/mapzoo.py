"""Builtin discrete-time systems and the container type they share.

Every system exposes the same vectorized interface: ``forward`` (and
``inverse`` when available) take arrays of shape (..., dim) and return the
same shape.  Systems built from flows use classical fixed-step RK4 for the
time-1 map, with a radial clamp so the stated rectangular domain is mapped
into itself, and map their points in blocks (:func:`_in_blocks`) so that a
point's image has the same bits in any batch; systems without a closed-form
inverse fall back to a safeguarded Newton solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import flows
from .boxdyn import Domain
from .errors import ConfigError, NumericsError

NEWTON_TOL = 1e-12
NEWTON_MAXIT = 50

# largest round-trip residual that check_inverse_consistency passes
_ROUNDTRIP_TOL = 1e-9


@dataclass
class MapSystem:
    """A discrete-time system over a rectangular domain.

    ``involution_fixed`` describes the fixed set of the involution, when one
    is known, as a dict: {"kind": "line", "point": p, "direction": u,
    "range": (t0, t1)} for the curve p + t*u.  ``sample_region`` bounds the
    region where round-trip and symmetry identities are exact (inside any
    boundary clamp); sampling helpers default to it.
    ``forward_inverse(a, b)``, when given, returns ``(forward(a),
    inverse(b))`` with the same bits from one batched call; nf_timeq has it,
    because on the trap's small batches numpy's per-call overhead dominates,
    and one call over both costs far less than two.
    """

    name: str
    dim: int
    params: dict
    domain: Domain
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray] | None = None
    forward_inverse: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    involution: Callable[[np.ndarray], np.ndarray] | None = None
    involution_fixed: dict | None = None
    lipschitz_hint: float | None = None
    sample_region: Domain | None = None
    extras: dict = field(default_factory=dict)

    def sample_points(self, n: int, seed: int = 0) -> np.ndarray:
        """Deterministic uniform sample of the sample region (or the domain)."""
        region = self.sample_region or self.domain
        rng = np.random.default_rng(seed)
        lo = np.asarray(region.lower)
        hi = np.asarray(region.upper)
        return lo + (hi - lo) * rng.random((n, self.dim))

    def iterate(self, pts: np.ndarray, n_steps: int) -> np.ndarray:
        out = np.asarray(pts, dtype=float)
        for _ in range(n_steps):
            out = self.forward(out)
        return out


@dataclass(frozen=True)
class InverseReport:
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tol


def check_inverse_consistency(
    system: MapSystem,
    n_samples: int = 100,
    seed: int = 0,
) -> InverseReport:
    """Max round-trip residual of inverse(forward(x)) over random samples of
    the system's sample region."""
    if system.inverse is None:
        raise ConfigError(f"system {system.name!r} has no inverse")
    pts = system.sample_points(n_samples, seed=seed)
    back = system.inverse(system.forward(pts))
    err = float(np.max(system.domain.distance(back, system.domain.wrap(pts))))
    return InverseReport(max_error=err, tol=_ROUNDTRIP_TOL)


# ---------------------------------------------------------------------------
# shared numerics
# ---------------------------------------------------------------------------


def newton_inverse_1d(
    f: Callable[[np.ndarray], np.ndarray],
    fprime: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    x0: np.ndarray,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Vectorized safeguarded Newton solve of f(x) = y on [lo, hi], to a
    residual below NEWTON_TOL in at most NEWTON_MAXIT steps.

    Iterates are clipped to the bracket, which keeps the solve stable for
    monotone maps whose derivative is bounded away from zero on the bracket.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    y = np.asarray(y, dtype=float)
    for _ in range(NEWTON_MAXIT):
        r = f(x) - y
        if np.max(np.abs(r)) < NEWTON_TOL:
            break
        x = np.clip(x - r / fprime(x), lo, hi)
    else:
        r = f(x) - y
        if np.max(np.abs(r)) >= NEWTON_TOL * 10:
            raise NumericsError(
                f"inverse Newton solve did not reach {NEWTON_TOL} in {NEWTON_MAXIT} iterations"
            )
    return x


def _clamped_time_map(field, step: float, rmax: float):
    """RK4 time-T map ``(z, T) -> z(T)`` of a planar field with a per-step
    radial clamp.

    Works on complex arrays, and ``T`` may be per point (see
    :func:`flows.flow_map`); the clamp rescales any point beyond |z| = rmax
    back onto that circle after each RK4 step, so balls around the origin of
    radius rmax are invariant by construction.
    """
    (rmax,) = flows._constants(float, rmax)

    def clamp(z):
        r = np.abs(z)
        over = r > rmax
        if np.count_nonzero(over):
            z = np.where(over, z * (rmax / np.where(over, r, 1.0)), z)
        return z

    return lambda z, T: flows.flow_map(field, z, T, step, project=clamp)


# numpy reuses a temporary of 256 KiB or more in place (16,384 complex128
# points) and may swap a commutative multiply's operands to do so.  The
# fused multiply-add complex kernel is not bitwise commutative, so a batch
# that large rounds some points differently from the same points in parts.
_BLOCK_POINTS = 16384


def _in_blocks(fn):
    """``fn`` on point arrays (..., dim), run over the fewest equal blocks
    whose joint size stays below _BLOCK_POINTS, so that every point gets the
    same bits whatever batch it comes in.

    ``fn`` returns one array, or a tuple with one array per argument; block
    j of each argument goes into the j-th call.
    """

    def run(*batches):
        batches = [np.asarray(b, dtype=float) for b in batches]
        sizes = [b.size // b.shape[-1] for b in batches]
        k = max(1, -(-sum(sizes) // (_BLOCK_POINTS - 1)))
        while sum(-(-m // k) for m in sizes) >= _BLOCK_POINTS:
            k += 1
        if k == 1:
            return fn(*batches)
        parts = [np.array_split(b.reshape(-1, b.shape[-1]), k) for b in batches]
        outs = [fn(*block) for block in zip(*parts)]
        if len(batches) == 1:
            return np.concatenate(outs).reshape(batches[0].shape)
        return tuple(np.concatenate(col).reshape(b.shape) for col, b in zip(zip(*outs), batches))

    return run


def _to_complex(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    return pts[..., 0] + 1j * pts[..., 1]


def _from_complex(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag], axis=-1)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_cat_map(params: dict) -> MapSystem:
    domain = Domain((0.0, 0.0), (1.0, 1.0), (True, True))

    # each writes into one output array: np.stack costs more than the map
    # itself on the few points of a noisy orbit step
    def forward(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        out = np.empty(pts.shape)
        np.remainder(2.0 * x + y, 1.0, out=out[..., 0])
        np.remainder(x + y, 1.0, out=out[..., 1])
        return out

    def inverse(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        out = np.empty(pts.shape)
        np.remainder(x - y, 1.0, out=out[..., 0])
        np.remainder(-x + 2.0 * y, 1.0, out=out[..., 1])
        return out

    return MapSystem(
        name="cat_map",
        dim=2,
        params=params,
        domain=domain,
        forward=forward,
        inverse=inverse,
        lipschitz_hint=3.0,
    )


def _build_circle_semistable(params: dict) -> MapSystem:
    """Circle map phi -> phi + sin^2(phi/2): a single semistable fixed point
    at phi = 0 (attracting from below, repelling from above)."""
    two_pi = 2.0 * math.pi
    domain = Domain((0.0,), (two_pi,), (True,))

    def displacement(phi):
        return np.sin(0.5 * phi) ** 2

    def forward(pts):
        phi = np.asarray(pts, dtype=float)[..., 0]
        return ((phi + displacement(phi)) % two_pi)[..., None]

    def lift(u):
        return u + displacement(u)

    def lift_prime(u):
        return 1.0 + 0.5 * np.sin(u)

    def inverse(pts):
        phi = np.asarray(pts, dtype=float)[..., 0] % two_pi
        # the lift is increasing with displacement in [0, 1], so the preimage
        # of phi lies in [phi - 1, phi]
        u = newton_inverse_1d(lift, lift_prime, phi, phi - 0.5, -1.5, two_pi)
        return (u % two_pi)[..., None]

    return MapSystem(
        name="circle_semistable",
        dim=1,
        params=params,
        domain=domain,
        forward=forward,
        inverse=inverse,
        lipschitz_hint=1.5,
    )


def _build_cubic_interval(params: dict) -> MapSystem:
    a = params["a"]
    if not (0.0 < a < 0.5):
        raise ConfigError(f"cubic parameter a must lie in (0, 0.5), got {a}")
    domain = Domain((-1.0,), (1.0,), (False,))

    def f(x):
        return x + a * x * (1.0 - x * x)

    def fprime(x):
        return 1.0 + a - 3.0 * a * x * x

    def forward(pts):
        x = np.asarray(pts, dtype=float)[..., 0]
        return f(x)[..., None]

    def inverse(pts):
        y = np.asarray(pts, dtype=float)[..., 0]
        x = newton_inverse_1d(f, fprime, y, y, -1.0, 1.0)
        return x[..., None]

    return MapSystem(
        name="cubic_interval",
        dim=1,
        params=params,
        domain=domain,
        forward=forward,
        inverse=inverse,
        lipschitz_hint=1.0 + a,
    )


_RINGS_RMAX = 1.25


def _rings_field(z):
    """Planar field with every circle r = 1/n invariant: the radial speed is
    r*sin(pi/r), zero exactly on those rings, alternating sign between them."""
    r = np.abs(z)
    a = np.where(r > 1e-9, r * np.sin(np.pi / np.where(r > 1e-9, r, 1.0)), 0.0)
    return (a + 1j) * z


def _build_nested_rings(params: dict) -> MapSystem:
    step = params["step"]
    if not (0 < step <= 0.5):
        raise ConfigError(f"integration step must lie in (0, 0.5], got {step}")
    domain = Domain((-_RINGS_RMAX, -_RINGS_RMAX), (_RINGS_RMAX, _RINGS_RMAX), (False, False))
    flow = _clamped_time_map(_rings_field, step, _RINGS_RMAX)

    def forward(pts):
        return _from_complex(flow(_to_complex(pts), 1.0))

    def inverse(pts):
        return _from_complex(flow(_to_complex(pts), -1.0))

    return MapSystem(
        name="nested_rings",
        dim=2,
        params=params,
        domain=domain,
        forward=_in_blocks(forward),
        inverse=_in_blocks(inverse),
        sample_region=Domain((-0.7, -0.7), (0.7, 0.7), (False, False)),
    )


def _build_nf_timeq(params: dict) -> MapSystem:
    nf = flows.NormalFormParams(
        q=params["q"],
        p=params["p"],
        mu=params["mu"],
        delta=params["delta"],
        B=params["B"],
        C=params["C"],
        omega=(params["omega1"], params["omega2"], params["omega3"]),
    )
    step = params["step"]
    radius = params["radius"]
    if not (0 < step <= 0.5):
        raise ConfigError(f"integration step must lie in (0, 0.5], got {step}")
    if not (0 < radius < 10):
        raise ConfigError(f"clamp radius must lie in (0, 10), got {radius}")

    domain = Domain((-radius, -radius), (radius, radius), (False, False))
    fld = flows.nf_rhs(nf)
    flow = _clamped_time_map(fld, step, radius)
    ang = nf.rotation_angle
    rot = complex(math.cos(ang), math.sin(ang))
    rot_inv = complex(math.cos(ang), -math.sin(ang))

    def forward(pts):
        return _from_complex(rot * flow(_to_complex(pts), 1.0))

    def inverse(pts):
        return _from_complex(flow(rot_inv * _to_complex(pts), -1.0))

    def forward_inverse(fwd_pts, bwd_pts):
        # one flow call over both blocks, with T = +1 and -1 per block
        n = len(fwd_pts)
        z = np.concatenate([_to_complex(fwd_pts), rot_inv * _to_complex(bwd_pts)])
        z = flow(z, np.repeat(np.array([1.0, -1.0]), [n, len(bwd_pts)]))
        return _from_complex(rot * z[:n]), _from_complex(z[n:])

    def involution(pts):
        pts = np.asarray(pts, dtype=float)
        return np.stack([pts[..., 0], -pts[..., 1]], axis=-1)

    half = 0.63 * radius
    return MapSystem(
        name="nf_timeq",
        dim=2,
        params=params,
        domain=domain,
        forward=_in_blocks(forward),
        inverse=_in_blocks(inverse),
        forward_inverse=_in_blocks(forward_inverse),
        involution=involution,
        involution_fixed={
            "kind": "line",
            "point": (0.0, 0.0),
            "direction": (1.0, 0.0),
            "range": (-half, half),
        },
        sample_region=Domain((-half, -half), (half, half), (False, False)),
        extras={"normal_form": nf},
    )


def _build_periodic_spot(params: dict) -> MapSystem:
    q = params["q"]
    eps = params["epsilon"]
    phi_star = params["phi_star"]
    if not (0.0 < eps < 2.0 / q):
        raise ConfigError(
            f"epsilon must lie in (0, {2.0 / q}) for q={q}, got {eps}"
        )
    z_half = 0.5 / q
    domain = Domain(
        (phi_star - 1.0, -z_half), (phi_star + 1.0, z_half), (False, False)
    )

    def forward(pts):
        pts = np.asarray(pts, dtype=float)
        u = pts[..., 0] - phi_star
        z = pts[..., 1]
        return np.stack(
            [phi_star + u + 2.0 * q * z, -eps * u + (1.0 - 2.0 * q * eps) * z], axis=-1
        )

    def inverse(pts):
        pts = np.asarray(pts, dtype=float)
        u = pts[..., 0] - phi_star
        z = pts[..., 1]
        return np.stack(
            [phi_star + (1.0 - 2.0 * q * eps) * u - 2.0 * q * z, eps * u + z], axis=-1
        )

    def involution(pts):
        pts = np.asarray(pts, dtype=float)
        u = pts[..., 0] - phi_star
        return np.stack([pts[..., 0], -eps * u - pts[..., 1]], axis=-1)

    u_max = min(1.0, 1.0 / (q * eps))
    return MapSystem(
        name="periodic_spot",
        dim=2,
        params=params,
        domain=domain,
        forward=forward,
        inverse=inverse,
        involution=involution,
        involution_fixed={
            "kind": "line",
            "point": (phi_star, 0.0),
            "direction": (1.0, -eps / 2.0),
            "range": (-u_max, u_max),
        },
        lipschitz_hint=1.0 + 2.0 * q,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_DEFAULTS: dict[str, dict] = {
    "cat_map": {},
    "circle_semistable": {},
    "cubic_interval": {"a": 0.25},
    "nested_rings": {"step": 0.01},
    "nf_timeq": {
        "q": 5,
        "p": 1,
        "mu": 0.05,
        "delta": 0.1,
        "B": 1.0,
        "C": -1.0,
        "omega1": 1.0,
        "omega2": 0.0,
        "omega3": 0.0,
        "step": 1e-3,
        "radius": 0.15,
    },
    "periodic_spot": {"q": 3, "epsilon": 0.2, "phi_star": 0.0},
}

_INT_PARAMS = {"q", "p"}

_BUILDERS = {
    "cat_map": _build_cat_map,
    "circle_semistable": _build_circle_semistable,
    "cubic_interval": _build_cubic_interval,
    "nested_rings": _build_nested_rings,
    "nf_timeq": _build_nf_timeq,
    "periodic_spot": _build_periodic_spot,
}


def list_systems() -> list[str]:
    return sorted(_BUILDERS)


def make_system(name: str, params: dict | None = None) -> MapSystem:
    """Build a registered system, validating and merging parameters."""
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown system {name!r}; available: {', '.join(list_systems())}"
        )
    merged = dict(_DEFAULTS[name])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ConfigError(f"system {name!r} has no parameter {key!r}")
        merged[key] = value
    for key, value in merged.items():
        try:
            num = float(value)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"parameter {key!r} must be a number, got {value!r}") from e
        if not math.isfinite(num):
            raise ConfigError(f"parameter {key!r} must be finite, got {value}")
        if key in _INT_PARAMS and num != int(num):
            raise ConfigError(f"parameter {key!r} must be an integer, got {value}")
        merged[key] = int(num) if key in _INT_PARAMS else num
    return _BUILDERS[name](merged)
