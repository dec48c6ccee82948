"""Planar normal-form vector fields near a weak resonance, and their rescalings.

The central object is the one-parameter family

    dz/dt = -i*mu*z + i*Omega(|z|^2)*z + i*delta*conj(z)^(q-1)
            + i*B*z^(q+1) + i*C*z*conj(z)^q,

a Z_q-equivariant truncated normal form on the complex plane.  In polar-type
coordinates z = sqrt(rho) * exp(i*phi/q) it becomes

    rho_dot = 2 * rho^(q/2) * (delta - (B-C)*rho) * sin(phi),
    phi_dot = q*(Omega(rho) - mu) + q * rho^((q-2)/2) * (delta + (B+C)*rho) * cos(phi).

Zooming into the annulus rho ~ rho0 via

    mu    = Omega(rho0),
    rho   = rho0 - rho0^(q/2) * (2B/Omega1) * V,
    delta = (B-C)*rho0 + (2B/Omega1)*(B-C)*rho0^(q/2) * D,
    s     = 2*(C-B)*rho0^(q/2) * t,

yields a slow system that converges, as rho0 -> 0, to the integrable limit

    dV/ds   = (D + V) * sin(phi),
    dphi/ds = beta * (V - cos(phi)),      beta = q*B/(B-C),

whose orbits are level sets of a closed-form first integral.  This module
implements the fields, the rescaling bookkeeping, the first integral, the
equilibrium catalogue of the limit system, and a fixed-step RK4 integrator
(fixed step so that runs are bit-reproducible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError

# |D + V| is floored at this value before dividing / taking logs in the first
# integral, to keep evaluation finite on the singular line V = -D.
SINGULAR_FLOOR = 1e-12

# Orbit norms beyond this are treated as blow-up and the trajectory truncated.
BLOWUP_NORM = 1e12

DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class NormalFormParams:
    """Coefficients of the resonant normal form.

    ``omega`` holds the Taylor coefficients (Omega_1, Omega_2, ...) of the
    nonlinear rotation Omega(Z) = Omega_1*Z + Omega_2*Z^2 + ...; Omega(0) = 0
    by construction.  ``p``/``q`` define the resonant rotation angle
    2*pi*p/q used by the time-one map built on top of this field.
    """

    q: int
    p: int = 1
    mu: float = 0.0
    delta: float = 0.0
    B: float = 0.0
    C: float = 0.0
    omega: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 3:
            raise ConfigError(f"q must be an integer >= 3, got {self.q!r}")
        if int(self.p) != self.p or self.p < 1:
            raise ConfigError(f"p must be a positive integer, got {self.p!r}")
        if math.gcd(int(self.p), int(self.q)) != 1:
            raise ConfigError(f"p and q must be coprime, got p={self.p}, q={self.q}")
        for name in ("mu", "delta", "B", "C"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"parameter {name} must be finite")
        if len(self.omega) == 0 or not all(math.isfinite(c) for c in self.omega):
            raise ConfigError("omega must be a nonempty tuple of finite coefficients")

    @property
    def rotation_angle(self) -> float:
        """The resonant angle omega = 2*pi*p/q."""
        return 2.0 * math.pi * self.p / self.q


def _omega_coeffs(params: NormalFormParams) -> list:
    """Omega's coefficients from the highest degree down, for :func:`_horner`;
    the first already holds Horner's opening ``0.0 + c``."""
    top, *rest = reversed(params.omega)
    return [0.0 + top, *rest]


def _horner(coeffs, Z):
    """sum_k c_k * Z^k (no constant term) by Horner's rule."""
    acc = coeffs[0] * Z
    for coeff in coeffs[1:]:
        acc = (acc + coeff) * Z
    return acc


def omega_eval(params: NormalFormParams, Z):
    """Evaluate Omega(Z) = sum_k omega[k-1] * Z^k (no constant term)."""
    acc = _horner(_omega_coeffs(params), np.asarray(Z, dtype=float))
    return acc if acc.ndim else float(acc)


def polar_field(rho, phi, params: NormalFormParams):
    """(rho_dot, phi_dot) of the normal form in (rho, phi) coordinates.

    Valid for rho >= 0; the phi equation carries the rho^((q-2)/2) factor and
    stays finite at rho = 0 for q >= 3.
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    q = params.q
    rho_dot = 2.0 * rho ** (q / 2.0) * (params.delta - (params.B - params.C) * rho) * np.sin(phi)
    phi_dot = q * (omega_eval(params, rho) - params.mu) + q * rho ** ((q - 2) / 2.0) * (
        params.delta + (params.B + params.C) * rho
    ) * np.cos(phi)
    if rho_dot.ndim:
        return rho_dot, phi_dot
    return float(rho_dot), float(phi_dot)


@dataclass(frozen=True)
class RescaleResult:
    """Outcome of pinning the annulus rho ~ rho0: tuned (mu, delta), the time
    scale ds/dt, and the shape parameter beta of the limit system."""

    mu: float
    delta: float
    time_scale: float
    beta: float


def rescale(params: NormalFormParams, rho0: float, D: float) -> RescaleResult:
    """Compute (mu, delta, time_scale, beta) for the window at radius rho0.

    mu is set so the nonlinear rotation stalls exactly at rho0, delta places
    the detuning D inside the window, and time_scale = 2*(C-B)*rho0^(q/2) is
    the factor turning t into the slow time s.
    """
    if not (rho0 > 0 and math.isfinite(rho0)):
        raise ConfigError(f"rho0 must be positive, got {rho0!r}")
    if not math.isfinite(D):
        raise ConfigError("D must be finite")
    omega1 = params.omega[0]
    if omega1 == 0.0:
        raise ConfigError("rescaling requires Omega_1 != 0")
    if params.B == params.C:
        raise ConfigError("rescaling requires B != C")
    if params.B == 0.0:
        raise ConfigError("rescaling requires B != 0")
    q = params.q
    BmC = params.B - params.C
    mu = float(omega_eval(params, rho0))
    delta = BmC * rho0 + (2.0 * params.B / omega1) * BmC * rho0 ** (q / 2.0) * D
    time_scale = 2.0 * (params.C - params.B) * rho0 ** (q / 2.0)
    beta = q * params.B / BmC
    return RescaleResult(mu=mu, delta=delta, time_scale=time_scale, beta=beta)


def limit_field(V, phi, D: float, beta: float):
    """(dV/ds, dphi/ds) of the integrable limit system."""
    V = np.asarray(V, dtype=float)
    phi = np.asarray(phi, dtype=float)
    V_dot = (D + V) * np.sin(phi)
    phi_dot = beta * (V - np.cos(phi))
    if V_dot.ndim:
        return V_dot, phi_dot
    return float(V_dot), float(phi_dot)


def rescaled_field(V, phi, params: NormalFormParams, rho0: float, D: float):
    """(dV/ds, dphi/ds) of the *exactly* rescaled normal form (no truncation).

    The polar field is pushed through the window substitutions with mu and
    delta pinned by :func:`rescale`; params.mu / params.delta are ignored.
    The result differs from :func:`limit_field` by O(rho0^((q-2)/2)) uniformly
    on bounded V, which is what the convergence tests measure.
    """
    res = rescale(params, rho0, D)
    q = params.q
    omega1 = params.omega[0]
    scale = rho0 ** (q / 2.0) * (2.0 * params.B / omega1)
    V = np.asarray(V, dtype=float)
    phi = np.asarray(phi, dtype=float)
    rho = rho0 - scale * V
    if np.any(rho <= 0):
        raise NumericsError("rescaled window left rho > 0; shrink the V-range or rho0")
    pinned = NormalFormParams(
        q=params.q, p=params.p, mu=res.mu, delta=res.delta,
        B=params.B, C=params.C, omega=params.omega,
    )
    rho_dot, phi_dot = polar_field(rho, phi, pinned)
    rho_dot = np.asarray(rho_dot, dtype=float)
    phi_dot = np.asarray(phi_dot, dtype=float)
    V_dot_s = -rho_dot / scale / res.time_scale
    phi_dot_s = phi_dot / res.time_scale
    if V_dot_s.ndim:
        return V_dot_s, phi_dot_s
    return float(V_dot_s), float(phi_dot_s)


def first_integral_K(V, phi, D: float, beta: float):
    """First integral constant of the limit system through (V, phi).

    For beta != 1 the orbits satisfy

        cos(phi) + D = (D+V)*beta/(beta-1) + K * |D+V|^beta * sign(D+V),

    and for beta = 1

        cos(phi) + D = K*(D+V) - (D+V)*ln|D+V|.

    The sign-preserving power branch keeps K consistent on both sides of the
    singular line V = -D; |D+V| is floored at SINGULAR_FLOOR before powers
    and logs so the evaluation never produces infinities.
    """
    V = np.asarray(V, dtype=float)
    phi = np.asarray(phi, dtype=float)
    w = D + V
    aw = np.maximum(np.abs(w), SINGULAR_FLOOR)
    sw = np.where(w >= 0, 1.0, -1.0)
    lhs = np.cos(phi) + D
    if abs(beta - 1.0) < 1e-12:
        K = lhs / (sw * aw) + np.log(aw)
    else:
        K = (lhs - w * beta / (beta - 1.0)) / (sw * aw**beta)
    return K if K.ndim else float(K)


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium of the limit system with its local linearization."""

    name: str
    V: float
    phi: float
    eigenvalues: tuple[complex, complex]
    kind: str


def _classify_eigs(e1: complex, e2: complex, tol: float = 1e-9) -> str:
    re1, re2 = e1.real, e2.real
    if abs(re1) <= tol and abs(re2) <= tol:
        return "center" if max(abs(e1.imag), abs(e2.imag)) > tol else "degenerate"
    if re1 < -tol and re2 < -tol:
        return "sink"
    if re1 > tol and re2 > tol:
        return "source"
    if re1 * re2 < 0 and abs(e1.imag) <= tol and abs(e2.imag) <= tol:
        return "saddle"
    return "degenerate"


def _limit_jacobian(V: float, phi: float, D: float, beta: float) -> np.ndarray:
    return np.array(
        [
            [math.sin(phi), (D + V) * math.cos(phi)],
            [beta, beta * math.sin(phi)],
        ]
    )


def equilibria(D: float, beta: float) -> list[Equilibrium]:
    """All equilibria of the limit system for the given (D, beta).

    The symmetric pair O+ = (1, 0) and O- = (-1, pi) exists for every D; the
    asymmetric pair M_a/M_r on the line V = -D (with cos(phi) = -D) exists
    only for |D| < 1 and merges into O+- at |D| = 1.  M_a is the equilibrium
    with sin(phi) < 0.
    """
    if not (math.isfinite(D) and math.isfinite(beta)):
        raise ConfigError("D and beta must be finite")
    located = [("O+", 1.0, 0.0), ("O-", -1.0, math.pi)]
    if abs(D) < 1.0:
        phi_r = math.acos(-D)
        located += [("Ma", -D, -phi_r), ("Mr", -D, phi_r)]
    out = []
    for name, V0, phi0 in located:
        eigs = np.linalg.eigvals(_limit_jacobian(V0, phi0, D, beta))
        e1, e2 = complex(eigs[0]), complex(eigs[1])
        out.append(Equilibrium(name, V0, phi0, (e1, e2), _classify_eigs(e1, e2)))
    return out


@dataclass
class Trajectory:
    """A fixed-step orbit segment.  ``states`` has shape (n+1, dim) (or (n+1,)
    complex); ``blowup`` marks truncation by the norm guard."""

    times: np.ndarray
    states: np.ndarray
    step: float
    blowup: bool = False

    def __len__(self) -> int:
        return len(self.times)


def _constants(dtype, *values):
    """0-d arrays of ``values`` for the arithmetic of inner loops.

    numpy casts a Python or numpy scalar operand to a 0-d array on every
    operation, which costs about half as much again as the operation itself
    on the ~50-point batches of orbit loops; the cast result is the same
    value, so results are unchanged bit for bit.
    """
    return [np.array(v, dtype=dtype) for v in values]


def _step_grid(T: float, step: float) -> tuple[int, float]:
    """Number of steps n and step size h = T/n of the uniform grid over T."""
    if not (step > 0 and math.isfinite(step)):
        raise ConfigError(f"step must be positive, got {step!r}")
    if not math.isfinite(T):
        raise ConfigError(f"T must be finite, got {T!r}")
    n = max(1, math.ceil(abs(T) / step - 1e-12))
    return n, T / n


def _rk4_steps(field, y, n: int, h: float, project=None):
    """Yield the states after each of n classical RK4 steps of size h.

    A generator rather than a one-step function: the stage arrays of one
    step stay alive until the next, so the allocator reuses their buffers.
    Freeing them on return from every step lets malloc hand the pages back
    and fault them in again, about three times the page faults on batches
    of ~10^4 points.
    """
    half, full, sixth, two = _constants(y.dtype, 0.5 * h, h, h / 6.0, 2.0)
    for _ in range(n):
        k1 = field(y)
        k2 = field(y + half * k1)
        k3 = field(y + half * k2)
        k4 = field(y + full * k3)
        y = y + sixth * (k1 + two * k2 + two * k3 + k4)
        if project is not None:
            y = project(y)
        yield y


def integrate(field, x0, T: float, step: float = DEFAULT_STEP) -> Trajectory:
    """Integrate an autonomous field with classical RK4 at a uniform step.

    ``T`` may be negative (backward integration); the actual step is
    T / ceil(|T|/step) so the grid divides T exactly.  When the norm guard
    trips the trajectory is truncated and flagged instead of raising.
    """
    n, h = _step_grid(T, step)
    if T == 0:
        raise ConfigError("T must be nonzero")
    y = np.asarray(x0)
    y = y.astype(complex) if np.iscomplexobj(y) else y.astype(float)
    times = [0.0]
    states = [y]
    blowup = False
    for k, y in enumerate(_rk4_steps(field, y, n, h)):
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > BLOWUP_NORM:
            blowup = True
            break
        times.append((k + 1) * h)
        states.append(y)
    return Trajectory(
        times=np.array(times), states=np.array(states), step=abs(h), blowup=blowup
    )


def flow_map(field, x, T: float, step: float = DEFAULT_STEP, project=None):
    """Endpoint of the RK4 flow; vectorized over a batch of initial states.

    ``x`` may be shape (dim,), (N, dim) or a complex array; non-finite inputs
    propagate to non-finite outputs without raising.  ``project``, when
    given, is applied to the state after every step.
    """
    n, h = _step_grid(T, step)
    y = np.asarray(x)
    y = y.astype(complex) if np.iscomplexobj(y) else y.astype(float)
    if T == 0:
        return y
    with np.errstate(all="ignore"):
        for y in _rk4_steps(field, y, n, h, project):
            pass
    return y


def nf_rhs(params: NormalFormParams):
    """Field callback z -> dz/dt of the normal form (complex scalar or array)."""
    omega = _constants(float, *_omega_coeffs(params))
    (mu,) = _constants(float, params.mu)
    delta, B, C, i = _constants(complex, params.delta, params.B, params.C, 1j)
    q = params.q

    def rhs(z):
        z = np.asarray(z, dtype=complex)
        zc = np.conj(z)
        rho = (z * zc).real
        out = i * (
            (_horner(omega, rho) - mu) * z
            + delta * zc ** (q - 1)
            + B * z ** (q + 1)
            + C * z * zc**q
        )
        return out if out.ndim else complex(out)

    return rhs


def _planar_rhs(field2):
    """Field callback on real 2-vectors (batched ok) from (a, b) -> (a', b')."""

    def rhs(y):
        y = np.asarray(y, dtype=float)
        a_dot, b_dot = field2(y[..., 0], y[..., 1])
        return np.stack(
            [np.asarray(a_dot, dtype=float), np.asarray(b_dot, dtype=float)], axis=-1
        )

    return rhs


def polar_rhs(params: NormalFormParams):
    """Field callback y=(rho, phi) -> dy/dt on real 2-vectors (batched ok)."""
    return _planar_rhs(lambda rho, phi: polar_field(rho, phi, params))


def limit_rhs(D: float, beta: float):
    """Field callback y=(V, phi) -> dy/ds of the limit system."""
    return _planar_rhs(lambda V, phi: limit_field(V, phi, D, beta))
