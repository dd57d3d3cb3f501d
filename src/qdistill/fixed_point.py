"""Fixed points of the distillation recurrences and their stability.

Closed-form fixed points where available (binary pairs, BBPSSW, worst case),
generic fixed-point iteration with residual reporting, finite-difference
Jacobian spectral radii, log-linear convergence-rate fits, and the reduced
four-variable solver for the noisy DEJMPS map.

Stability statements always refer to the map whose Jacobian is taken.  For
the noisy DEJMPS protocol that is the reduced correlated-support map
(:func:`qdistill.recurrence.reduced_dejmps_map`): the full 16-variable map is
transversally non-contracting at the correlated fixed point (flag
correlations, once broken, do not restore themselves), while the physical
Bell-label dynamics it shares with the reduced map is attracting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .recurrence import RecurrenceMap, reduced_dejmps_map, dejmps_noisy_step
from .quantum_core import CORRELATED_SUPPORT

__all__ = [
    "NonConvergenceError",
    "FixedPointReport",
    "ConvergenceFit",
    "iterate_to_fixed_point",
    "binary_fixed_point",
    "binary_lambda_max",
    "bbpssw_fixed_point",
    "bbpssw_fixed_point_slope",
    "bbpssw_two_qubit_fixed_points",
    "worstcase_fixed_points",
    "worstcase_discriminant",
    "critical_noise",
    "jacobian_spectral_radius",
    "convergence_exponent",
    "reduced_noisy_dejmps_fixed_point",
]


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of a fixed-point search.

    ``residual`` is ||f(p) - p||_1 at the reported location.  ``attracting``
    is None when the iteration did not converge (stability then unknown);
    otherwise it is equivalent to ``lambda_max < 1``, with ``lambda_max`` the
    finite-difference Jacobian spectral radius (a magnitude).
    """

    location: np.ndarray
    residual: float
    attracting: bool | None
    lambda_max: float | None
    iterations_used: int

    @property
    def converged(self) -> bool:
        return self.attracting is not None


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares line log||p_n - p_inf||_1 = intercept + slope * n.

    ``residual`` is the RMS fit residual, ``r_squared`` the coefficient of
    determination, ``n_used`` the number of rounds entering the fit.
    """

    slope: float
    intercept: float
    residual: float
    r_squared: float
    n_used: int

    def power_law(self) -> tuple:
        """Translate to a per-pair error model eps(N) = a * N**(-b).

        Rounds and pair count are related by n = log2(N), so the per-round
        decay exp(slope) becomes the power N**(slope/ln 2).
        """
        return math.exp(self.intercept), -self.slope / math.log(2.0)


def _step_norm(rmap, p):
    out, _ = rmap(p)
    return out


def iterate_to_fixed_point(rmap: RecurrenceMap, p0, tol: float = 1e-12,
                           maxiter: int = 10000) -> FixedPointReport:
    """Iterate a recurrence map until successive iterates differ by < tol
    in 1-norm.

    On convergence the report carries the finite-difference spectral radius
    and the attractivity verdict; if maxiter is exhausted first, the report
    records the last residual with attracting=None.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = np.asarray(p0, dtype=float)
    for it in range(1, maxiter + 1):
        nxt = _step_norm(rmap, p)
        delta = np.abs(nxt - p).sum()
        p = nxt
        if delta < tol:
            residual = float(np.abs(_step_norm(rmap, p) - p).sum())
            lam, _ = jacobian_spectral_radius(rmap, p, residual_tol=max(100 * tol, 1e-8))
            return FixedPointReport(p, residual, lam < 1.0, lam, it)
    residual = float(np.abs(_step_norm(rmap, p) - p).sum())
    return FixedPointReport(p, residual, None, None, maxiter)


def binary_fixed_point(f0) -> np.ndarray:
    """Distillation fixed point of the binary-pair recurrence,
    (1/2 + sqrt(4 f0 - 3)/(4 f0 - 2), 0, 0, rest); cross entries vanish.

    Real only for f0 >= 3/4.
    """
    f0 = float(f0)
    if 4 * f0 - 3 < 0:
        raise ValueError("no real fixed point of this branch for f0 < 3/4")
    q = 0.5 + math.sqrt(4 * f0 - 3) / (4 * f0 - 2)
    return np.array([q, 0.0, 0.0, 1.0 - q])


def binary_lambda_max(f0):
    """Closed-form dominant Jacobian eigenvalue at the binary fixed point,
    (f0 sqrt(4 f0 - 3) - f0)/(2 f0 - 1).

    The value is signed (negative on most of the attracting window);
    attractivity is |value| < 1.  Decimal input is computed in 50-digit
    decimal arithmetic, which matters near f0 = 1 where 1 - f0 underflows
    double precision.
    """
    if isinstance(f0, Decimal):
        with localcontext() as ctx:
            ctx.prec = 50
            rad = 4 * f0 - 3
            if rad < 0:
                raise ValueError("domain requires f0 >= 3/4")
            return (f0 * rad.sqrt() - f0) / (2 * f0 - 1)
    f0 = float(f0)
    if 4 * f0 - 3 < 0:
        raise ValueError("domain requires f0 >= 3/4")
    return (f0 * math.sqrt(4 * f0 - 3) - f0) / (2 * f0 - 1)


def bbpssw_fixed_point(f) -> float:
    """BBPSSW Werner-parameter fixed point 2/3 + sqrt(4 - 9/f^2 + 6/f)/3."""
    f = float(f)
    rad = 4 - 9 / f ** 2 + 6 / f
    if rad < 0:
        raise ValueError("no distillation fixed point (negative radicand)")
    return 2.0 / 3.0 + math.sqrt(rad) / 3.0


def bbpssw_fixed_point_slope(f) -> float:
    """Derivative b'(p_inf) of the BBPSSW recurrence at its fixed point,
    (9 - 3f) / (f (3 + 2 (2 + sqrt(4 - 9/f^2 + 6/f)) f)); 2/3 at f = 1."""
    f = float(f)
    rad = 4 - 9 / f ** 2 + 6 / f
    if rad < 0:
        raise ValueError("no distillation fixed point (negative radicand)")
    return (9 - 3 * f) / (f * (3 + 2 * (2 + math.sqrt(rad)) * f))


def bbpssw_two_qubit_fixed_points(f_tilde) -> tuple:
    """(F_min, F_max) = (3 -+ sqrt(10 - 9/f~^2))/4 of the two-qubit-noise
    fidelity recurrence; requires f~ >= 3/sqrt(10)."""
    f_tilde = float(f_tilde)
    rad = 10 - 9 / f_tilde ** 2
    if rad < 0:
        raise ValueError("domain requires f_tilde >= 3/sqrt(10)")
    s = math.sqrt(rad)
    return (3 - s) / 4, (3 + s) / 4


def worstcase_fixed_points(f_i) -> np.ndarray:
    """Real roots (ascending) of the worst-case fixed-point cubic
    8 f_I F^3 - 14 f_I F^2 + (9 - 2 f_I) F - f_I = 0, Newton-polished so
    each satisfies the cubic within 1e-10."""
    f_i = float(f_i)
    if f_i <= 0:
        raise ValueError("f_i must be positive")
    coeffs = [8 * f_i, -14 * f_i, 9 - 2 * f_i, -f_i]

    def g(x):
        return ((coeffs[0] * x + coeffs[1]) * x + coeffs[2]) * x + coeffs[3]

    def gprime(x):
        return (3 * coeffs[0] * x + 2 * coeffs[1]) * x + coeffs[2]

    roots = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-9:
            continue
        x = float(r.real)
        for _ in range(4):
            d = gprime(x)
            if d == 0:
                break
            x -= g(x) / d
        roots.append(x)
    return np.array(sorted(roots))


def worstcase_discriminant(f_i):
    """Discriminant -36 (648 f_I - 873 f_I^2 - 212 f_I^3 + 436 f_I^4) of the
    worst-case cubic; positive iff three distinct real fixed points.

    Fraction input is evaluated exactly (e.g. the value at f_I = 1 is the
    integer 36)."""
    if isinstance(f_i, Fraction):
        return -36 * (648 * f_i - 873 * f_i ** 2 - 212 * f_i ** 3 + 436 * f_i ** 4)
    f_i = float(f_i)
    return -36.0 * (648 * f_i - 873 * f_i ** 2 - 212 * f_i ** 3 + 436 * f_i ** 4)


def critical_noise() -> float:
    """Root of the worst-case discriminant in (0.9, 1), located by bisection
    to ~1e-12 (the tolerance for three real fixed points to exist)."""
    lo, hi = 0.9, 1.0
    flo, fhi = worstcase_discriminant(lo), worstcase_discriminant(hi)
    if not (flo < 0 < fhi):
        raise NonConvergenceError("discriminant bracket failure on (0.9, 1)")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = worstcase_discriminant(mid)
        if fmid == 0:
            return mid
        if fmid < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def jacobian_spectral_radius(rmap: RecurrenceMap, p_inf, h: float = 1e-6,
                             residual_tol: float = 1e-8) -> tuple:
    """Spectral radius of the central finite-difference Jacobian of the
    normalized map at a fixed point, plus the Jacobian itself.

    The Jacobian is taken in raw coordinates; normalization is part of the
    differentiated function, so the radial direction contributes a trivial
    zero eigenvalue.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    p = np.asarray(p_inf, dtype=float)
    resid = float(np.abs(_step_norm(rmap, p) - p).sum())
    if resid > residual_tol:
        raise ValueError(f"fixed-point residual {resid:.3e} exceeds {residual_tol:.3e}")
    n = p.size
    jac = np.zeros((n, n))
    for c in range(n):
        pp = p.copy()
        pm = p.copy()
        pp[c] += h
        pm[c] -= h
        jac[:, c] = (_step_norm(rmap, pp) - _step_norm(rmap, pm)) / (2 * h)
    radius = float(np.abs(np.linalg.eigvals(jac)).max())
    return radius, jac


def convergence_exponent(rmap: RecurrenceMap, p0, rounds: int,
                         p_fix=None) -> ConvergenceFit:
    """Fit log||p_n - p_inf||_1 = a + b*n over a trajectory.

    Rounds whose error has fallen below 100 machine epsilons are excluded
    (they are noise-dominated); at least 10 usable rounds are required.  If
    the limit is not supplied it is obtained by iterating well past
    ``rounds``.
    """
    p = np.asarray(p0, dtype=float)
    traj = []
    for _ in range(rounds):
        p = _step_norm(rmap, p)
        traj.append(p.copy())
    if p_fix is None:
        q = p
        for _ in range(rounds + 1000):
            nxt = _step_norm(rmap, q)
            if np.abs(nxt - q).sum() < 1e-15:
                q = nxt
                break
            q = nxt
        p_fix = q
    p_fix = np.asarray(p_fix, dtype=float)
    errs = np.array([np.abs(t - p_fix).sum() for t in traj])
    ns = np.arange(1, rounds + 1)
    mask = errs > 100 * np.finfo(float).eps
    if mask.sum() < 10:
        raise ValueError("too few usable rounds for a convergence fit")
    x = ns[mask].astype(float)
    y = np.log(errs[mask])
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ConvergenceFit(float(coef[1]), float(coef[0]),
                          math.sqrt(ss_res / mask.sum()), r2, int(mask.sum()))


def reduced_noisy_dejmps_fixed_point(noise, u=None, tol: float = 1e-13,
                                     maxiter: int = 20000,
                                     damping: float = 0.5,
                                     q0=None) -> np.ndarray:
    """Solve the reduced four-equation fixed-point system of the noisy
    DEJMPS map on the correlated support.

    Damped iteration q <- (1-d) q + d G(q) with d = 0.5 for robustness near
    the attractivity boundary, with a plain-iteration fallback.  The result
    is verified in the full 16-variable map: its correlated embedding must
    be fixed within 1e-10 in 1-norm, else NonConvergenceError.
    """
    rmap = reduced_dejmps_map(noise, u)
    start = np.array([0.9, 1 / 30, 1 / 30, 1 / 30]) if q0 is None else np.asarray(q0, float)
    for d in (damping, 0.0):
        q = start.copy()
        converged = False
        for _ in range(maxiter):
            g = _step_norm(rmap, q)
            if np.abs(g - q).sum() < tol:
                q = g
                converged = True
                break
            q = (1 - d) * q + d * g if d else g
        if converged:
            break
    if not converged:
        raise NonConvergenceError("reduced fixed-point iteration did not converge")
    p = np.zeros(16)
    p[CORRELATED_SUPPORT] = q
    full, _ = dejmps_noisy_step(p, noise, u)
    resid = float(np.abs(full - p).sum())
    if resid > 1e-10:
        raise NonConvergenceError(
            f"reduced solution is not a fixed point of the full map (residual {resid:.3e})")
    return q
