"""Fixed points of the distillation recurrences and their stability.

Closed-form fixed points where available (binary pairs, BBPSSW, worst case),
Jacobian spectral radii (exact, or central differences for the scalar maps),
log-linear convergence-rate fits, and one fixed-point loop (plain iteration
finished by Newton on the exact Jacobian of the DEJMPS-type maps) whose report
both solvers return: the generic one and the reduced four-variable solver for
the noisy DEJMPS map, which has no damped fallback.

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
    "DEJMPS_START",
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


#: Default start of the reduced DEJMPS iterations: the Werner state of
#: fidelity 0.9 on the correlated support, in ``BELL_ORDER``.
DEJMPS_START = (0.9, 1.0 / 30.0, 1.0 / 30.0, 1.0 / 30.0)


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of a fixed-point search.

    ``residual`` is ||f(p) - p||_1 at the reported location.  ``attracting``
    is None when the iteration did not converge (stability then unknown);
    otherwise it is equivalent to ``lambda_max < 1``, with ``lambda_max`` the
    Jacobian spectral radius (a magnitude) there.  ``iterations_used`` counts
    the map evaluations of the iteration and of a kept Newton polish;
    ``newton_steps`` is the polish's share, 0 when none was kept.
    """

    location: np.ndarray
    residual: float
    attracting: bool | None
    lambda_max: float | None
    iterations_used: int
    newton_steps: int = 0

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


#: A map with an exact Jacobian switches to Newton once a plain step moves
#: the iterate by less than this in 1-norm.
NEWTON_START = 1e-4
_NEWTON_STEPS = 20


def _radius(rmap, p) -> float:
    """Jacobian spectral radius of rmap at p, exact or central-difference."""
    jac = rmap.jac(p) if rmap.jac is not None else _fd_jacobian(rmap, p)
    return float(np.abs(np.linalg.eigvals(jac)).max())


def _report(rmap, p, steps, lam=None, newton=0) -> FixedPointReport:
    """The report at p; lam is the radius there, None if not converged."""
    residual = float(np.abs(rmap(p)[0] - p).sum())
    attracting = None if lam is None else lam < 1.0
    return FixedPointReport(p, residual, attracting, lam, steps, newton)


def _newton(rmap, x, tol, budget, done) -> FixedPointReport | None:
    """At most ``budget`` Newton steps (I - J) dx = G(x) - x from x, after
    ``done`` plain steps.  Once ||G(x) - x||_1 < tol, reports G(x) if the
    exact spectral radius there is < 1; otherwise returns None."""
    eye = np.eye(x.size)
    for step in range(1, budget + 1):
        g = rmap(x)[0]
        if np.abs(g - x).sum() < tol:
            lam = _radius(rmap, g)
            return _report(rmap, g, done + step, lam, step) if lam < 1 else None
        try:
            x = x + np.linalg.solve(eye - rmap.jac(x), g - x)
        except np.linalg.LinAlgError:
            break
    return None


def _iterate(rmap, p0, tol, maxiter) -> FixedPointReport:
    """Iterate q <- G(q) from p0 until ||G(q) - q||_1 < tol, for at most
    maxiter steps, and report on the last G(q).  A map with a ``jac`` tries
    one Newton polish once a step falls below :data:`NEWTON_START`, counted
    against maxiter; a refused polish goes uncounted and the plain
    iteration resumes where it began."""
    q = g = np.asarray(p0, dtype=float)
    polish = rmap.jac is not None
    for step in range(1, maxiter + 1):
        g = rmap(q)[0]
        diff = np.abs(g - q).sum()
        if diff < tol:
            return _report(rmap, g, step, _radius(rmap, g))
        if polish and diff < NEWTON_START:
            polish = False
            report = _newton(rmap, g, tol, min(_NEWTON_STEPS, maxiter - step), step)
            if report is not None:
                return report
        q = g
    return _report(rmap, g, maxiter)


def iterate_to_fixed_point(rmap: RecurrenceMap, p0, tol: float = 1e-12,
                           maxiter: int = 10000) -> FixedPointReport:
    """Iterate a recurrence map until successive iterates differ by < tol
    in 1-norm, finishing with Newton when the map has an exact Jacobian.

    On convergence the report carries the Jacobian spectral radius and the
    attractivity verdict; if maxiter is exhausted first, the report records
    the last residual with attracting=None.  ``tol`` must be finite and
    positive and ``maxiter`` at least 1.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if maxiter < 1:
        raise ValueError("maxiter must be at least 1")
    return _iterate(rmap, p0, tol, maxiter)


def _noise_weight(x, name: str) -> float:
    """x as a float, checked to be a finite noise weight of at most 1."""
    x = float(x)
    if not -math.inf < x <= 1:
        raise ValueError(f"{name} must be finite and at most 1")
    return x


def binary_fixed_point(f0) -> np.ndarray:
    """Distillation fixed point of the binary-pair recurrence,
    (1/2 + sqrt(4 f0 - 3)/(4 f0 - 2), 0, 0, rest); cross entries vanish.

    Real only for 3/4 <= f0 <= 1.
    """
    f0 = _noise_weight(f0, "f0")
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
    double precision.  f0 is a bit-flip weight, so it must be finite and
    at most 1.
    """
    if isinstance(f0, Decimal):
        if not f0.is_finite() or f0 > 1:
            raise ValueError("f0 must be finite and at most 1")
        with localcontext() as ctx:
            ctx.prec = 50
            rad = 4 * f0 - 3
            if rad < 0:
                raise ValueError("domain requires f0 >= 3/4")
            return (f0 * rad.sqrt() - f0) / (2 * f0 - 1)
    f0 = _noise_weight(f0, "f0")
    if 4 * f0 - 3 < 0:
        raise ValueError("domain requires f0 >= 3/4")
    return (f0 * math.sqrt(4 * f0 - 3) - f0) / (2 * f0 - 1)


def _bbpssw_radicand(f) -> tuple:
    """(f, 4 - 9/f^2 + 6/f), checked to admit a BBPSSW fixed point."""
    f = _noise_weight(f, "f")
    if f <= 0 or (rad := 4 - 9 / f ** 2 + 6 / f) < 0:
        raise ValueError("no distillation fixed point (f <= 0 or negative radicand)")
    return f, rad


def bbpssw_fixed_point(f) -> float:
    """BBPSSW Werner-parameter fixed point 2/3 + sqrt(4 - 9/f^2 + 6/f)/3;
    f must be finite, positive and at most 1."""
    _, rad = _bbpssw_radicand(f)
    return 2.0 / 3.0 + math.sqrt(rad) / 3.0


def bbpssw_fixed_point_slope(f) -> float:
    """Derivative b'(p_inf) of the BBPSSW recurrence at its fixed point,
    (9 - 3f) / (f (3 + 2 (2 + sqrt(4 - 9/f^2 + 6/f)) f)); 2/3 at f = 1.
    f must be finite, positive and at most 1."""
    f, rad = _bbpssw_radicand(f)
    return (9 - 3 * f) / (f * (3 + 2 * (2 + math.sqrt(rad)) * f))


def bbpssw_two_qubit_fixed_points(f_tilde) -> tuple:
    """(F_min, F_max) = (3 -+ sqrt(10 - 9/f~^2))/4 of the two-qubit-noise
    fidelity recurrence; requires 3/sqrt(10) <= f~ <= 1."""
    f_tilde = _noise_weight(f_tilde, "f_tilde")
    if f_tilde <= 0 or (rad := 10 - 9 / f_tilde ** 2) < 0:
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


def jacobian_spectral_radius(rmap: RecurrenceMap, p_inf,
                             residual_tol: float = 1e-8) -> float:
    """Spectral radius of the Jacobian of the normalized map at a fixed point.

    The Jacobian is the map's exact ``jac`` where it has one, else the
    central finite difference (step 1e-6).  It is taken in raw coordinates;
    normalization is part of the differentiated function, so the radial
    direction contributes a trivial zero eigenvalue.  A point whose
    residual ||f(p) - p||_1 exceeds ``residual_tol`` is rejected.
    """
    p = np.asarray(p_inf, dtype=float)
    resid = float(np.abs(rmap(p)[0] - p).sum())
    if resid > residual_tol:
        raise ValueError(f"fixed-point residual {resid:.3e} exceeds {residual_tol:.3e}")
    return _radius(rmap, p)


def _fd_jacobian(rmap: RecurrenceMap, p, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of the normalized map at p."""
    return np.array([(rmap(p + d)[0] - rmap(p - d)[0]) / (2 * h)
                     for d in h * np.eye(p.size)]).T


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
        p = rmap(p)[0]
        traj.append(p.copy())
    if p_fix is None:
        p_fix = _iterate(rmap, p, 1e-15, rounds + 1000).location
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


def reduced_noisy_dejmps_fixed_point(noise) -> FixedPointReport:
    """Solve the reduced four-equation fixed-point system of the noisy
    DEJMPS map (XOR flag update) on the correlated support; the report's
    radius is that of the reduced map.

    Plain iteration from :data:`DEJMPS_START`, finished by a Newton polish
    (see :func:`iterate_to_fixed_point`), to a 1-norm step below 1e-13
    within 20000 steps, else NonConvergenceError.  There is no damped
    fallback: at the fold points where plain iteration fails, a damped pass
    failed too.  The result is verified in the full 16-variable map: its
    correlated embedding must be fixed within 1e-10 in 1-norm, else
    NonConvergenceError.
    """
    report = _iterate(reduced_dejmps_map(noise), DEJMPS_START, 1e-13, 20000)
    if not report.converged:
        raise NonConvergenceError("reduced fixed-point iteration did not converge")
    p = np.zeros(16)
    p[CORRELATED_SUPPORT] = report.location
    full, _ = dejmps_noisy_step(p, noise)
    resid = float(np.abs(full - p).sum())
    if resid > 1e-10:
        raise NonConvergenceError(
            f"reduced solution is not a fixed point of the full map (residual {resid:.3e})")
    return report
