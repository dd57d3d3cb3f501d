"""Fixed points of the distillation recurrences and their stability.

Closed-form fixed points where available (binary pairs, BBPSSW, worst case),
Jacobian spectral radii from each map's exact Jacobian, log-linear
convergence-rate fits, and one fixed-point loop (plain iteration handed to
Newton on the exact Jacobian once it is close or slow, each Newton step one
linearization of the map) whose report both solvers return: the generic
one and the reduced four-variable noisy DEJMPS solver (no full-map check).

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

from .recurrence import RecurrenceMap, reduced_dejmps_map, trajectory

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
    ``newton_steps`` is the polish's share, 0 when none was kept.  Newton
    iterates are clipped at 0 before the map is evaluated there.
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


#: The loop switches to Newton once a plain step moves the iterate by less
#: than NEWTON_START in 1-norm (close), or by less than NEWTON_SLOW and more
#: than half the step before (slow, as near the noise threshold).
NEWTON_START = 1e-4
NEWTON_SLOW = 1e-2
_NEWTON_STEPS = 20
#: :func:`jacobian_spectral_radius` rejects a point with a larger residual.
_RESIDUAL_TOL = 1e-8


def _distance(a, b) -> float:
    """||a - b||_1, summed in Python: ``ndarray.sum`` costs more on 4-vectors."""
    return sum(np.abs(a - b).tolist())


def _radius(jac) -> float:
    """Spectral radius of a Jacobian."""
    return float(np.abs(np.linalg.eigvals(jac)).max())


def _report(rmap, p, steps, converged=True, newton=0) -> FixedPointReport:
    """The report at p from one linearization of rmap there; radius and
    verdict are None if not converged."""
    g, jac = rmap.linearize(p)
    lam = _radius(jac) if converged else None
    attracting = lam < 1.0 if converged else None
    return FixedPointReport(p, _distance(g, p), attracting, lam, steps, newton)


def _newton(rmap, x, tol, budget, done) -> FixedPointReport | None:
    """At most ``budget`` Newton steps (I - J) dx = G(x) - x from x, after
    ``done`` plain steps, each iterate clipped at 0 and linearized once.
    Once ||G(x) - x||_1 < tol and G(x)'s residual is too, reports G(x) if
    the exact spectral radius there is < 1; otherwise returns None."""
    eye = np.eye(x.size)
    for step in range(1, budget + 1):
        x = np.maximum(x, 0.0)
        g, jac = rmap.linearize(x)
        if _distance(g, x) < tol:
            report = _report(rmap, g, done + step, newton=step)
            if report.residual < tol:
                return report if report.attracting else None
        try:
            x = x + np.linalg.solve(eye - jac, g - x)
        except np.linalg.LinAlgError:
            break
    return None


def _iterate(rmap, p0, tol, maxiter) -> FixedPointReport:
    """Iterate q <- G(q) from p0 until ||G(q) - q||_1 < tol, for at most
    maxiter steps, and report on the last G(q).  One Newton polish is tried
    once a step falls below :data:`NEWTON_START`, or below NEWTON_SLOW but
    above half the step before, counted against maxiter; a refused polish
    goes uncounted and the plain iteration resumes where it began."""
    q = g = np.asarray(p0, dtype=float)
    polish = True
    prev = math.inf
    for step in range(1, maxiter + 1):
        g = rmap(q)[0]
        diff = _distance(g, q)
        if diff < tol:
            return _report(rmap, g, step)
        if polish and (diff < NEWTON_START or prev / 2 < diff < NEWTON_SLOW):
            polish = False
            report = _newton(rmap, g, tol, min(_NEWTON_STEPS, maxiter - step), step)
            if report is not None:
                return report
        prev = diff
        q = g
    return _report(rmap, g, maxiter, converged=False)


def iterate_to_fixed_point(rmap: RecurrenceMap, p0, tol: float = 1e-12,
                           maxiter: int = 10000) -> FixedPointReport:
    """Iterate a recurrence map until successive iterates differ by < tol
    in 1-norm, finishing with Newton on the map's exact Jacobian.

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
    slope = np.polyder(coeffs)
    roots = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-9:
            continue
        x = float(r.real)
        for _ in range(4):
            d = np.polyval(slope, x)
            if d == 0:
                break
            x -= np.polyval(coeffs, x) / d
        roots.append(x)
    return np.array(sorted(roots))


def worstcase_discriminant(f_i):
    """Discriminant -36 (648 f_I - 873 f_I^2 - 212 f_I^3 + 436 f_I^4) of the
    worst-case cubic; positive iff three distinct real fixed points.

    Fraction input is evaluated exactly (e.g. the value at f_I = 1 is the
    integer 36)."""
    if not isinstance(f_i, Fraction):
        f_i = float(f_i)
    return -36 * (648 * f_i - 873 * f_i ** 2 - 212 * f_i ** 3 + 436 * f_i ** 4)


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


def jacobian_spectral_radius(rmap: RecurrenceMap, p_inf) -> float:
    """Spectral radius of the map's exact Jacobian at a fixed point: the
    independent check of the radius the solvers report.

    A table map's Jacobian is taken in raw coordinates, where the radial
    direction contributes a trivial zero eigenvalue.  A point whose
    residual ||f(p) - p||_1 exceeds 1e-8 is rejected.
    """
    p = np.asarray(p_inf, dtype=float)
    g, jac = rmap.linearize(p)
    resid = _distance(g, p)
    if resid > _RESIDUAL_TOL:
        raise ValueError(
            f"fixed-point residual {resid:.3e} exceeds {_RESIDUAL_TOL:.3e}")
    return _radius(jac)


def convergence_exponent(rmap: RecurrenceMap, p0, rounds: int, p_fix) -> ConvergenceFit:
    """Fit log||p_n - p_inf||_1 = a + b*n over a trajectory from p0 to the
    known limit ``p_fix``.

    Rounds whose error has fallen below 100 machine epsilons are excluded
    (they are noise-dominated); at least 10 usable rounds are required.
    """
    p_fix = np.asarray(p_fix, dtype=float)
    errs = np.array([np.abs(p - p_fix).sum()
                     for p, _n in trajectory(rmap, p0, rounds)])
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
    failed too.  The full 16-variable map keeps the correlated support
    invariant term by term, so it fixes the solution's embedding as well.
    """
    report = _iterate(reduced_dejmps_map(noise), DEJMPS_START, 1e-13, 20000)
    if not report.converged:
        raise NonConvergenceError("reduced fixed-point iteration did not converge")
    return report
