"""Extremal parameter estimation, branch sweeps, and boundary exponents.

The zero-order certificate bounds the extremal parameter from above by
the maximum, in closed form, of a one-dimensional quotient built from the
principal eigenvalue.  The estimate is a ladder lower bound: the largest
value at which a supersolution over the pure singular solution w
validates.  Each rung's defect is affine in the parameter, so that value
is a closed form, and two ladder scans confirm it.  Above the M-matrix
threshold of the order the discrete comparison principle then puts a
solution between w and that supersolution (the sub/supersolution method);
below it the ordering is observed, not proven.  Near-extremal solutions
are obtained by warm-starting up a geometric ladder toward the estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConvergenceError, ParameterError
from .grid import Grid, boundary_distance
from .operator import (
    DiscreteSystem, Field, ProblemParams, critical_power, principal_eigenpair, source,
)
from .solver import (
    ladder_thresholds,
    monotone_iteration,
    scan_supersolution,
    solve_pure_singular,
)
from .variational import mountain_pass_search

# Rungs of the geometric ladder in extremal_solution.
EXTREMAL_RUNGS = 8

# Boundary window of holder_fit: nodes within this fraction of the
# interval length from an endpoint.
BOUNDARY_WINDOW_FRAC = 0.1


def lambda_certificate(params: ProblemParams, lam1: float) -> float:
    """Upper certificate for the extremal parameter from the eigenvalue.

    The maximum over t > 0 of f(t) = (2 lam1 t - t^{-q}) / t^{crit-1}.
    f' vanishes only at t*^{q+1} = (crit + q - 1) / (2 lam1 (crit - 2)),
    where 2 lam1 t*^{q+1} - 1 = (q + 1) / (crit - 2) > 0, so the maximum is
    f(t*) and it is positive.  A t*^{crit-1} that leaves the float range
    raises ConvergenceError: it overflows for a tiny lam1 (a very long
    interval) and underflows to 0 for a huge one (a very short interval).
    """
    if lam1 <= 0.0:
        raise ParameterError("principal eigenvalue must be positive")
    q = params.q
    ts = params.crit
    t = ((ts + q - 1.0) / (2.0 * lam1 * (ts - 2.0))) ** (1.0 / (q + 1.0))
    try:
        return float((2.0 * lam1 * t - source(params.with_lam(0.0), t)) / critical_power(params, t))
    except (OverflowError, ZeroDivisionError):
        raise ConvergenceError(f"certificate leaves the float range at t* = {t:g}") from None


@dataclass(frozen=True)
class LambdaStarResult:
    """Ladder lower bound for the extremal parameter.

    ``estimate`` is the largest lam at which a supersolution over w
    validates; the ladder validates at ``bracket[0]`` and not at
    ``bracket[1]``.  ``evaluations`` holds one (lam, feasible, multiplier)
    per confirming scan, the multiplier being that of the validated
    supersolution, or None.
    """

    estimate: float
    bracket: tuple
    lambda_cert: float
    evaluations: tuple


def estimate_lambda_star(system: DiscreteSystem, params: ProblemParams) -> LambdaStarResult:
    """The largest lam at which a supersolution over w validates, in closed form.

    A lam is feasible when ``scan_supersolution`` finds a multiplier on its
    ladder whose supersolution validates.  ``ladder_thresholds`` gives the
    largest feasible lam and a bracket ORDER_SLACK in the defect to either
    side of it, which two scans confirm (or ConvergenceError).  A bracket
    that is not a finite range of nonnegative lam (on an interval so short
    that the ladder's defects leave the float range) raises ConvergenceError
    too.  No minimal solution is computed: the validated supersolution lies
    above the subsolution w, which is what the sub/supersolution method
    needs for a solution between them.  lam carried by ``params`` is
    ignored here.
    """
    spec = principal_eigenpair(system)
    cert = lambda_certificate(params, spec.value)
    lo, estimate, hi = ladder_thresholds(system, params)
    if not 0.0 <= lo <= hi < math.inf:
        raise ConvergenceError(f"ladder bracket ({lo:g}, {hi:g}) is not a range of finite lam >= 0")
    scans = [scan_supersolution(system, params.with_lam(lam)) for lam in (lo, hi)]
    if not scans[0].valid or scans[1].valid:
        raise ConvergenceError(f"ladder verdicts do not confirm the bracket ({lo:g}, {hi:g})")
    return LambdaStarResult(
        estimate=estimate,
        bracket=(lo, hi),
        lambda_cert=cert,
        evaluations=tuple((lam, sup.valid, sup.multiplier) for lam, sup in zip((lo, hi), scans)),
    )


@dataclass(frozen=True)
class DiagramEntry:
    """One point of a branch diagram."""

    lam: float
    branch: str
    sup: float
    energy: float
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BifurcationDiagram:
    """Computed branch data over a list of parameter values."""

    entries: tuple
    lambda_cert: float


def sweep_lambda(
    system: DiscreteSystem,
    params: ProblemParams,
    lambdas,
    second: bool = False,
) -> BifurcationDiagram:
    """Trace the minimal branch over ``lambdas``, optionally with the second one.

    Values are visited in increasing order and each minimal solve warm-starts
    from the previous one, which stays below the next minimal solution and
    keeps the iteration monotone.  With ``second`` a mountain-pass search
    runs at each value where the minimal branch converged.  Each entry
    carries the report of the solve behind it.
    """
    lams = sorted(float(l) for l in lambdas)
    if any(l < 0.0 for l in lams):
        raise ParameterError("sweep values must be nonnegative")
    w, wrep = solve_pure_singular(system, params)
    spec = principal_eigenpair(system)
    cert = lambda_certificate(params, spec.value)
    entries = []
    prev = w
    for lam in lams:
        p = params.with_lam(lam)
        if lam == 0.0:
            entries.append(DiagramEntry(lam=0.0, sup=float(w.max()), **asdict(wrep)))
            continue
        u, rep = monotone_iteration(system, p, base=prev)
        sup = float(u.max()) if rep.converged else float("nan")
        entries.append(DiagramEntry(lam=lam, sup=sup, **asdict(rep)))
        if rep.converged:
            prev = u
            if second:
                try:
                    v, vrep = mountain_pass_search(system, p, u)
                    entries.append(DiagramEntry(lam=lam, sup=float(v.max()), **asdict(vrep)))
                except ConvergenceError:
                    entries.append(
                        DiagramEntry(
                            lam=lam,
                            branch="mountain-pass",
                            sup=float("nan"),
                            energy=float("nan"),
                            residual=float("inf"),
                            iterations=0,
                            converged=False,
                        )
                    )
    return BifurcationDiagram(entries=tuple(entries), lambda_cert=cert)


def extremal_solution(
    system: DiscreteSystem,
    params: ProblemParams,
    lam_star: float,
    trace: list | None = None,
):
    """Climb a geometric ladder lam_star (1 - 2^{-m}) toward the extremal value.

    The ladder has EXTREMAL_RUNGS rungs, m = 1, 2, ...; ``lam_star`` is an
    estimate of the extremal value, such as ``estimate_lambda_star`` gives.
    Each rung warm-starts from the previous minimal solution; the rung
    solutions are nondecreasing nodewise.  The returned field is the deepest
    convergent rung's solution (w when none converges) and its report is
    measured at that rung's lam, where the field solves the problem.
    converged=True needs every rung to converge, so the last rung's report
    has already passed ``solver.measure``'s gate; ``iterations`` holds the
    deepest convergent rung.
    """
    if lam_star <= 0.0:
        raise ParameterError("lam_star must be positive")
    u, last = solve_pure_singular(system, params)
    done = 0
    for m in range(1, EXTREMAL_RUNGS + 1):
        lam_m = lam_star * (1.0 - 2.0 ** (-m))
        p = params.with_lam(lam_m)
        u_new, rep = monotone_iteration(system, p, base=u)
        if trace is not None:
            trace.append(
                {
                    "rung": m,
                    "lam": float(lam_m),
                    "converged": bool(rep.converged),
                    "values": u_new.copy() if rep.converged else None,
                    "residual": rep.residual,
                }
            )
        if not rep.converged:
            break
        u, last = u_new, rep
        done = m
    return u, replace(last, iterations=done, branch="extremal", converged=done == EXTREMAL_RUNGS)


@dataclass(frozen=True)
class HolderFit:
    """Least-squares boundary exponent of a positive field.

    ``regressor`` and ``log_values`` keep the actual fitted point cloud so
    plot emission can reproduce the scatter and the fitted line.  A fit is
    ``trusted`` when its rsq reaches 0.99.
    """

    alpha_fit: float
    alpha_theory: float
    slope: float
    intercept: float
    rsq: float
    n_nodes: int
    width: float
    log_correction: bool
    trusted: bool
    regressor: np.ndarray
    log_values: np.ndarray


def holder_fit(grid: Grid, params: ProblemParams, u: Field) -> HolderFit:
    """Fit the boundary growth exponent over nodes near the endpoints.

    Nodes with boundary distance delta <= BOUNDARY_WINDOW_FRAC * (b - a)
    enter an equal-weight least-squares fit of log u.  For q != 1 the
    regressor is log delta and the slope is the exponent; the expected
    value is s for q < 1 and 2s/(q+1) for q > 1.  At q = 1 the profile
    carries a square root logarithmic correction, so the regressor becomes
    log(delta^s * sqrt(log(2/delta^s))) and the fitted exponent is the
    slope times s.  A window holding fewer than 6 nodes (small N) is
    widened until it has enough, with a warning.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ParameterError("fit needs a strictly positive field")
    delta = boundary_distance(grid)
    length = grid.b - grid.a
    width = BOUNDARY_WINDOW_FRAC * length
    mask = delta <= width
    n_fit = int(mask.sum())
    widened = False
    while n_fit < 6 and width < 0.5 * length:
        width = min(width * 2.0, 0.5 * length)
        mask = delta <= width
        n_fit = int(mask.sum())
        widened = True
    if widened:
        warnings.warn(
            f"fit window widened to {width:g} to cover {n_fit} nodes",
            stacklevel=2,
        )
    if n_fit < 2:
        raise ParameterError(f"only {n_fit} nodes inside the widest fit window")
    s = params.s
    q = params.q
    d = delta[mask]
    lu = np.log(u[mask])
    if q == 1.0:
        reg = np.log(d ** s * np.sqrt(np.log(2.0 / d ** s)))
        log_correction = True
    else:
        reg = np.log(d)
        log_correction = False
    design = np.vstack([reg, np.ones(reg.size)]).T
    coef, *_ = np.linalg.lstsq(design, lu, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((lu - pred) ** 2))
    ss_tot = float(np.sum((lu - lu.mean()) ** 2))
    rsq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    slope = float(coef[0])
    if q == 1.0:
        alpha_fit = slope * s
        alpha_theory = s
    else:
        alpha_fit = slope
        alpha_theory = s if q < 1.0 else 2.0 * s / (q + 1.0)
    return HolderFit(
        alpha_fit=alpha_fit,
        alpha_theory=float(alpha_theory),
        slope=slope,
        intercept=float(coef[1]),
        rsq=float(rsq),
        n_nodes=n_fit,
        width=float(width),
        log_correction=log_correction,
        trusted=bool(rsq >= 0.99),
        regressor=reg,
        log_values=lu,
    )
