"""Extremal parameter estimation, branch sweeps, and boundary exponents.

The zero-order certificate bounds the extremal parameter from above by
maximizing a one-dimensional quotient built from the principal eigenvalue.
The estimate itself comes from bisection on a feasibility oracle: a value
is feasible when a supersolution validates and the monotone iteration
settles.  Near-extremal solutions are obtained by warm-starting up a
geometric ladder toward the estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .grid import Grid, boundary_distance
from .operator import DiscreteSystem, Field, ProblemParams, principal_eigenpair
from .solver import (
    MONOTONE_CAP,
    SolveReport,
    scan_supersolution,
    monotone_iteration,
    solve_pure_singular,
    weak_residual,
)
from .variational import energy, golden_section_max, mountain_pass_search, sobolev_constant


def lambda_certificate(params: ProblemParams, lam1: float) -> float:
    """Upper certificate for the extremal parameter from the eigenvalue.

    Maximizes (2 lam1 t - t^{-q}) / t^{crit-1} over t > 0 with a coarse
    geometric scan followed by golden-section refinement.
    """
    if lam1 <= 0.0:
        raise ParameterError("principal eigenvalue must be positive")
    q = params.q
    ts = params.crit

    def f(t):
        return (2.0 * lam1 * t - t ** (-q)) / t ** (ts - 1.0)

    tg = np.geomspace(1e-3, 10.0, 2000)
    vals = f(tg)
    i = int(np.argmax(vals))
    lo = tg[max(i - 1, 0)]
    hi = tg[min(i + 1, len(tg) - 1)]
    value = f(golden_section_max(f, lo, hi, 1e-12))
    if value <= 0.0:
        raise ConvergenceError("certificate maximization returned a nonpositive value")
    return float(value)


@dataclass(frozen=True)
class LambdaStarResult:
    """Bisection outcome for the extremal parameter."""

    estimate: float
    bracket: tuple
    lambda_cert: float
    evaluations: tuple
    flagged: bool


def estimate_lambda_star(
    system: DiscreteSystem,
    params: ProblemParams,
    rel_tol: float = 1e-2,
    base: Field | None = None,
) -> LambdaStarResult:
    """Bisect the largest lam with a validated supersolution and settled iteration.

    Feasibility at a trial lam requires both a supersolution from the
    multiplier ladder and convergence of the monotone iteration under it.
    The search runs on [0, lambda_certificate].  A trial where the
    iteration hits MONOTONE_CAP while still monotone and below its bound is
    indeterminate; it is treated as infeasible and the result is flagged.
    lam carried by ``params`` is ignored here.  ``base`` may pass a
    precomputed pure singular solution.
    """
    spec = principal_eigenpair(system)
    cert = lambda_certificate(params, spec.value)
    w = base if base is not None else solve_pure_singular(system, params)[0]
    evaluations = []
    flagged = False

    def feasible(lam):
        nonlocal flagged
        p = params.with_lam(lam)
        sup = scan_supersolution(system, p, base=w)
        if not sup.valid:
            evaluations.append((float(lam), False, None, 0))
            return False
        trace = []
        u, rep = monotone_iteration(system, p, base=w, bound=sup.values, trace=trace)
        if not rep.converged and rep.iterations >= MONOTONE_CAP:
            monotone = all(t["min_increment"] >= -1e-10 for t in trace)
            bounded = all(t.get("below_bound", True) for t in trace)
            if monotone and bounded:
                flagged = True
        evaluations.append((float(lam), bool(rep.converged), sup.multiplier, rep.iterations))
        return rep.converged

    lo, hi = 0.0, cert
    while hi - lo > rel_tol * max(hi, 1e-12) * 0.5:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return LambdaStarResult(
        estimate=0.5 * (lo + hi),
        bracket=(lo, hi),
        lambda_cert=cert,
        evaluations=tuple(evaluations),
        flagged=flagged,
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
    """Computed branch data over a list of parameter values.

    ``lambda_star`` carries an (estimate, lo, hi) triple when an extremal
    parameter estimate accompanies the sweep; sweeps do not compute one on
    their own.
    """

    entries: tuple
    lambda_cert: float
    lambda_star: tuple | None = None


def sweep_lambda(
    system: DiscreteSystem,
    params: ProblemParams,
    lambdas,
    second: bool = False,
    lambda_star: tuple | None = None,
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
    sob = sobolev_constant(system) if second else None
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
                    v, vrep = mountain_pass_search(system, p, u, sobolev=sob)
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
    return BifurcationDiagram(
        entries=tuple(entries),
        lambda_cert=cert,
        lambda_star=tuple(float(v) for v in lambda_star) if lambda_star else None,
    )


def extremal_solution(
    system: DiscreteSystem,
    params: ProblemParams,
    lam_star: float | None = None,
    rungs: int = 8,
    trace: list | None = None,
):
    """Climb a geometric ladder lam_star (1 - 2^{-m}) toward the extremal value.

    Each rung warm-starts from the previous minimal solution; the rung
    solutions are nondecreasing nodewise.  The returned field is the deepest
    rung's solution and its report measures the weak residual at lam_star
    itself, which is how far the ladder end is from solving the extremal
    problem.  Non-convergence partway leaves converged=False with
    ``iterations`` holding the deepest convergent rung.
    """
    if rungs < 1:
        raise ParameterError("need at least one rung")
    if lam_star is None:
        lam_star = estimate_lambda_star(system, params).estimate
    if lam_star <= 0.0:
        raise ParameterError("lam_star must be positive")
    w, _ = solve_pure_singular(system, params)
    u = w
    all_ok = True
    done = 0
    for m in range(1, rungs + 1):
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
            all_ok = False
            break
        u = u_new
        done = m
    p_star = params.with_lam(lam_star)
    report = SolveReport(
        residual=weak_residual(system, p_star, u),
        iterations=done,
        energy=energy(system, p_star, u),
        branch="extremal",
        converged=all_ok,
    )
    return u, report


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


def holder_fit(
    grid: Grid,
    params: ProblemParams,
    u: Field,
    width_frac: float = 0.1,
) -> HolderFit:
    """Fit the boundary growth exponent over nodes near the endpoints.

    Nodes with boundary distance delta <= width_frac * (b - a) enter an
    equal-weight least-squares fit of log u.  For q != 1 the regressor is
    log delta and the slope is the exponent; the expected value is s for
    q < 1 and 2s/(q+1) for q > 1.  At q = 1 the profile carries a square
    root logarithmic correction, so the regressor becomes
    log(delta^s * sqrt(log(2/delta^s))) and the fitted exponent is the
    slope times s.  A window holding fewer than 6 nodes is widened until it
    has enough, with a warning.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ParameterError("fit needs a strictly positive field")
    if not 0.0 < width_frac < 0.5:
        raise ParameterError("width fraction must lie in (0, 1/2)")
    delta = boundary_distance(grid)
    length = grid.b - grid.a
    width = width_frac * length
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


def boundary_profile(system: DiscreteSystem, params: ProblemParams) -> Field:
    """Reference boundary growth profile built from the principal mode.

    With phi the principal eigenvector (max 1), the profile is phi itself
    for q < 1, phi * sqrt(log(2/phi)) at q = 1, and phi^{2/(q+1)} for
    q > 1, matching the three growth regimes of the solutions.
    """
    phi = principal_eigenpair(system).mode
    q = params.q
    if q < 1.0:
        return phi.copy()
    if q == 1.0:
        return phi * np.sqrt(np.log(2.0 / phi))
    return phi ** (2.0 / (q + 1.0))


# Boundary window of boundary_sandwich, as a fraction of the interval length.
SANDWICH_WIDTH_FRAC = 0.1


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided pinch of a field between multiples of the boundary profile."""

    k_low: float
    k_high: float
    n_nodes: int
    width: float

    def __bool__(self):
        return 0.0 < self.k_low <= self.k_high and math.isfinite(self.k_high)


def boundary_sandwich(
    system: DiscreteSystem,
    params: ProblemParams,
    u: Field,
) -> SandwichReport:
    """Pinch constants k_low, k_high with k_low*profile <= u <= k_high*profile.

    The constants are the extreme ratios of u to the boundary profile over
    nodes within SANDWICH_WIDTH_FRAC of the interval length from an
    endpoint, so both inequalities are tight at some node.  A well-behaved
    solution keeps the two constants within a modest factor of each other.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ParameterError("sandwich needs a strictly positive field")
    grid = system.grid
    delta = boundary_distance(grid)
    width = SANDWICH_WIDTH_FRAC * (grid.b - grid.a)
    mask = delta <= width
    if not mask.any():
        raise ParameterError("no nodes inside the sandwich window")
    prof = boundary_profile(system, params)
    ratio = u[mask] / prof[mask]
    return SandwichReport(
        k_low=float(ratio.min()),
        k_high=float(ratio.max()),
        n_nodes=int(mask.sum()),
        width=float(width),
    )
