"""Solvers for the singular semilinear problem and the minimal branch.

The core routine solves A u = massw * ((u + eps)^{-q} + g) down a decreasing
regularization schedule ending at eps = 0, with a damped Newton method at
each stage.  The Jacobian A + diag(q massw (u+eps)^{-q-1}) is symmetric
positive definite, so each stage factorizes with Cholesky; the same Newton
factorizes with LU when the critical term is present (mountain-pass polish).

On top of it sit the pure singular solution (g = 0), supersolution
construction by a multiplier ladder over the torsion-like profile, and the
monotone iteration that climbs from the pure singular solution to the
minimal solution of the full problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .errors import ConvergenceError, ParameterError
from .operator import (
    DiscreteSystem,
    Field,
    ProblemParams,
    defect,
    jacobian,
    m_matrix_threshold,
    nodal_source,
    solve_dirichlet,
)
from .variational import energy


@dataclass(frozen=True)
class SolveReport:
    """Outcome summary attached to every computed field."""

    residual: float
    iterations: int
    energy: float
    branch: str
    converged: bool


BRANCHES = ("pure-singular", "minimal", "mountain-pass", "extremal", "auxiliary")

# A solve counts as converged when its unregularized defect is this small,
# and Newton trial iterates must keep every node above the floor.  Newton
# stops once its accepted step is NEWTON_STEP_TOL relative to the iterate.
RESIDUAL_TOL = 1e-8
POSITIVITY_FLOOR = 1e-14
NEWTON_MAX_ITER = 60
NEWTON_STEP_TOL = 1e-12

# Nodal slack of the supersolution, comparison and envelope verdicts.
ORDER_SLACK = 1e-8

# Monotone iteration: step budget, the sup-norm change at which it has
# settled, and the sup norm beyond which it counts as diverged.
MONOTONE_CAP = 500
MONOTONE_TOL = 1e-9
DIVERGENCE_SUP = 1e6


def default_schedule() -> list:
    """Regularization levels 0.1 * 4^{-k}; the tail is 1e-8 of the head."""
    return [0.1 * 4.0 ** (-k) for k in range(15)]


def weak_residual(system: DiscreteSystem, params: ProblemParams, u: Field) -> float:
    """Sup-norm of the nodal defect A u - massw (u^{-q} + lam u^{crit-1})."""
    return float(np.abs(defect(system, params, np.asarray(u, dtype=float))).max())


def newton(system, params, u, g=0.0, eps=0.0):
    """Damped Newton on ``defect(system, params, u, g, eps) = 0`` from ``u``.

    Each step halves its length (at most 40 times) until the trial iterate
    stays above POSITIVITY_FLOOR and lowers the defect norm; it stops when
    the accepted step is at most NEWTON_STEP_TOL relative to the iterate.
    The Jacobian is factorized with Cholesky when lam = 0 (it is then SPD)
    and with LU otherwise.  Returns (u, iterations); raises ConvergenceError
    when the line search stalls.
    """
    spd = params.lam == 0.0
    for it in range(NEWTON_MAX_ITER):
        r = defect(system, params, u, g, eps)
        J = jacobian(system, params, u, eps)
        du = cho_solve(cho_factor(J), -r) if spd else lu_solve(lu_factor(J), -r)
        t = 1.0
        rn0 = np.linalg.norm(r)
        for _ in range(40):
            ut = u + t * du
            if (
                ut.min() > POSITIVITY_FLOOR
                and np.linalg.norm(defect(system, params, ut, g, eps)) < rn0
            ):
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled at eps={eps:g} after {it} Newton steps"
            )
        u = u + t * du
        if np.linalg.norm(t * du) <= NEWTON_STEP_TOL * (1.0 + np.linalg.norm(u)):
            return u, it + 1
    return u, NEWTON_MAX_ITER


def _continuation(system, params, g, schedule, u=None, trace=None):
    """Newton down ``schedule`` and then at eps = 0 for the frozen source g.

    ``u`` is the start iterate, or None for a cold start from the linear
    solve at the first level.  Returns (u, total Newton iterations).
    """
    base = params.with_lam(0.0)
    total = 0
    for eps in schedule + [0.0]:
        if u is None:
            u = solve_dirichlet(system, eps ** (-params.q) + g)
        u, its = newton(system, base, u, g, eps)
        total += its
        if trace is not None:
            trace.append(
                {
                    "eps": eps,
                    "newton_iterations": its,
                    "stage_residual": float(np.abs(defect(system, base, u, g, eps)).max()),
                    "values": u.copy(),
                }
            )
    if u.min() <= 0.0:
        raise ConvergenceError("solver left the positive cone")
    return u, total


def solve_singular_semilinear(
    system: DiscreteSystem,
    params: ProblemParams,
    g=0.0,
    schedule=None,
    start: Field | None = None,
    trace: list | None = None,
):
    """Solve A u = massw (u^{-q} + g) by eps continuation.

    ``g`` is a frozen nonnegative source (scalar or nodal vector; a wrong
    shape or a non-finite entry raises ParameterError); lam in ``params``
    plays no part in the equation.  Without a ``start`` the full default
    schedule runs and its last level must be at most 1e-8 of the first;
    with a warm start a short tail is acceptable.  Each stage appends
    a dict to ``trace`` when one is supplied.  The final stage always solves
    the unregularized equation (eps = 0).

    Returns the positive solution field and a SolveReport on the
    ``auxiliary`` branch (callers of record wrap it under their own label).
    """
    g = nodal_source(system, g, "source g")
    if g.min() < 0.0:
        raise ParameterError(f"source g must be nonnegative, min is {g.min():g}")
    if schedule is None:
        schedule = default_schedule()
    schedule = [float(e) for e in schedule]
    if any(e <= 0.0 for e in schedule):
        raise ParameterError("schedule levels must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ParameterError("schedule must decrease strictly")
    if start is None and schedule[-1] > 1e-8 * schedule[0]:
        raise ParameterError("cold-start schedule must end at most 1e-8 of its head")

    u = None if start is None else np.asarray(start, dtype=float).copy()
    if u is not None and u.min() <= 0.0:
        raise ParameterError("start iterate must be strictly positive")

    u, total = _continuation(system, params, g, schedule, u, trace)
    rmax = float(np.abs(defect(system, params.with_lam(0.0), u, g)).max())
    report = SolveReport(
        residual=rmax,
        iterations=total,
        energy=energy(system, params, u),
        branch="auxiliary",
        converged=rmax <= RESIDUAL_TOL,
    )
    return u, report


def solve_pure_singular(system: DiscreteSystem, params: ProblemParams, **kw):
    """Solution of the problem without the critical term (lam = 0)."""
    u, rep = solve_singular_semilinear(system, params.with_lam(0.0), 0.0, **kw)
    return u, replace(rep, branch="pure-singular")


def default_multiplier_ladder() -> list:
    """Half-power ladder 2^{j/2}, j = -40..40, covering small lam as well."""
    return [2.0 ** (j / 2.0) for j in range(-40, 41)]


@dataclass(frozen=True)
class SupersolutionResult:
    """Nodewise defect verdict for a candidate ubar = w + M * z."""

    valid: bool
    multiplier: float | None
    values: Field | None
    worst_defect: float
    attempts: int


def build_supersolution(
    system: DiscreteSystem,
    params: ProblemParams,
    M: float,
    base: Field | None = None,
) -> SupersolutionResult:
    """Check whether ubar = w + M z dominates the full problem nodewise.

    w is the pure singular solution, z the system's torsion field (the
    linear solution with unit source), so no linear solve happens here.  The
    candidate is valid when its defect
    A ubar - massw (ubar^{-q} + lam ubar^{crit-1}) is >= -ORDER_SLACK at
    every node.  M = 0 is permitted (the check then reduces to whether w
    itself absorbs the critical term, true only at lam = 0); negative M is
    not.
    """
    if not M >= 0.0:
        raise ParameterError(f"multiplier must be nonnegative, got {M}")
    if base is None:
        base, _ = solve_pure_singular(system, params)
    ub = base + float(M) * system.torsion
    worst = float(defect(system, params, ub).min())
    return SupersolutionResult(
        valid=worst >= -ORDER_SLACK,
        multiplier=float(M),
        values=ub,
        worst_defect=worst,
        attempts=1,
    )


def scan_supersolution(
    system: DiscreteSystem,
    params: ProblemParams,
    base: Field | None = None,
) -> SupersolutionResult:
    """Scan ``default_multiplier_ladder`` for the first valid supersolution.

    The first multiplier that validates wins; when none does, the result
    carries valid=False and ``worst_defect`` reports the best (largest)
    minimum defect seen across the ladder.
    """
    ladder = default_multiplier_ladder()
    if base is None:
        base, _ = solve_pure_singular(system, params)
    best = -np.inf
    for k, M in enumerate(ladder):
        res = build_supersolution(system, params, M, base=base)
        best = max(best, res.worst_defect)
        if res.valid:
            return replace(res, attempts=k + 1)
    return SupersolutionResult(
        valid=False,
        multiplier=None,
        values=None,
        worst_defect=best,
        attempts=len(ladder),
    )


def monotone_iteration(
    system: DiscreteSystem,
    params: ProblemParams,
    base: Field | None = None,
    bound: Field | None = None,
    cap: int = MONOTONE_CAP,
    trace: list | None = None,
):
    """Iterate L(u_k) = lam u_{k-1}^{crit-1} upward from the pure singular w.

    Each step solves the frozen-source singular problem, warm-started from
    the previous iterate.  The sequence is nondecreasing; its limit, when
    the sup norms stay bounded, is the minimal solution.  ``bound`` may
    carry a validated supersolution, in which case every iterate is checked
    against it.  The iteration has settled when a step changes no node by
    more than MONOTONE_TOL.  Divergence (sup norm beyond DIVERGENCE_SUP) or
    hitting ``cap`` returns converged=False.
    """
    if params.lam < 0.0:
        raise ParameterError("lam must be nonnegative")
    if base is None:
        base, _ = solve_pure_singular(system, params)
    u = np.asarray(base, dtype=float).copy()
    if bound is not None and np.any(u > np.asarray(bound, dtype=float) + 1e-8):
        raise ParameterError("starting field must sit below the supersolution")
    ts = params.crit
    status = "cap"
    k = 0
    for k in range(1, cap + 1):
        g = params.lam * u ** (ts - 1.0)
        try:
            if k == 1:
                unew, _ = _continuation(system, params, g, default_schedule())
            else:
                unew, _ = _continuation(system, params, g, [1e-8], u)
        except ConvergenceError:
            status = "inner-failure"
            break
        inc = unew - u
        if trace is not None:
            entry = {
                "k": k,
                "min_increment": float(inc.min()),
                "sup_change": float(np.abs(inc).max()),
                "sup": float(unew.max()),
            }
            if bound is not None:
                entry["below_bound"] = bool(np.all(unew <= bound + 1e-8))
            trace.append(entry)
        u = unew
        if bound is not None and np.any(u > bound + 1e-6 * (1.0 + np.abs(bound))):
            status = "escaped-bound"
            break
        if u.max() > DIVERGENCE_SUP:
            status = "diverged"
            break
        if np.abs(inc).max() <= MONOTONE_TOL:
            status = "converged"
            break
    converged = status == "converged"
    if converged or status == "cap":
        res = weak_residual(system, params, u)
        en = energy(system, params, u)
    else:
        res = np.inf
        en = np.inf
    report = SolveReport(
        residual=res,
        iterations=k,
        energy=en,
        branch="minimal",
        converged=converged,
    )
    return u, report


@dataclass(frozen=True)
class ComparisonReport:
    """Ordering verdict for two solutions with ordered sources."""

    ordered: bool
    indeterminate: bool
    worst_gap: float
    residual_low: float
    residual_high: float
    m_matrix: bool

    def __bool__(self):
        return self.ordered and not self.indeterminate


def comparison_check(
    system: DiscreteSystem,
    params: ProblemParams,
    u1: Field,
    u2: Field,
    g1,
    g2,
) -> ComparisonReport:
    """Check u1 <= u2 nodewise (to ORDER_SLACK) for solutions with ordered sources.

    Each u_i must satisfy A u_i = massw (u_i^{-q} + g_i) to RESIDUAL_TOL in
    the sup norm; otherwise the verdict is flagged indeterminate (the
    ordering of non-solutions says nothing).  The report notes whether the
    matrix is in the M-matrix regime (s above the sign threshold), where
    the ordering is a theorem rather than an observation.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    g1 = nodal_source(system, g1, "source g1")
    g2 = nodal_source(system, g2, "source g2")
    if np.any(g1 > g2):
        raise ParameterError("sources must satisfy g1 <= g2 nodewise")
    if u1.min() <= 0.0 or u2.min() <= 0.0:
        raise ParameterError("fields must be strictly positive")
    base = params.with_lam(0.0)
    res1 = float(np.abs(defect(system, base, u1, g1)).max())
    res2 = float(np.abs(defect(system, base, u2, g2)).max())
    gap = float((u2 - u1).min())
    return ComparisonReport(
        ordered=gap >= -ORDER_SLACK,
        indeterminate=res1 > RESIDUAL_TOL or res2 > RESIDUAL_TOL,
        worst_gap=gap,
        residual_low=res1,
        residual_high=res2,
        m_matrix=system.s >= m_matrix_threshold(),
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Two-sided envelope check for a solution of the full problem."""

    ok: bool
    lower_ok: bool
    upper_ok: bool
    worst_lower: float
    worst_upper: float
    lower_node: int
    upper_node: int
    max_u: float

    def __bool__(self):
        return self.ok


def envelope_check(
    system: DiscreteSystem,
    params: ProblemParams,
    u: Field,
) -> EnvelopeReport:
    """Check w <= u <= z nodewise, to ORDER_SLACK, localizing any violation.

    w is the pure singular solution; z solves the singular problem with the
    constant source lam * (sup u)^{crit-1}, the natural upper envelope for
    any positive solution of the full problem with that sup norm.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ParameterError("field must be strictly positive")
    w, _ = solve_pure_singular(system, params)
    g_top = params.lam * float(u.max()) ** (params.crit - 1.0)
    z, _ = solve_singular_semilinear(system, params, g_top)
    low = u - w
    high = z - u
    il = int(np.argmin(low))
    ih = int(np.argmin(high))
    lower_ok = bool(low[il] >= -ORDER_SLACK)
    upper_ok = bool(high[ih] >= -ORDER_SLACK)
    return EnvelopeReport(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        worst_lower=float(low[il]),
        worst_upper=float(high[ih]),
        lower_node=il,
        upper_node=ih,
        max_u=float(u.max()),
    )
