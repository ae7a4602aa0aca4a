"""Solvers for the singular semilinear problem and the minimal branch.

The core routine solves A u = massw (u^{-q} + g) by one damped Newton on
the unregularized equation.  Its Jacobian A + diag(q massw u^{-q-1}) is
symmetric positive definite on the whole positive cone, so each step
factorizes with Cholesky and descends the residual, and no regularization
ladder is needed: the cold start is the torsion field reshaped to w's
boundary growth and scaled so that its peak is consistent, plus the linear
solution with source g.  The same Newton factorizes with LU when the
critical term is present (mountain-pass polish).  The kernels carry no
regularization level: the problem regularized at eps, with (u + eps)^{-q},
is the frozen-source problem in u + eps with g = eps (A 1) / massw, since
A is linear.  The nonlinearity is spelled once, in ``operator.source``.

On top of it sit the pure singular solution (g = 0), solved once per system
and q and kept on the system, supersolution construction by a multiplier
ladder over the torsion-like profile, the largest lam at which a rung
validates in closed form, and the monotone iteration that climbs from the
pure singular solution to the minimal solution of the full problem by warm
Newton solves with the frozen source lam u^{crit-1}.  A rung's defect is
c - lam b with lam-free c and b, and A(w + M z) = A w + M A z, so c and b
are evaluated for every rung in one pass; for the default ladder that pass
runs once per system and q and is kept on the system, and every scan and
the closed-form threshold read the same arrays.

w is unique and therefore even, so it is solved on the system's even block
(half the size, one eighth of the factorization work) and mirrored back;
its report is measured on the full system.  The minimal solution is unique
too, so the monotone iteration runs every step on the even block from the
left halves of its even base and bound, and the mountain-pass search runs
there as well (see ``variational``).  Solves with a source g stay in the
full space.

Every report of a computed field is built by ``measure``, so its verdict
``converged`` is decided there and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .errors import ConvergenceError, ParameterError
from .operator import (
    DiscreteSystem,
    Field,
    ProblemParams,
    critical_power,
    defect,
    energy,
    jacobian,
    m_matrix_threshold,
    nodal_source,
    read_only,
    solve_dirichlet,
    source,
)


@dataclass(frozen=True)
class SolveReport:
    """Outcome summary attached to every computed field; built by ``measure``."""

    residual: float
    iterations: int
    energy: float
    branch: str
    converged: bool


# A solve counts as converged when its unregularized defect is this small,
# and Newton trial iterates must keep every node above the floor.  Newton
# stops once its accepted step is NEWTON_STEP_TOL relative to the iterate.
# Its line search tries NEWTON_TRIALS steps t = 1, 1/2, ..., 2^-21: no
# Newton run that returns has been seen to accept a step below 2^-17, and
# a polish that needs longer searches fails anyway.
RESIDUAL_TOL = 1e-8
POSITIVITY_FLOOR = 1e-14
NEWTON_MAX_ITER = 60
NEWTON_STEP_TOL = 1e-12
NEWTON_TRIALS = 22

# Nodal slack of the supersolution, comparison and envelope verdicts; it
# also sets the width of the lambda* bracket (see ladder_thresholds).
ORDER_SLACK = 1e-8

# Monotone iteration: step budget, the sup-norm change at which it has
# settled, and the sup norm beyond which it counts as diverged.
MONOTONE_CAP = 500
MONOTONE_TOL = 1e-9
DIVERGENCE_SUP = 1e6


def weak_residual(system: DiscreteSystem, params: ProblemParams, u: Field, g=0.0) -> float:
    """Sup-norm of the nodal defect A u - massw (u^{-q} + g + lam u^{crit-1})."""
    return float(np.abs(defect(system, params, np.asarray(u, dtype=float), g)).max())


def measure(system, params, u, iterations, branch, g=0.0, settled=True) -> SolveReport:
    """The report of a field u computed for A u = massw (u^{-q} + g + lam u^{crit-1}).

    The residual is ``weak_residual`` and the energy ``operator.energy``
    less the source's work sum massw g u, so the energy is the functional
    whose gradient is that residual's defect; both are taken at ``params``.
    converged is set when the solver ``settled`` and the residual is at most
    RESIDUAL_TOL.
    """
    res = weak_residual(system, params, u, g)
    work = float(np.sum(system.massw * g * u)) if np.any(g) else 0.0
    return SolveReport(
        residual=res,
        iterations=iterations,
        energy=energy(system, params, u) - work,
        branch=branch,
        converged=settled and res <= RESIDUAL_TOL,
    )


def newton(system, params, u, g=0.0):
    """Damped Newton on ``defect(system, params, u, g) = 0`` from ``u``.

    Each step tries the lengths t = 1, 1/2, ..., 2^-(NEWTON_TRIALS - 1)
    until the trial iterate stays above POSITIVITY_FLOOR and lowers the
    defect norm; it stops when the accepted step is at most
    NEWTON_STEP_TOL relative to the iterate.  The Jacobian is factorized
    with Cholesky when lam = 0 (it is then SPD) and with LU otherwise, in
    place: ``jacobian`` hands over a fresh Fortran-ordered array, so LAPACK
    gets it without a copy.  Each defect is evaluated once: the accepted
    trial's seeds the next step.  Returns (u, iterations).  When no trial
    descends, returns the iterate if its Newton step is within that
    tolerance (at a converged iterate the defect sits at rounding level and
    no step can lower it) and raises ConvergenceError ("line search
    stalled") otherwise.  Taking NEWTON_MAX_ITER steps, or a non-finite
    defect, Jacobian diagonal or step (an overflowed source, say), raises
    ConvergenceError too.
    """
    spd = params.lam == 0.0
    r = defect(system, params, u, g)
    for it in range(NEWTON_MAX_ITER):
        if not np.isfinite(r).all():
            raise ConvergenceError(f"non-finite defect after {it} Newton steps")
        J = jacobian(system, params, u)
        if spd:
            du = cho_solve(cho_factor(J, overwrite_a=True), -r)
        else:
            du = lu_solve(lu_factor(J, overwrite_a=True), -r)
        if not np.isfinite(du).all():
            raise ConvergenceError(f"non-finite step after {it} Newton steps")
        t = 1.0
        # a norm can overflow to inf: a trial near the floor is then rejected
        # like any other that does not descend, and under a huge lam the
        # current defect and the step overflow, so the line search stalls
        with np.errstate(over="ignore"):
            rn0 = np.linalg.norm(r)
            for _ in range(NEWTON_TRIALS):
                ut = u + t * du
                if ut.min() > POSITIVITY_FLOOR:
                    rt = defect(system, params, ut, g)
                    if np.linalg.norm(rt) < rn0:
                        break
                t *= 0.5
            else:
                if np.linalg.norm(du) <= NEWTON_STEP_TOL * (1.0 + np.linalg.norm(u)):
                    return u, it
                raise ConvergenceError(f"line search stalled after {it} Newton steps")
        # the accepted trial is the next iterate and its defect the next r
        u, r = ut, rt
        if np.linalg.norm(t * du) <= NEWTON_STEP_TOL * (1.0 + np.linalg.norm(u)):
            return u, it + 1
    raise ConvergenceError(f"no convergence within {NEWTON_MAX_ITER} Newton steps")


def solve_singular_semilinear(system: DiscreteSystem, params: ProblemParams, g=0.0):
    """Solve A u = massw (u^{-q} + g) by one damped Newton from a cold start.

    ``g`` is a frozen nonnegative source (scalar or nodal vector; a wrong
    shape or a non-finite entry raises ParameterError); lam in ``params``
    plays no part in the equation.  The Jacobian is SPD on the whole
    positive cone, so Newton runs on the singular equation itself from
    u0 = c max z (z / max z)^p + max(z_g, 0): z is the system's torsion
    field, z_g the linear solution with source g (none is solved when
    g = 0; below the M-matrix threshold it can dip below zero).
    c = (max z)^{-q/(q+1)} makes the start's peak consistent,
    c = (c max z)^{-q}.  z grows like d^s off the boundary and w like
    d^{2s/(q+1)} when q > 1, so p = min(1, 2/(q+1)) gives the start w's
    boundary shape.  A start with the torsion's shape sits far below w at
    the boundary, where each Newton step raises a node by only about a
    factor 1 + 1/q.

    Returns the positive solution field and its ``measure`` on the
    ``auxiliary`` branch at lam = 0 and source g (callers of record wrap
    it under their own label).
    """
    g = nodal_source(system, g, "source g")
    if g.min() < 0.0:
        raise ParameterError(f"source g must be nonnegative, min is {g.min():g}")
    z = system.torsion
    zmax, q = z.max(), params.q
    # c z reshaped by (z / max z)^{p-1}, a factor of exactly 1 when q <= 1
    u = zmax ** (-q / (q + 1.0)) * z * (z / zmax) ** (min(1.0, 2.0 / (q + 1.0)) - 1.0)
    if g.any():
        u = u + np.maximum(solve_dirichlet(system, g), 0.0)
    base = params.with_lam(0.0)
    u, its = newton(system, base, u, g)
    if u.min() <= 0.0:
        raise ConvergenceError("solver left the positive cone")
    return u, measure(system, base, u, its, "auxiliary", g)


def solve_pure_singular(system: DiscreteSystem, params: ProblemParams):
    """Solution w of the problem without the critical term (lam = 0).

    w depends on the system and q alone, so it is solved once per system
    and q and kept on the system; the returned field is read-only.  w is
    unique, hence even: it is solved on ``system.even`` and lifted, and the
    report's residual, energy and verdict are measured on the lifted field
    in the full system (the block's defect is about twice the full one).
    """
    def solve():
        base = params.with_lam(0.0)
        v, rep = solve_singular_semilinear(system.even, base, 0.0)
        u = read_only(system.lift(v))
        return u, measure(system, base, u, rep.iterations, "pure-singular")

    return system.memo(("pure-singular", params.q), solve)


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


def _ladder_defects(system: DiscreteSystem, params: ProblemParams, multipliers):
    """Candidates ubar = w + M z, one row per multiplier, with defects c - lam b.

    Returns (ubar, c, b): c = A ubar - massw ubar^{-q} is the lam-free part and
    b = massw ubar^{crit-1} > 0 the critical coefficient.  A is linear, so
    A ubar = A w + M (A z): two matrix-vector products serve every rung and the
    rest is O(N).  A b that overflows reads inf and fails its rung at any lam > 0.
    """
    w, _ = solve_pure_singular(system, params)
    z = system.torsion
    M = np.asarray(multipliers, dtype=float)[:, None]
    ub = w + M * z
    mw = system.massw
    with np.errstate(over="ignore"):
        c = system.apply(w) + M * system.apply(z) - mw * source(params.with_lam(0.0), ub)
        b = mw * critical_power(params, ub)
    return ub, c, b


def _default_ladder(system: DiscreteSystem, params: ProblemParams):
    """``_ladder_defects`` over ``default_multiplier_ladder``, read-only.

    (ub, c, b) do not depend on lam, so they are evaluated once per system,
    q and s (b reads the critical exponent from ``params``) and kept on the
    system: ``ladder_thresholds`` and the scans that confirm its bracket
    share one evaluation.
    """
    def evaluate():
        ladder = _ladder_defects(system, params, default_multiplier_ladder())
        return tuple(read_only(a) for a in ladder)

    return system.memo(("ladder", params.q, params.s), evaluate)


def _worst_defects(c, b, lam: float):
    """Each rung's minimum defect c - lam b; at lam = 0 an overflowed b plays no part."""
    with np.errstate(over="ignore"):
        return (c - lam * b if lam else c).min(axis=1)


def build_supersolution(
    system: DiscreteSystem,
    params: ProblemParams,
    M: float,
) -> SupersolutionResult:
    """Check whether ubar = w + M z dominates the full problem nodewise.

    w is the system's pure singular solution and z its torsion field (the
    linear solution with unit source), so no solve happens here.  The
    candidate is valid when its defect
    A ubar - massw (ubar^{-q} + lam ubar^{crit-1}) is >= -ORDER_SLACK at
    every node.  M = 0 is permitted (the check then reduces to whether w
    itself absorbs the critical term, true only at lam = 0); negative M is
    not.  This is the one-rung case of ``scan_supersolution``.
    """
    if not M >= 0.0:
        raise ParameterError(f"multiplier must be nonnegative, got {M}")
    ub, c, b = _ladder_defects(system, params, [M])
    worst = _worst_defects(c, b, params.lam)
    return SupersolutionResult(
        valid=bool(worst[0] >= -ORDER_SLACK),
        multiplier=float(M),
        values=ub[0],
        worst_defect=float(worst[0]),
        attempts=1,
    )


def scan_supersolution(system: DiscreteSystem, params: ProblemParams) -> SupersolutionResult:
    """Scan ``default_multiplier_ladder`` for the first valid supersolution.

    Every rung is checked at once from the system's cached ladder defects
    (see ``build_supersolution`` for the verdict).  The first multiplier
    that validates wins and ``attempts`` is its 1-based position on the
    ladder; ``values`` is a copy of its candidate.  When none does, the
    result carries valid=False, ``attempts`` is the ladder length and
    ``worst_defect`` reports the best (largest) minimum defect across the
    ladder.
    """
    ladder = default_multiplier_ladder()
    ub, c, b = _default_ladder(system, params)
    worst = _worst_defects(c, b, params.lam)
    valid = worst >= -ORDER_SLACK
    if not valid.any():
        return SupersolutionResult(
            valid=False,
            multiplier=None,
            values=None,
            worst_defect=float(worst.max()),
            attempts=len(ladder),
        )
    k = int(np.argmax(valid))
    return SupersolutionResult(
        valid=True,
        multiplier=ladder[k],
        values=ub[k].copy(),
        worst_defect=float(worst[k]),
        attempts=k + 1,
    )


def ladder_thresholds(system: DiscreteSystem, params: ProblemParams) -> tuple:
    """(lam_0, lam_1, lam_2), lam_k = max over rungs of min over nodes (c + k ORDER_SLACK) / b.

    lam_1 is the largest lam at which ``scan_supersolution`` validates (the
    verdict there rests on rounding); at lam_0 some rung's defect is >= 0 at
    every node, at lam_2 every rung's is <= -2 ORDER_SLACK at some node.
    """
    _, c, b = _default_ladder(system, params)
    # a b that underflows to 0 gives +-inf: the node bounds no lam, or every lam
    with np.errstate(divide="ignore", over="ignore"):
        return tuple(float(((c + k * ORDER_SLACK) / b).min(axis=1).max()) for k in range(3))


def monotone_iteration(
    system: DiscreteSystem,
    params: ProblemParams,
    base: Field | None = None,
    bound: Field | None = None,
    trace: list | None = None,
):
    """Iterate L(u_k) = lam u_{k-1}^{crit-1} upward from ``base``.

    ``base`` defaults to the system's pure singular solution w; a minimal
    solution at a smaller lam is a warm start too.  Each step solves the
    frozen-source singular problem by one damped Newton started from the
    previous iterate (the first from ``base``): the Jacobian is SPD on the
    positive cone, so no regularized stage is needed.  A step whose
    Newton fails or leaves the positive cone ends the iteration with status
    inner-failure.
    The sequence is nondecreasing; its limit, when the sup norms stay
    bounded, is the minimal solution.  ``bound`` may carry a validated
    supersolution, in which case every iterate is checked against it.  The
    iteration has settled when a step changes no node by more than
    MONOTONE_TOL; its report is then ``measure``d at ``params``, so
    converged also needs the residual at most RESIDUAL_TOL.  Running
    MONOTONE_CAP steps is measured too but never converged.  Divergence
    (sup norm beyond DIVERGENCE_SUP, or a source lam u^{crit-1} that
    overflows), an inner failure or an escaped bound report residual and
    energy inf.

    Every iterate is even, so the steps run on ``system.even`` from the
    left halves of ``base`` and ``bound`` (half-size Cholesky factors), and
    the trace entries read as in the full space.  The result is lifted and
    measured in the full system.  A base or bound that is not
    reflection-even to 1e-12 relative raises ParameterError.
    """
    if params.lam < 0.0:
        raise ParameterError("lam must be nonnegative")
    if base is None:
        base, _ = solve_pure_singular(system, params)
    block = system.even
    u = system.even_half(base, "the starting field")
    if bound is not None:
        bound = system.even_half(bound, "the supersolution")
        if np.any(u > bound + 1e-8):
            raise ParameterError("starting field must sit below the supersolution")
    frozen = params.with_lam(0.0)
    status = "cap"
    k = 0
    for k in range(1, MONOTONE_CAP + 1):
        with np.errstate(over="ignore"):
            g = params.lam * critical_power(params, u)
        if not np.isfinite(g).all():
            # the source overflowed: the sup norm is past any useful bound
            status = "diverged"
            break
        try:
            unew, _ = newton(block, frozen, u, g)
        except ConvergenceError:
            status = "inner-failure"
            break
        if unew.min() <= 0.0:
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
    u = system.lift(u)
    if status in ("converged", "cap"):
        return u, measure(system, params, u, k, "minimal", settled=status == "converged")
    return u, SolveReport(
        residual=np.inf, iterations=k, energy=np.inf, branch="minimal", converged=False
    )


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
    res1 = weak_residual(system, base, u1, g1)
    res2 = weak_residual(system, base, u2, g2)
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

    w is the system's pure singular solution; z solves the singular
    problem with the constant source lam * (sup u)^{crit-1}, the natural
    upper envelope for any positive solution of the full problem with that
    sup norm.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ParameterError("field must be strictly positive")
    w, _ = solve_pure_singular(system, params)
    g_top = params.lam * critical_power(params, float(u.max()))
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
