"""Sobolev quotient, concentration bubbles, energy gap, second solution.

The functional

    I(u) = 1/2 <A u, u> - sum massw * P(u) - (lam/crit) sum massw * u^crit

(``operator.energy``, re-exported here) uses the antiderivative P of the
singular nonlinearity: u^{1-q}/(1-q) for q != 1 and log u for q = 1.
Minimal solutions are local minimizers on the cone above the pure singular
solution; a second solution appears at a mountain-pass level.  It is
located here by a climbing elastic band over a path of bubble
perturbations, whose highest sample seeds a Newton polish.  The discrete
Sobolev constant is computed once per system and kept on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .grid import Grid
from .operator import (
    DiscreteSystem,
    Field,
    ProblemParams,
    critical_exponent,
    defect,
    energy,
    kernel_constant,
    principal_eigenpair,
)
from .solver import RESIDUAL_TOL, SolveReport, newton

# Path deformation in mountain_pass_search: samples along the path, sweep
# budget, sweeps between Newton polishes, the relative A-distance from the
# minimal solution below which a critical point counts as the same one, and
# the concentration scale of the bubble direction.  Every sweep is taken,
# so a band that never reaches a distinct point spends the whole budget;
# successful searches at N = 256 take at most about 120 sweeps.
MP_SAMPLES = 33
MP_MAX_SWEEPS = 200
MP_NEWTON_EVERY = 10
MP_DISTINCT_TOL = 1e-2
MP_BUBBLE_EPS = 0.02

# Iteration budget of the projected-gradient descent in sobolev_constant.
SOBOLEV_MAX_ITER = 2000

# Concentration scales of the bubble rays in energy_gap_check.
GAP_EPS_LADDER = (0.08, 0.04, 0.02)


def problem_gradient(system: DiscreteSystem, params: ProblemParams, u: Field) -> Field:
    """Nodal gradient A u - massw (u^{-q} + lam u^{crit-1})."""
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ParameterError("gradient needs a strictly positive field")
    return defect(system, params, u)


def gateaux_derivative(
    system: DiscreteSystem, params: ProblemParams, u: Field, phi: Field
) -> float:
    """Directional derivative of the functional at u in direction phi."""
    phi = np.asarray(phi, dtype=float)
    return float(problem_gradient(system, params, u) @ phi)


def critical_quotient(system: DiscreteSystem, u: Field) -> float:
    """Rayleigh quotient of the critical embedding at u.

    (<A u, u> / cns) / (sum massw |u|^{crit})^{2/crit}; homogeneous of
    degree zero, so any rescaling of u leaves it unchanged.
    """
    u = np.asarray(u, dtype=float)
    if not np.any(u != 0.0):
        raise ParameterError("quotient undefined at the zero field")
    s = system.s
    ts = critical_exponent(1, s)
    den = np.sum(system.massw * np.abs(u) ** ts) ** (2.0 / ts)
    return float((u @ (system.stiffness @ u) / kernel_constant(s)) / den)


def sobolev_constant(
    system: DiscreteSystem,
    start: Field | None = None,
) -> float:
    """Best constant in the critical embedding on this grid.

    Minimizes (<A u, u> / cns) / |u|_{crit}^2 by projected gradient descent,
    preconditioned with the system's stiffness factor, from ``start``
    (at most SOBOLEV_MAX_ITER steps).  The default start is the principal
    eigenvector; that value is computed once per system and kept.  The
    discrete value decreases under refinement toward the continuum constant.
    """
    if start is None:
        return system.memo(
            "sobolev", lambda: _minimize_quotient(system, principal_eigenpair(system).mode)
        )
    return _minimize_quotient(system, start)


def _minimize_quotient(system: DiscreteSystem, start: Field) -> float:
    s = system.s
    ts = critical_exponent(1, s)
    c = kernel_constant(s)
    A = system.stiffness
    mw = system.massw
    u = np.asarray(start, dtype=float).copy()
    R = critical_quotient(system, u)
    alpha = 0.5
    for _ in range(SOBOLEV_MAX_ITER):
        den = np.sum(mw * np.abs(u) ** ts)
        un = u / den ** (1.0 / ts)
        gR = 2.0 * (A @ un) / c - 2.0 * R * mw * np.sign(un) * np.abs(un) ** (ts - 1.0)
        d = system.solve(gR)
        ut = un - alpha * d
        Rt = critical_quotient(system, ut)
        while Rt > R and alpha > 1e-12:
            alpha *= 0.5
            ut = un - alpha * d
            Rt = critical_quotient(system, ut)
        done = abs(R - Rt) <= 1e-14 * max(1.0, R)
        u, R = ut, Rt
        if done:
            break
        alpha = min(alpha * 1.5, 1.0)
    return float(R)


def _quintic_taper(r: np.ndarray) -> np.ndarray:
    # C^2 transition from 1 to 0 over [0, 1]
    r = np.clip(r, 0.0, 1.0)
    return 1.0 - (10.0 * r ** 3 - 15.0 * r ** 4 + 6.0 * r ** 5)


@dataclass(frozen=True)
class Bubble:
    """Truncated concentration profile used to probe the critical level.

    ``alpha`` and ``beta`` put the untruncated core in closed form:
    alpha * (beta^2 + |x - center|^2)^{-(1-2s)/2} at every node where the
    cutoff equals one.
    """

    values: np.ndarray
    eps: float
    nu: float
    center: float
    sobolev: float
    alpha: float
    beta: float


def make_bubble(
    grid: Grid,
    params: ProblemParams,
    eps: float,
    sobolev: float,
    nu: float | None = None,
) -> Bubble:
    """Cutoff extremal profile concentrated at scale eps.

    The profile (1 + |y|^2)^{-(1-2s)/2}, normalized to unit critical norm
    (its norm is pi^{(1-2s)/2} exactly) and rescaled by the estimated best
    constant, is concentrated at scale eps and multiplied by a quintic taper
    that is 1 inside radius nu and 0 beyond 2 nu.  The center is the
    interval's midpoint.  The default nu is a tenth of the interval length;
    the ball of radius 4 nu about the center must fit inside the interval.
    """
    if not 0.0 < eps < math.inf:
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < sobolev < math.inf:
        raise ParameterError(f"sobolev estimate must be positive and finite, got {sobolev}")
    length = grid.b - grid.a
    if nu is None:
        nu = 0.1 * length
    if not 0.0 < nu < math.inf:
        raise ParameterError(f"nu must be positive and finite, got {nu}")
    center = 0.5 * (grid.a + grid.b)
    if center - 4.0 * nu < grid.a or center + 4.0 * nu > grid.b:
        raise ParameterError(
            f"need the 4*nu ball about {center:g} inside ({grid.a:g}, {grid.b:g})"
        )
    s = params.s
    d = np.abs(grid.nodes - center)
    zeta = np.where(
        d <= nu, 1.0, np.where(d >= 2.0 * nu, 0.0, _quintic_taper((d - nu) / nu))
    )
    pw = (1.0 - 2.0 * s) / 2.0
    unit = np.pi ** pw
    scale = sobolev ** (1.0 / (2.0 * s))
    y = d / (eps * scale)
    profile = (1.0 + y ** 2) ** (-pw) / unit
    values = zeta * eps ** (-pw) * profile
    return Bubble(
        values=values,
        eps=float(eps),
        nu=float(nu),
        center=float(center),
        sobolev=float(sobolev),
        alpha=float(eps ** pw * scale ** (2.0 * pw) / unit),
        beta=float(eps * scale),
    )


@dataclass(frozen=True)
class GapReport:
    """Peak levels along bubble rays versus the compactness threshold.

    ``ok`` reflects the smallest concentration scale tested (the regime the
    bound speaks about); ``all_below`` records whether every scale passed.
    """

    ok: bool
    all_below: bool
    sup_levels: tuple
    eps_ladder: tuple
    threshold: float
    threshold_unscaled: float
    base_level: float
    decreasing: bool

    def __bool__(self):
        return self.ok


def golden_section_max(f, a, b, tol):
    """Midpoint of a golden-section bracket on a maximum of f in [a, b].

    Each interior point is evaluated once; the search stops when the
    bracket is at most ``tol`` wide.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _ray_peak(system, params, base, direction, base_level):
    """Maximum of t -> I(base + t * direction) over t >= 0."""
    def level(t):
        return energy(system, params, base + t * direction)

    t_hi = 1.0
    while level(t_hi) > base_level - 10.0 and t_hi < 1e6:
        t_hi *= 2.0
    tg = np.linspace(0.0, t_hi, 800)
    vals = np.array([level(t) for t in tg])
    i = int(np.argmax(vals))
    lo = tg[max(i - 1, 0)]
    hi = tg[min(i + 1, len(tg) - 1)]
    t_best = golden_section_max(level, lo, hi, 1e-10 * max(1.0, hi))
    return max(level(t_best), base_level)


def energy_gap_check(
    system: DiscreteSystem,
    params: ProblemParams,
    first: Field,
) -> GapReport:
    """Compare peak levels along bubble rays with the compactness threshold.

    For each concentration scale in GAP_EPS_LADDER the ray
    t -> first + t * bubble (default cutoff) is maximized over t.  The
    report records whether every peak stays below

        I(first) + s * S^{1/(2s)} * lam^{-(1-2s)/(2s)},

    with S the system's Sobolev constant, and also carries the unscaled
    variant (without the lam factor) for reference, plus whether the peaks
    decrease as eps shrinks.
    """
    if params.lam <= 0.0:
        raise ParameterError("the gap check needs lam > 0")
    sobolev = sobolev_constant(system)
    base_level = energy(system, params, first)
    s = params.s
    peaks = []
    for eps in GAP_EPS_LADDER:
        bub = make_bubble(system.grid, params, eps, sobolev)
        peaks.append(_ray_peak(system, params, first, bub.values, base_level))
    power = sobolev ** (1.0 / (2.0 * s))
    threshold = base_level + s * power * params.lam ** (-(1.0 - 2.0 * s) / (2.0 * s))
    threshold_unscaled = base_level + s * power
    peaks_t = tuple(float(p) for p in peaks)
    decreasing = all(b <= a + 1e-12 for a, b in zip(peaks_t, peaks_t[1:]))
    smallest = peaks_t[int(np.argmin(GAP_EPS_LADDER))]
    return GapReport(
        ok=smallest < threshold,
        all_below=all(p < threshold for p in peaks_t),
        sup_levels=peaks_t,
        eps_ladder=GAP_EPS_LADDER,
        threshold=float(threshold),
        threshold_unscaled=float(threshold_unscaled),
        base_level=float(base_level),
        decreasing=decreasing,
    )


def _polish_critical_point(system, params, v0, floor, floor_level):
    """Newton on the unregularized gradient from v0, with acceptance gates.

    The Jacobian here is indefinite (the critical term pushes down), so
    ``newton`` factorizes with LU.  The limit is accepted only if its
    gradient has 2-norm below 1e-12, it stays in the cone above the floor,
    sits strictly above the floor level, and is A-distant from the floor;
    otherwise None.
    """
    A = system.stiffness
    try:
        v, _ = newton(system, params, v0)
    except (ConvergenceError, np.linalg.LinAlgError):
        return None
    if not np.linalg.norm(problem_gradient(system, params, v)) < 1e-12:
        return None
    floor_norm = math.sqrt(max(floor @ (A @ floor), 1e-300))
    diff = v - floor
    dist = math.sqrt(max(diff @ (A @ diff), 0.0)) / floor_norm
    if dist > MP_DISTINCT_TOL and diff.min() >= -1e-8 and energy(system, params, v) > floor_level:
        return v
    return None


def mountain_pass_search(
    system: DiscreteSystem,
    params: ProblemParams,
    first: Field,
    trace: list | None = None,
):
    """Locate a second solution above the minimal one at the same lam.

    A path from the minimal solution to a far point along a bubble direction
    (``make_bubble`` at scale MP_BUBBLE_EPS with the system's Sobolev
    constant and the default cutoff) is relaxed by a climbing elastic band:
    every interior sample moves down the A-preconditioned gradient with the
    component along the path tangent removed, except the highest sample,
    which moves up that component instead.  Steps are capped by a quarter
    of the sample spacing, samples are projected onto the cone above the
    minimal solution, and the path is rebalanced by A-arclength each sweep.
    Every sweep is taken, so the path maximum may rise while the highest
    sample climbs.  Every MP_NEWTON_EVERY sweeps the highest sample seeds a
    Newton polish; the first polished point that is distinct from the
    minimal solution, inside the cone, and above its level is returned.
    That point is a critical point above the minimal solution, not always
    at the lowest level of the band.  Each sweep appends one record (stage
    ``deform``) to ``trace`` when one is supplied.

    Returns the second solution and a report on the ``mountain-pass``
    branch.  Raises ConvergenceError when MP_MAX_SWEEPS sweeps locate no
    such point.
    """
    if params.lam <= 0.0:
        raise ParameterError("a second solution needs lam > 0")
    first = np.asarray(first, dtype=float)
    if first.min() <= 0.0:
        raise ParameterError("the base solution must be strictly positive")
    A = system.stiffness
    direction = make_bubble(system.grid, params, MP_BUBBLE_EPS, sobolev_constant(system)).values
    base_level = energy(system, params, first)

    def anorm(v):
        return math.sqrt(max(v @ (A @ v), 0.0))

    def level(u):
        return energy(system, params, u)

    radius = 0.5
    while level(first + radius * direction) >= base_level and radius < 1e6:
        radius *= 2.0
    if radius >= 1e6:
        raise ConvergenceError("could not find a far endpoint below the base level")

    tgrid = np.linspace(0.0, 1.0, MP_SAMPLES)
    path = [first + t * radius * direction for t in tgrid]
    spacing = anorm(radius * direction) / (MP_SAMPLES - 1)

    def rebalance(p):
        arc = [0.0]
        for j in range(1, MP_SAMPLES):
            arc.append(arc[-1] + anorm(p[j] - p[j - 1]))
        arc = np.array(arc)
        if arc[-1] <= 0.0:
            return p, 0.0
        rel = arc / arc[-1]
        out = [p[0]]
        for tj in tgrid[1:-1]:
            i = int(np.searchsorted(rel, tj, side="right")) - 1
            i = min(max(i, 0), MP_SAMPLES - 2)
            fr = (tj - rel[i]) / max(rel[i + 1] - rel[i], 1e-30)
            out.append(np.maximum(p[i] * (1.0 - fr) + p[i + 1] * fr, first))
        out.append(p[-1])
        return out, arc[-1]

    levels = np.array([level(p) for p in path])
    jmax = int(np.argmax(levels))
    for sweep in range(MP_MAX_SWEEPS):
        newpath = [path[0]]
        for j in range(1, MP_SAMPLES - 1):
            u = path[j]
            # d = A^{-1} g, so A d = g: the tangent's A-product is the only one
            g = problem_gradient(system, params, u)
            d = system.solve(g)
            Ad = g
            tau = path[j + 1] - path[j - 1]
            Atau = A @ tau
            nt = math.sqrt(max(tau @ Atau, 0.0))
            if nt > 0.0:
                comp = (g @ tau) / nt
                if j == jmax:
                    comp *= 2.0
                d = d - (comp / nt) * tau
                Ad = g - (comp / nt) * Atau
            nd = math.sqrt(max(d @ Ad, 0.0))
            cap = 0.25 * spacing
            step = 1.0 if nd <= cap else cap / nd
            newpath.append(np.maximum(u - step * d, first))
        newpath.append(path[-1])
        path, arclen = rebalance(newpath)
        spacing = arclen / (MP_SAMPLES - 1)
        levels = np.array([level(p) for p in path])
        jmax = int(np.argmax(levels))
        if trace is not None:
            pg = anorm(system.solve(problem_gradient(system, params, path[jmax])))
            distinct = anorm(path[jmax] - first) / max(anorm(first), 1e-30) > MP_DISTINCT_TOL
            trace.append(
                {
                    "stage": "deform",
                    "sweep": sweep,
                    "level": float(levels[jmax]),
                    "peak_index": jmax,
                    "projected_gradient": float(pg),
                    "distinct": bool(distinct),
                }
            )
        if (sweep + 1) % MP_NEWTON_EVERY == 0:
            found = _polish_critical_point(system, params, path[jmax], first, base_level)
            if found is not None:
                break
    else:
        raise ConvergenceError(
            f"no distinct critical point located within {MP_MAX_SWEEPS} sweeps; "
            f"last level {float(levels.max())!r}"
        )
    res = float(np.abs(problem_gradient(system, params, found)).max())
    report = SolveReport(
        residual=res,
        iterations=sweep + 1,
        energy=level(found),
        branch="mountain-pass",
        converged=res <= RESIDUAL_TOL,
    )
    return found, report
