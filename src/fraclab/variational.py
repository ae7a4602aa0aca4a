"""Sobolev quotient, concentration bubbles, energy gap, second solution.

The functional

    I(u) = 1/2 <A u, u> - sum massw * P(u) - (lam/crit) sum massw * u^crit

(``operator.energy``, re-exported here) uses the antiderivative P of the
singular nonlinearity: u^{1-q}/(1-q) for q != 1 and log u for q = 1.
Minimal solutions are local minimizers on the cone above the pure singular
solution; a second solution appears at a mountain-pass level.  It is
located here by a climbing elastic band over a path of bubble
perturbations, whose highest sample seeds a Newton polish.  The minimal
solution is even and the bubble centred, so the band and the polish run on
the system's even block, and the band is held as one array: a sweep moves
every sample with one stacked defect, one solve and one A-product.  The
Sobolev constant is the continuum one, in closed form.
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
    defect,
    energy,
    kernel_constant,
    row_products,
)
from .solver import measure, newton

# Path deformation in mountain_pass_search: samples along the path, sweep
# budget, sweeps between Newton polishes, the relative A-distance from the
# minimal solution below which a critical point counts as the same one, and
# the concentration scale of the bubble direction.  Every sweep is taken;
# a band that reaches no distinct point spends the whole budget.
# Most searches at N = 256 end within 200 sweeps.  Near s = 0.35, q = 0.5,
# lam ~ 0.0118-0.0128 the band creeps along a shallow even direction and
# its sweep count follows the last bits.  The budget covers what was
# measured there at one and two BLAS threads: the benchmark's ops took at
# most 660 sweeps, and bands from 1-ulp perturbations of the base at most
# 940 over 161 lam.  Near lam = 0.01234 a few perturbed bases in a hundred
# take longer (up to 1430), and their searches fail.
MP_SAMPLES = 33
MP_MAX_SWEEPS = 1000
MP_NEWTON_EVERY = 10
MP_DISTINCT_TOL = 1e-2
MP_BUBBLE_EPS = 0.02

# Concentration scales of the bubble rays in energy_gap_check.
GAP_EPS_LADDER = (0.08, 0.04, 0.02)


def gateaux_derivative(
    system: DiscreteSystem, params: ProblemParams, u: Field, phi: Field
) -> float:
    """Directional derivative of the functional at u in direction phi.

    The gradient is the nodal defect A u - massw (u^{-q} + lam u^{crit-1}).
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0.0:
        raise ParameterError("gradient needs a strictly positive field")
    return float(np.vecdot(defect(system, params, u), np.asarray(phi, dtype=float)))


def sobolev_constant(system: DiscreteSystem) -> float:
    """Best constant of the critical embedding, in the units of <A u, u> / cns.

    Cotsiolis & Tavoularis (J. Math. Anal. Appl. 295, 2004) give the
    continuum constant in the normalization of <A u, u>,

        S_CT = 2^{2s} pi^s Gamma((n+2s)/2) / Gamma((n-2s)/2) (Gamma(n/2)/Gamma(n))^{2s/n},

    which at n = 1 is (2 pi)^{2s} Gamma(1/2 + s) / Gamma(1/2 - s).  The value
    returned is S_CT / cns, so it depends on s alone, not on the grid.  The
    discrete minimum of the quotient (<A u, u> / cns) / |u|_crit^2 is no
    approximation of it: the quotient of a nodal vector does not depend on h,
    and its minimizer is a spike on one node.  Raises ParameterError unless n > 2s.
    """
    s = system.s
    if not 2.0 * s < 1.0:
        raise ParameterError(f"the critical embedding needs n > 2s, got s = {s}")
    s_ct = (2.0 * math.pi) ** (2.0 * s) * math.gamma(0.5 + s) / math.gamma(0.5 - s)
    return float(s_ct / kernel_constant(s))


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
) -> Bubble:
    """Cutoff extremal profile concentrated at scale eps.

    The profile (1 + |y|^2)^{-(1-2s)/2}, normalized to unit critical norm
    (its norm is pi^{(1-2s)/2} exactly) and rescaled by the best constant
    ``sobolev``, in ``sobolev_constant``'s units, is concentrated at scale
    eps, so its width is eps * sobolev^{1/(2s)}, and multiplied by a quintic
    taper that is 1 inside radius nu and 0 beyond 2 nu.  The center is the
    interval's midpoint and nu is a tenth of the interval length, so the
    support, of radius 2 nu, lies well inside the interval.
    """
    if not 0.0 < eps < math.inf:
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < sobolev < math.inf:
        raise ParameterError(f"sobolev constant must be positive and finite, got {sobolev}")
    nu = 0.1 * (grid.b - grid.a)
    center = 0.5 * (grid.a + grid.b)
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
    bound speaks about).
    """

    ok: bool
    sup_levels: tuple
    eps_ladder: tuple
    threshold: float
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
    vals = energy(system, params, base + np.outer(tg, direction))
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

    with S = cns * ``sobolev_constant`` the best constant in the
    normalization of <A u, u> that ``energy`` uses: along a ray t phi the
    critical energy 1/2 t^2 <A phi, phi> - (lam/crit) t^crit sum massw phi^crit
    peaks at s * Q^{1/(2s)} * lam^{-(1-2s)/(2s)}, Q = <A phi, phi> / |phi|_crit^2.
    The report also records whether the peaks decrease as eps shrinks.
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
    power = (kernel_constant(s) * sobolev) ** (1.0 / (2.0 * s))
    threshold = float(base_level + s * power * params.lam ** (-(1.0 - 2.0 * s) / (2.0 * s)))
    peaks_t = tuple(float(p) for p in peaks)
    decreasing = all(b <= a + 1e-12 for a, b in zip(peaks_t, peaks_t[1:]))
    smallest = peaks_t[int(np.argmin(GAP_EPS_LADDER))]
    return GapReport(
        ok=smallest < threshold,
        sup_levels=peaks_t,
        eps_ladder=GAP_EPS_LADDER,
        threshold=threshold,
        base_level=float(base_level),
        decreasing=decreasing,
    )


def _polish_critical_point(system, params, v0, floor, floor_level):
    """Newton on the unregularized gradient from v0, with acceptance gates.

    v0, the floor and the limit are fields of the even block of ``system``.
    The Jacobian here is indefinite (the critical term pushes down), so
    ``newton`` is asked for LU.  The limit is accepted only if the
    gradient of its lift has 2-norm below 1e-12 in ``system``, it stays in
    the cone above the floor, sits strictly above the floor level, and is
    A-distant from the floor; otherwise None.
    """
    block = system.even
    try:
        v, _ = newton(block, params, v0, spd=False)
    except ConvergenceError:
        return None
    if not np.linalg.norm(defect(system, params, system.lift(v))) < 1e-12:
        return None
    floor_norm = math.sqrt(max(np.vecdot(floor, block.apply(floor)), 1e-300))
    diff = v - floor
    dist = math.sqrt(max(np.vecdot(diff, block.apply(diff)), 0.0)) / floor_norm
    if dist > MP_DISTINCT_TOL and diff.min() >= -1e-8 and energy(block, params, v) > floor_level:
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
    (``make_bubble`` at scale MP_BUBBLE_EPS with ``sobolev_constant`` and
    the default cutoff) is relaxed by a climbing elastic band:
    every interior sample moves down the A-preconditioned gradient with the
    component along the path tangent removed, except the highest sample,
    which moves up that component instead.  Steps are capped by a quarter
    of the sample spacing, samples are projected onto the cone above the
    minimal solution, and the path is rebalanced by A-arclength each sweep.
    Every sweep is taken, so the path maximum may rise while the highest
    sample climbs.  When the highest sample is the one next to the minimal
    solution, the pass lies within one spacing of it: the path is cut at
    the first later sample below the minimal level, which becomes the new
    far end, and resampled, so the band resolves the pass.  Every
    MP_NEWTON_EVERY sweeps the highest sample seeds a Newton polish; the
    first polished point that is distinct from the minimal solution, inside
    the cone, and above its level is returned.  That point is a critical
    point above the minimal solution, not always at the lowest level of the
    band.  Each sweep appends one record (stage ``deform``) to ``trace``
    when one is supplied.

    The minimal solution is unique, hence even, and the bubble is centred,
    so the band and the polish run on the system's even block, with the
    bubble cut to the block's nodes: the path is one (MP_SAMPLES, k) array,
    and a sweep takes one stacked defect, one solve and one A-product of
    the tangents for every sample at once.  The block's energies and
    A-norms are those of the lifted fields, so the trace reads as in the
    full space.  A base that is not reflection-even to 1e-12 relative
    raises ParameterError.

    Returns the lifted second solution and its ``measure`` on the
    ``mountain-pass`` branch in the full system, whose iterations count
    the band's sweeps.  Raises ConvergenceError when MP_MAX_SWEEPS sweeps
    locate no such point; the message gives the budget and the last path
    maximum.
    """
    if params.lam <= 0.0:
        raise ParameterError("a second solution needs lam > 0")
    first = np.asarray(first, dtype=float)
    if first.min() <= 0.0:
        raise ParameterError("the base solution must be strictly positive")
    base = system.even_half(first, "the base solution")
    found, sweeps, last = _band(system, params, base, trace)
    if found is None:
        raise ConvergenceError(f"no distinct critical point located within {sweeps} sweeps; "
                               f"last level {last!r}")
    second = system.lift(found)
    return second, measure(system, params, second, sweeps, "mountain-pass")


def _band(system, params, base, trace):
    """Climbing elastic band from ``base``, a field of the even block.

    Returns (point, sweeps, last path maximum); the point is None when
    MP_MAX_SWEEPS sweeps locate none.
    """
    block = system.even
    # A^{-1} is formed once per band, so each sweep's solve of its stack of
    # defects is one product, one dgemm in row_products
    inverse = block.solve(np.eye(base.shape[0]))
    bubble = make_bubble(system.grid, params, MP_BUBBLE_EPS, sobolev_constant(system))
    direction = bubble.values[: base.shape[0]]
    base_level = energy(block, params, base)

    def anorms(V):
        return np.sqrt(np.maximum(np.vecdot(V, block.apply(V)), 0.0))

    def level(u):
        return energy(block, params, u)

    radius = 0.5
    while level(base + radius * direction) >= base_level and radius < 1e6:
        radius *= 2.0
    if radius >= 1e6:
        raise ConvergenceError("could not find a far endpoint below the base level")

    tgrid = np.linspace(0.0, 1.0, MP_SAMPLES)
    path = base + np.outer(tgrid * radius, direction)
    spacing = anorms(radius * direction) / (MP_SAMPLES - 1)

    def rebalance(p):
        # resample any number of rows onto MP_SAMPLES, evenly in A-arclength
        arc = np.concatenate([[0.0], np.cumsum(anorms(p[1:] - p[:-1]))])
        if arc[-1] <= 0.0:
            return p, 0.0
        rel = arc / arc[-1]
        t = tgrid[1:-1]
        i = np.clip(np.searchsorted(rel, t, side="right") - 1, 0, len(p) - 2)
        fr = ((t - rel[i]) / np.maximum(rel[i + 1] - rel[i], 1e-30))[:, None]
        mid = np.maximum(p[i] * (1.0 - fr) + p[i + 1] * fr, base)
        return np.vstack([p[:1], mid, p[-1:]]), arc[-1]

    levels = level(path)
    jmax = int(np.argmax(levels))
    for sweep in range(MP_MAX_SWEEPS):
        inner = path[1:-1]
        # D = A^{-1} G, so A D = G: of the sweep's vectors only the tangents
        # need an A-product
        G = defect(block, params, inner)
        D = row_products(inverse, G)
        tau = path[2:] - path[:-2]
        Atau = block.apply(tau)
        nt = np.sqrt(np.maximum(np.vecdot(tau, Atau), 0.0))
        # a zero tangent has no component to remove
        nt = np.where(nt > 0.0, nt, np.inf)
        coef = np.vecdot(G, tau) / nt / nt
        if 0 < jmax < MP_SAMPLES - 1:
            coef[jmax - 1] *= 2.0
        D = D - coef[:, None] * tau
        AD = G - coef[:, None] * Atau
        nd = np.sqrt(np.maximum(np.vecdot(D, AD), 0.0))
        cap = 0.25 * spacing
        step = np.where(nd <= cap, 1.0, cap / np.where(nd > 0.0, nd, 1.0))
        inner = np.maximum(inner - step[:, None] * D, base)
        path, arclen = rebalance(np.vstack([path[:1], inner, path[-1:]]))
        levels = level(path)
        jmax = int(np.argmax(levels))
        if jmax == 1:
            below = np.flatnonzero(levels[2:-1] < base_level)
            if below.size:
                path, arclen = rebalance(path[: below[0] + 3])
                levels = level(path)
                jmax = int(np.argmax(levels))
        spacing = arclen / (MP_SAMPLES - 1)
        if trace is not None:
            pg = anorms(block.solve(defect(block, params, path[jmax])))
            distinct = anorms(path[jmax] - base) / max(anorms(base), 1e-30) > MP_DISTINCT_TOL
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
            found = _polish_critical_point(system, params, path[jmax], base, base_level)
            if found is not None:
                return found, sweep + 1, float(levels[jmax])
    return None, MP_MAX_SWEEPS, float(levels.max())

