"""Energy, duality pairing, concentration profiles, and the second solution.

The frozen energy scalar was computed in 50-digit arithmetic from the same
baseline field; everything else is structural (scaling identities, support
geometry, descent traces).
"""

import numpy as np
import pytest

from fraclab import (
    ConvergenceError,
    ParameterError,
    ProblemParams,
    assemble,
    build_grid,
    critical_quotient,
    energy,
    energy_gap_check,
    estimate_lambda_star,
    gateaux_derivative,
    make_bubble,
    monotone_iteration,
    mountain_pass_search,
    scan_supersolution,
    sobolev_constant,
    solve_pure_singular,
    weak_residual,
)
from fraclab.solver import RESIDUAL_TOL
from fraclab.variational import golden_section_max

ENERGY_01_W256 = 3.2033391260834289
SOBOLEV_128_S04 = 3.8383278900415014


def test_energy_frozen_scalar(system256, params_s04q2, w256):
    val = energy(system256, params_s04q2.with_lam(0.1), w256)
    assert val == pytest.approx(ENERGY_01_W256, rel=1e-6)


def test_energy_monotone_in_lambda(system128, params_s04q2, w128):
    vals = [energy(system128, params_s04q2.with_lam(l), w128) for l in (0.0, 0.05, 0.1)]
    assert vals[0] > vals[1] > vals[2]


def test_energy_zero_field_branches(system64):
    zero = np.zeros(64)
    mild = ProblemParams(s=0.4, q=0.5)
    assert energy(system64, mild, zero) == 0.0
    strong = ProblemParams(s=0.4, q=2.0)
    assert energy(system64, strong, zero) == np.inf


def test_energy_log_branch_consistency(system64):
    """q = 1 switches the singular term to a logarithm; check it against
    a central difference of the full functional"""
    p = ProblemParams(s=0.4, q=1.0, lam=0.02)
    u, _ = solve_pure_singular(system64, p)
    phi = np.sin(np.pi * (system64.grid.nodes + 1.0))
    t = 1e-6
    fd = (energy(system64, p, u + t * phi) - energy(system64, p, u - t * phi)) / (2 * t)
    pairing = gateaux_derivative(system64, p, u, phi)
    assert fd == pytest.approx(pairing, rel=1e-5, abs=1e-8)


def test_gateaux_zero_direction(system128, params_s04q2, w128):
    assert gateaux_derivative(system128, params_s04q2, w128, np.zeros(128)) == 0.0


def test_duality_at_solution(system128, params_s04q2, w128):
    """residual below 1e-7 forces a tiny pairing in every basis direction"""
    assert weak_residual(system128, params_s04q2, w128) <= 1e-7
    A = system128.stiffness
    for i in range(0, 128, 13):
        e = np.zeros(128)
        e[i] = 1.0
        norm_e = float(np.sqrt(A[i, i]))
        assert abs(gateaux_derivative(system128, params_s04q2, w128, e)) <= 1e-6 * norm_e


def test_gateaux_matches_finite_differences(system64, rng):
    p = ProblemParams(s=0.4, q=2.0, lam=0.05)
    w, _ = solve_pure_singular(system64, p)
    for _ in range(5):
        u = w + 0.3 * np.abs(rng.standard_normal(64))
        phi = rng.standard_normal(64)
        t = 1e-6 * u.max() / np.abs(phi).max()
        fd = (energy(system64, p, u + t * phi) - energy(system64, p, u - t * phi)) / (2 * t)
        pairing = gateaux_derivative(system64, p, u, phi)
        assert fd == pytest.approx(pairing, rel=1e-4, abs=1e-10)


def test_critical_quotient_scale_invariant(system128, rng):
    u = np.abs(rng.standard_normal(128)) + 0.1
    q1 = critical_quotient(system128, u)
    q2 = critical_quotient(system128, 37.5 * u)
    assert q1 > 0.0
    assert q2 == pytest.approx(q1, rel=1e-8)
    with pytest.raises(ParameterError):
        critical_quotient(system128, np.zeros(128))


def test_sobolev_constant_frozen(system128):
    S = sobolev_constant(system128)
    assert S == pytest.approx(SOBOLEV_128_S04, rel=1e-9)
    # computed once per system
    assert sobolev_constant(system128) is S


def test_sobolev_constant_refines_downward(system128, system256):
    """the discrete minimum can only drop when the space grows finer"""
    s128 = sobolev_constant(system128)
    s256 = sobolev_constant(system256)
    assert 0.0 < s256 <= s128 + 1e-6


def test_sobolev_constant_start_behavior(system128, grid128, rng):
    """smooth starts reach the same minimizer; rough starts can stall on a
    higher critical point but never report less than the minimum"""
    S = sobolev_constant(system128)
    smooth = (1.0 - grid128.nodes**2) ** 2
    assert sobolev_constant(system128, start=smooth) == pytest.approx(S, abs=1e-9)
    rough = np.abs(rng.standard_normal(128)) + 0.5
    assert sobolev_constant(system128, start=rough) >= S - 1e-9


def test_bubble_geometry(grid128, system128):
    p = ProblemParams(s=0.4, q=2.0, lam=0.05)
    S = sobolev_constant(system128)
    b = make_bubble(grid128, p, eps=0.05, sobolev=S, nu=0.1)
    x = grid128.nodes
    r = np.abs(x - b.center)
    pw = (1.0 - 2.0 * p.s) / 2.0
    # plateau: exact rescaled optimizer inside the cutoff radius
    core = b.alpha * (b.beta**2 + r**2) ** (-pw)
    inside = r <= b.nu
    np.testing.assert_allclose(b.values[inside], core[inside], rtol=1e-12)
    # support: identically zero beyond twice the cutoff radius
    assert np.all(b.values[r >= 2.0 * b.nu] == 0.0)
    # taper: between zero and the core profile in the collar
    collar = (r > b.nu) & (r < 2.0 * b.nu)
    assert np.all(b.values[collar] >= 0.0)
    assert np.all(b.values[collar] <= core[collar] + 1e-15)
    # closed-form coefficients
    assert b.alpha == pytest.approx(
        0.05**pw * S ** (pw / p.s) / np.pi**pw, rel=1e-12
    )
    assert b.beta == pytest.approx(0.05 * S ** (1.0 / (2.0 * p.s)), rel=1e-12)


def test_bubble_needs_room(grid128, system128):
    p = ProblemParams(s=0.4, q=2.0, lam=0.05)
    with pytest.raises(ParameterError):
        make_bubble(grid128, p, eps=0.05, sobolev=3.8, nu=0.3)
    # non-finite scales are rejected as parameters, not left to scipy
    for eps, sobolev, nu in [
        (np.nan, 3.8, 0.1), (np.inf, 3.8, 0.1), (0.05, np.nan, 0.1), (0.05, 3.8, np.nan),
    ]:
        with pytest.raises(ParameterError):
            make_bubble(grid128, p, eps=eps, sobolev=sobolev, nu=nu)


@pytest.mark.xfail(
    strict=True,
    reason="the cutoff discards a slowly decaying tail, so the critical mass "
    "of the two finest profiles still differs by more than ten percent",
)
def test_bubble_concentration_mass(grid256, system256):
    p = ProblemParams(s=0.4, q=2.0, lam=0.05)
    S = sobolev_constant(system256)
    masses = []
    for eps in (0.02, 0.01):
        b = make_bubble(grid256, p, eps=eps, sobolev=S, nu=0.1)
        masses.append(float(np.sum(system256.massw * b.values**p.crit)))
    assert masses[1] == pytest.approx(masses[0], rel=0.1)


def test_golden_section_evaluates_each_point_once():
    calls = []

    def f(t):
        calls.append(t)
        return -(t - 0.3) ** 2

    t = golden_section_max(f, 0.0, 1.0, 1e-10)
    assert abs(t - 0.3) <= 1e-10
    assert len(calls) == len(set(calls))
    # two initial points, then one per bracket shrink by the golden ratio
    shrinks = int(np.ceil(np.log(1e-10) / np.log((np.sqrt(5.0) - 1.0) / 2.0)))
    assert len(calls) == shrinks + 2


def test_energy_gap_report(system128, params_s04q2):
    p = params_s04q2.with_lam(0.05)
    u, rep = monotone_iteration(system128, p)
    assert rep.converged
    gap = energy_gap_check(system128, p, u)
    assert gap.eps_ladder == (0.08, 0.04, 0.02)
    assert len(gap.sup_levels) == 3
    assert gap.decreasing
    assert gap.sup_levels[0] > gap.sup_levels[1] > gap.sup_levels[2]
    assert all(lev > gap.base_level for lev in gap.sup_levels)
    assert np.isfinite(gap.threshold) and gap.threshold > gap.base_level
    assert gap.threshold_unscaled > gap.base_level
    assert gap.ok
    assert gap.all_below
    assert bool(gap)


def test_mountain_pass_second_solution(system128, params_s04q2):
    star = estimate_lambda_star(system128, params_s04q2)
    lam = 0.5 * star.estimate
    p = params_s04q2.with_lam(lam)
    sup = scan_supersolution(system128, p)
    u_min, min_rep = monotone_iteration(system128, p, bound=sup.values)
    assert min_rep.converged

    trace = []
    v, rep = mountain_pass_search(system128, p, u_min, trace=trace)
    assert rep.branch == "mountain-pass"
    assert rep.converged and rep.residual <= RESIDUAL_TOL

    # genuinely second: far from the minimal solution, above its level,
    # and still inside the cone over it
    sep = np.abs(v - u_min).max() / np.abs(u_min).max()
    assert sep >= 0.1
    assert (v - u_min).min() >= -1e-8
    assert energy(system128, p, v) > energy(system128, p, u_min)

    # saddle level sits below the concentration threshold
    gap = energy_gap_check(system128, p, u_min)
    assert energy(system128, p, v) <= gap.threshold + 1e-6

    assert trace
    assert all(e["stage"] == "deform" for e in trace), "every trace record is a deformation sweep"
    # the climbing band's peak may rise from sweep to sweep; what the method
    # promises is a critical level above the minimum and below the first peak
    assert energy(system128, p, u_min) < rep.energy <= trace[0]["level"]


@pytest.mark.parametrize("s, q, lam", [
    (0.4, 2.0, 0.0153), (0.35, 0.5, 0.0123), (0.45, 3.0, 0.0047), (0.3, 1.0, 0.032),
])
def test_mountain_pass_takes_rising_sweeps(s, q, lam):
    # each band raises its peak on the way to a second solution, so a search
    # that rejected rising sweeps would stall here
    system = assemble(build_grid(-1.0, 1.0, 128), s)
    p = ProblemParams(s=s, q=q, lam=lam)
    sup = scan_supersolution(system, p)
    u_min, min_rep = monotone_iteration(system, p, bound=sup.values)
    assert min_rep.converged
    v, rep = mountain_pass_search(system, p, u_min)
    # the benchmark's checks of a second solution
    assert rep.converged and rep.residual <= RESIDUAL_TOL
    assert (v - u_min).min() >= -1e-8
    assert rep.energy > energy(system, p, u_min)


def test_mountain_pass_needs_positive_lambda(system128, params_s04q2, w128):
    with pytest.raises((ParameterError, ConvergenceError)):
        mountain_pass_search(system128, params_s04q2, w128)
