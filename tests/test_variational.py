"""Energy, duality pairing, concentration profiles, and the second solution.

The frozen energy scalar was computed in 50-digit arithmetic from the same
baseline field; everything else is structural (scaling identities, support
geometry, descent traces).
"""

import numpy as np
import pytest
from scipy.special import gamma

import fraclab.variational

from fraclab import (
    ConvergenceError,
    ParameterError,
    ProblemParams,
    assemble,
    build_grid,
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
from fraclab.operator import defect, jacobian, kernel_constant
from fraclab.solver import RESIDUAL_TOL
from fraclab.variational import golden_section_max

ENERGY_01_W256 = 3.2033391260834289
SOBOLEV_S04 = 3.4663701160510294


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


def test_sobolev_constant_frozen(system128):
    """S_CT / cns at s = 0.4, from 50-digit arithmetic"""
    S = sobolev_constant(system128)
    assert S == pytest.approx(SOBOLEV_S04, rel=1e-14, abs=0.0)
    assert sobolev_constant(system128) == S


def test_sobolev_constant_refines_downward(system128, system256):
    """the continuum constant bounds every discrete quotient from below, so
    refining the grid cannot lower it: it stays put"""
    s128 = sobolev_constant(system128)
    s256 = sobolev_constant(system256)
    assert 0.0 < s256 <= s128 + 1e-6
    assert s256 == s128


@pytest.mark.parametrize("s", [0.3, 0.4])
def test_sobolev_constant_does_not_depend_on_parity_of_n(s):
    even = sobolev_constant(assemble(build_grid(-1.0, 1.0, 256), s))
    odd = sobolev_constant(assemble(build_grid(-1.0, 1.0, 255), s))
    assert even == pytest.approx(odd, rel=1e-3)
    assert even == odd


@pytest.mark.parametrize("s", [0.3, 0.35, 0.4, 0.45])
def test_sobolev_constant_closed_form(s):
    """Cotsiolis & Tavoularis' constant, at n = 1, in the quotient's units,
    on any grid and any interval"""
    n = 1
    s_ct = (2.0 ** (2.0 * s) * np.pi ** s * gamma((n + 2.0 * s) / 2.0)
            / gamma((n - 2.0 * s) / 2.0) * (gamma(n / 2.0) / gamma(n)) ** (2.0 * s / n))
    S = sobolev_constant(assemble(build_grid(-1.0, 1.0, 256), s))
    assert type(S) is float
    assert kernel_constant(s) * S == pytest.approx(s_ct, rel=1e-14, abs=0.0)
    for a, b, n_nodes in [(-1.0, 1.0, 64), (-1.0, 1.0, 255), (0.25, 0.75, 128)]:
        assert sobolev_constant(assemble(build_grid(a, b, n_nodes), s)) == S
    with pytest.raises(ParameterError):
        sobolev_constant(assemble(build_grid(-1.0, 1.0, 16), 0.5))


@pytest.mark.parametrize("eps", [0.08, 0.02, 0.005])
def test_ray_peak_of_the_critical_energy(system256, eps):
    """along t phi the lab's critical energy
    1/2 t^2 <A phi, phi> - (lam/crit) t^crit sum massw phi^crit peaks at
    s Q^{1/(2s)} lam^{-(1-2s)/(2s)}, Q = <A phi, phi> / (sum massw phi^crit)^{2/crit}:
    the normalization of energy_gap_check's threshold"""
    # q < 1 keeps the singular term finite where the bubble vanishes
    p = ProblemParams(s=0.4, q=0.5, lam=0.03)
    s, lam = p.s, p.lam
    phi = make_bubble(system256.grid, p, eps, sobolev_constant(system256)).values
    a_phi = float(phi @ system256.stiffness @ phi)
    no_lam = p.with_lam(0.0)

    def level(t):
        # the lam-term of the lab's energy, with the quadratic term added back
        u = t * phi
        return 0.5 * t * t * a_phi + energy(system256, p, u) - energy(system256, no_lam, u)

    mass = float(np.sum(system256.massw * phi ** p.crit))
    t_star = (a_phi / (lam * mass)) ** (1.0 / (p.crit - 2.0))
    q_a = a_phi / mass ** (2.0 / p.crit)
    peak = s * q_a ** (1.0 / (2.0 * s)) * lam ** (-(1.0 - 2.0 * s) / (2.0 * s))
    assert level(t_star) == pytest.approx(peak, rel=1e-12)
    assert level(0.99 * t_star) < level(t_star) > level(1.01 * t_star)


def test_bubble_geometry(grid128, system128):
    p = ProblemParams(s=0.4, q=2.0, lam=0.05)
    S = sobolev_constant(system128)
    b = make_bubble(grid128, p, eps=0.05, sobolev=S)
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
    """the cutoff radius is a tenth of the interval length about its midpoint,
    so the support (twice the radius) has room on every interval"""
    p = ProblemParams(s=0.4, q=2.0, lam=0.05)
    S = sobolev_constant(system128)
    for a, b in [(-1.0, 1.0), (0.25, 0.75), (-0.5, 1.5), (3.0, 3.001)]:
        grid = build_grid(a, b, 64)
        bub = make_bubble(grid, p, eps=0.05, sobolev=S)
        assert bub.nu == 0.1 * (b - a) and bub.center == 0.5 * (a + b)
        assert np.all(bub.values[np.abs(grid.nodes - bub.center) >= 2.0 * bub.nu] == 0.0)
        assert bub.values.max() > 0.0
    # non-finite scales are rejected as parameters, not left to scipy
    for eps, sobolev in [(np.nan, 3.8), (np.inf, 3.8), (0.05, np.nan)]:
        with pytest.raises(ParameterError):
            make_bubble(grid128, p, eps=eps, sobolev=sobolev)


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
        b = make_bubble(grid256, p, eps=eps, sobolev=S)
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
    # the ray peak at the best constant in A's normalization (see
    # test_ray_peak_of_the_critical_energy), not at sobolev_constant alone
    q_a = kernel_constant(p.s) * sobolev_constant(system128)
    rise = p.s * q_a ** (1.0 / (2.0 * p.s)) * p.lam ** (-(1.0 - 2.0 * p.s) / (2.0 * p.s))
    assert gap.threshold - gap.base_level == pytest.approx(rise, rel=1e-12)
    assert type(gap.ok) is bool
    assert gap.ok
    assert bool(gap)


def test_stacked_ray_levels_match_single_calls(system128, params_s04q2):
    # the gap check's 800-point ray grid is one stacked energy call, whose
    # quadratic term is one dgemm; its levels agree with one call per point
    # to rounding (1.0e-14 relative with the wheels named in
    # test_row_products_match_matmul_bit_for_bit)
    p = params_s04q2.with_lam(0.05)
    u, _ = monotone_iteration(system128, p)
    bub = make_bubble(system128.grid, p, 0.02, sobolev_constant(system128))
    tg = np.linspace(0.0, 8.0, 800)
    stacked = energy(system128, p, u + np.outer(tg, bub.values))
    single = [energy(system128, p, u + t * bub.values) for t in tg]
    np.testing.assert_allclose(stacked, single, rtol=1e-13, atol=0.0)


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


def test_index_one_second_solutions_lie_below_the_compactness_threshold():
    """the paper's inequality on a fixed grid: every second solution of Morse
    index 1 (one negative eigenvalue of the full Jacobian) has energy above
    the minimal solution's level I(u_lam) and below energy_gap_check's
    threshold I(u_lam) + s S^{1/(2s)} lam^{-(1-2s)/(2s)}"""
    index_one = 0
    for s, q in [(0.3, 1.0), (0.35, 0.5), (0.4, 2.0), (0.45, 3.0)]:  # perfbench/table.json
        system = assemble(build_grid(-1.0, 1.0, 128), s)
        base = ProblemParams(s=s, q=q)
        star = estimate_lambda_star(system, base).estimate
        for f in (0.5, 0.7, 0.9):
            p = base.with_lam(f * star)
            first, frep = monotone_iteration(system, p, bound=scan_supersolution(system, p).values)
            assert frep.converged
            second, rep = mountain_pass_search(system, p, first)
            mu = np.linalg.eigvalsh(jacobian(system, p, second))
            assert np.abs(mu).min() > 1e-6, "an eigenvalue of J too close to zero to read the index"
            if np.count_nonzero(mu < 0.0) == 1:
                index_one += 1
                gap = energy_gap_check(system, p, first)
                assert gap.base_level < rep.energy < gap.threshold
    assert index_one >= 9  # 11 of the 12 points


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


def test_mountain_pass_resolves_a_pass_next_to_the_base():
    # the pass lies within one band spacing of the minimal solution: the
    # uncut band's peak walked onto it after 123 sweeps
    system = assemble(build_grid(-1.0, 1.0, 256), 0.4)
    p = ProblemParams(s=0.4, q=2.0, lam=0.0158003)
    sup = scan_supersolution(system, p)
    u_min, min_rep = monotone_iteration(system, p, bound=sup.values)
    assert min_rep.converged
    v, rep = mountain_pass_search(system, p, u_min)
    assert rep.converged and rep.residual <= RESIDUAL_TOL
    assert (v - u_min).min() >= -1e-8
    assert rep.energy > energy(system, p, u_min)


def test_mountain_pass_spends_more_than_200_sweeps():
    # a band in the window s = 0.35, q = 0.5, lam ~ 0.012 takes 400 sweeps
    # here at one and at two BLAS threads, so a budget of 200 would fail it
    system = assemble(build_grid(-1.0, 1.0, 256), 0.35)
    p = ProblemParams(s=0.35, q=0.5, lam=0.012345)
    sup = scan_supersolution(system, p)
    u_min, min_rep = monotone_iteration(system, p, bound=sup.values)
    assert min_rep.converged
    v, rep = mountain_pass_search(system, p, u_min)
    assert 200 < rep.iterations <= fraclab.variational.MP_MAX_SWEEPS
    assert rep.converged and rep.residual <= RESIDUAL_TOL
    assert (v - u_min).min() >= -1e-8
    assert rep.energy > energy(system, p, u_min)


def test_mountain_pass_on_odd_grid_is_even(params_s04q2):
    # the band runs on the even block, whose middle node is unpaired at odd N
    system = assemble(build_grid(-1.0, 1.0, 127), 0.4)
    p = params_s04q2.with_lam(0.03)
    u_min, min_rep = monotone_iteration(system, p)
    assert min_rep.converged
    v, rep = mountain_pass_search(system, p, u_min)
    assert np.array_equal(v, v[::-1])
    assert rep.converged and rep.residual <= RESIDUAL_TOL
    assert np.linalg.norm(defect(system, p, v)) < 1e-12
    assert (v - u_min).min() >= -1e-8
    assert np.abs(v - u_min).max() >= 0.1 * u_min.max()
    assert rep.energy > energy(system, p, u_min)


def test_mountain_pass_needs_an_even_base(system128, params_s04q2):
    p = params_s04q2.with_lam(0.03)
    u_min, _ = monotone_iteration(system128, p)
    tilted = u_min.copy()
    tilted[0] *= 1.0 + 1e-9
    with pytest.raises(ParameterError, match="reflection-even"):
        mountain_pass_search(system128, p, tilted)


def test_band_sweep_is_one_stacked_defect(monkeypatch):
    # a sweep evaluates every interior sample of the even-block band at once
    system = assemble(build_grid(-1.0, 1.0, 64), 0.4)
    p = ProblemParams(s=0.4, q=2.0, lam=0.03)
    u_min, _ = monotone_iteration(system, p)
    shapes = []

    def spy(sys_, params, u, *args):
        shapes.append(np.shape(u))
        return defect(sys_, params, u, *args)

    monkeypatch.setattr(fraclab.variational, "defect", spy)
    monkeypatch.setattr(fraclab.variational, "MP_MAX_SWEEPS", 5)
    with pytest.raises(ConvergenceError, match=r"within 5 sweeps; last level [^;]*$"):
        mountain_pass_search(system, p, u_min)
    # one stacked defect in each of the five sweeps
    assert shapes == [(fraclab.variational.MP_SAMPLES - 2, 32)] * 5


@pytest.fixture(scope="module")
def polish_case():
    # the even-block floor and second solution at s = 0.4, q = 2, lam = 0.02
    system = assemble(build_grid(-1.0, 1.0, 64), 0.4)
    p = ProblemParams(s=0.4, q=2.0, lam=0.02)
    u_min, min_rep = monotone_iteration(system, p)
    assert min_rep.converged
    v, rep = mountain_pass_search(system, p, u_min)
    assert rep.converged
    floor = system.even_half(u_min, "floor")
    return system, p, floor, energy(system.even, p, floor), system.even_half(v, "second")


def test_polish_from_the_floor_is_not_distinct(polish_case):
    # Newton stays on the minimal solution: its gradient passes the first
    # gate, and the last one rejects it, as it is not distant from the floor
    # (nor above the floor's level)
    system, p, floor, floor_level, _ = polish_case
    v, _ = fraclab.variational.newton(system.even, p, floor)
    assert np.linalg.norm(defect(system, p, system.lift(v))) < 1e-12
    assert np.abs(v - floor).max() <= 1e-10 * floor.max()
    polish = fraclab.variational._polish_critical_point
    assert polish(system, p, floor, floor, floor_level) is None


def test_polish_rejects_a_limit_with_a_gradient(polish_case, monkeypatch):
    # the second solution passes every gate; scaled by 1 + 1e-6 it still
    # passes the distance, cone and level gates but not the gradient's
    system, p, floor, floor_level, second = polish_case
    polish = fraclab.variational._polish_critical_point
    assert polish(system, p, second, floor, floor_level) is not None
    monkeypatch.setattr(fraclab.variational, "newton", lambda sy, pa, u, spd: (u * (1.0 + 1e-6), 0))
    assert polish(system, p, second, floor, floor_level) is None
