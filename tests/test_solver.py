"""Tests for the singular Newton solver and the monotone machinery."""

import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraclab.operator
import fraclab.solver
from fraclab import (
    ConvergenceError,
    ParameterError,
    ProblemParams,
    assemble,
    build_grid,
    build_supersolution,
    comparison_check,
    default_multiplier_ladder,
    energy,
    envelope_check,
    estimate_lambda_star,
    extremal_solution,
    lambda_certificate,
    monotone_iteration,
    mountain_pass_search,
    principal_eigenpair,
    scan_supersolution,
    solve_pure_singular,
    solve_singular_semilinear,
    SupersolutionResult,
    weak_residual,
)
from fraclab.solver import (
    NEWTON_TRIALS,
    ORDER_SLACK,
    POSITIVITY_FLOOR,
    RESIDUAL_TOL,
    ladder_thresholds,
    measure,
    newton,
)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def ladder_solve(system, params, g=0.0, head=0.1, levels=15):
    """Reference solve: the dense regularization ladder.

    Level eps solves A u = massw ((u + eps)^{-q} + g).  A is linear, so that
    is the frozen-source problem in v = u + eps with source g + eps a1,
    a1 = (A 1) / massw.  A cold start from the linear solve with source
    head^{-q} + g, then damped Newton in v at eps = head 4^{-k}, k < levels,
    each warm from the level above, and finally at eps = 0.  Returns the
    field u = v - eps after each level and the total Newton steps; a failed
    level raises ConvergenceError.
    """
    base = params.with_lam(0.0)
    a1 = fraclab.operator.apply_operator(system, np.ones(system.grid.n)) / system.massw
    u = fraclab.operator.solve_dirichlet(system, head ** -params.q + g)
    fields, total = [], 0
    for eps in [head * 4.0 ** (-k) for k in range(levels)] + [0.0]:
        v, its = newton(system, base, u + eps, g + eps * a1)
        u = v - eps
        fields.append(u)
        total += its
    return fields, total


def test_pure_singular_baseline(system128, params_s04q2, w128):
    u, report = solve_pure_singular(system128, params_s04q2)
    assert report.converged
    assert report.branch == "pure-singular"
    assert report.residual <= 1e-10
    assert report.iterations > 0
    assert u.min() > 0.0
    np.testing.assert_array_equal(u, w128)
    # w depends on the system and q alone: solved once, kept read-only
    assert u is w128
    assert solve_pure_singular(system128, params_s04q2.with_lam(0.05))[1] is report
    with pytest.raises(ValueError):
        w128[0] = 1.0


def test_converged_flag_tracks_residual(system128, params_s04q2):
    _, report = solve_pure_singular(system128, params_s04q2)
    assert report.converged == (report.residual <= RESIDUAL_TOL)
    assert POSITIVITY_FLOOR > 0.0


def test_the_gate_lives_in_solver(monkeypatch):
    """every branch's verdict reads solver.RESIDUAL_TOL, so tightening it fails them all"""
    monkeypatch.setattr(fraclab.solver, "RESIDUAL_TOL", 1e-300)
    # a fresh system: w and its report are memoized per system
    system = assemble(build_grid(-1.0, 1.0, 32), 0.4)
    params = ProblemParams(s=0.4, q=2.0)
    lam = 0.5 * estimate_lambda_star(system, params).estimate
    _, wrep = solve_pure_singular(system, params)
    u, mrep = monotone_iteration(system, params.with_lam(lam))
    _, erep = extremal_solution(system, params, 2.0 * lam)
    _, vrep = mountain_pass_search(system, params.with_lam(lam), u)
    for rep in (wrep, mrep, erep, vrep):
        assert 0.0 < rep.residual < 1e-8
        assert not rep.converged, rep.branch


def _assert_measured(rep, system, params, u, g=0.0):
    """the report is its field's measure at the params and source it solves"""
    if not np.isfinite(rep.residual):
        return
    assert rep.residual == weak_residual(system, params, u, g)
    work = float(np.sum(system.massw * g * u)) if np.any(g) else 0.0
    assert rep.energy == energy(system, params, u) - work
    assert not rep.converged or rep.residual <= RESIDUAL_TOL


@settings(max_examples=12, deadline=None)
@given(
    s=st.floats(0.25, 0.49),
    q=st.floats(0.3, 4.0),
    f=st.floats(0.1, 0.9),
    n=st.integers(8, 64),
    g_scale=st.floats(0.0, 10.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_every_report_is_measured(s, q, f, n, g_scale, seed):
    system = assemble(build_grid(-1.0, 1.0, n), s)
    params = ProblemParams(s=s, q=q)
    base = params.with_lam(0.0)
    w, wrep = solve_pure_singular(system, params)
    _assert_measured(wrep, system, base, w)
    g = g_scale * np.random.default_rng(seed).random(n)
    z, zrep = solve_singular_semilinear(system, params, g)
    _assert_measured(zrep, system, base, z, g)
    p = params.with_lam(f * ladder_thresholds(system, params)[1])
    u, mrep = monotone_iteration(system, p)
    _assert_measured(mrep, system, p, u)
    if mrep.converged:
        try:
            v, vrep = mountain_pass_search(system, p, u)
        except ConvergenceError:
            return
        _assert_measured(vrep, system, p, v)


def test_auxiliary_energy_is_stationary_at_its_solution():
    """the energy of a solve with a source includes the source's work, so
    the solution is a critical point of it"""
    system = assemble(build_grid(-1.0, 1.0, 64), 0.4)
    params = ProblemParams(s=0.4, q=2.0)
    u, rep = solve_singular_semilinear(system, params, 2.0)
    assert rep.converged
    phi = np.random.default_rng(0).standard_normal(64)
    t = 1e-4

    def level(v):
        return measure(system, params, v, 0, "auxiliary", 2.0).energy

    assert level(u) == rep.energy
    assert abs(level(u + t * phi) - level(u - t * phi)) / (2.0 * t) <= 1e-6


def test_weak_residual_detects_perturbation(system128, params_s04q2, w128):
    assert weak_residual(system128, params_s04q2, w128) <= 1e-10
    assert weak_residual(system128, params_s04q2, w128 * 1.05) > 1e-4


def test_stagewise_monotonicity(system128, params_s04q2):
    """the ladder's iterates grow as the regularization shrinks"""
    fields, _ = ladder_solve(system128, params_s04q2)
    assert len(fields) == 16
    for prev, cur in zip(fields, fields[1:]):
        assert (cur - prev).min() >= -1e-9


def test_one_newton_beats_dense_ladder(system128, params_s04q2, w128):
    """one Newton from the boundary-shaped start reaches the ladder's w in half its steps"""
    u, rep = solve_singular_semilinear(system128, params_s04q2)
    # w128 is solved on the even block: the same field to rounding
    assert np.abs(u - w128).max() <= 1e-13 * np.abs(u).max()
    fields, steps = ladder_solve(system128, params_s04q2)
    dense = fields[-1]
    assert rep.converged
    assert weak_residual(system128, params_s04q2, dense) <= RESIDUAL_TOL
    assert np.abs(u - dense).max() <= 1e-13 * np.abs(dense).max()
    assert 2 * rep.iterations <= steps


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.05, 0.49),
    q=st.floats(0.1, 5.0),
    n=st.sampled_from([16, 32, 64]),
)
@example(s=0.4, q=0.5, n=16)
# large q at large N: from the torsion shape d^s, without w's boundary shape
# d^{2s/(q+1)}, each step raised a boundary node by about a factor 1 + 1/q
# and these ran out of their 60 steps
@example(s=0.49, q=30.0, n=1024)
@example(s=0.45, q=25.0, n=1024)
@example(s=0.25, q=60.0, n=256)
@example(s=0.4, q=400.0, n=16)
def test_pure_singular_converges(s, q, n):
    system = assemble(build_grid(-1.0, 1.0, n), s)
    _, rep = solve_pure_singular(system, ProblemParams(s=s, q=q))
    assert rep.converged
    assert rep.residual <= RESIDUAL_TOL
    assert rep.iterations <= 8


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.15, 0.49),
    q=st.floats(0.1, 5.0),
    n=st.sampled_from([15, 16, 31, 64]),
    a=st.floats(-3.0, 3.0),
    width=st.floats(0.5, 4.0),
)
@example(s=0.4, q=2.0, n=15, a=-1.0, width=2.0)
# the smallest grids: a 1 x 1 block at N = 2, a 2 x 2 one at N = 3
@example(s=0.3, q=1.0, n=2, a=-1.0, width=2.0)
@example(s=0.3, q=1.0, n=3, a=-1.0, width=2.0)
def test_even_block_w_matches_full_space(s, q, n, a, width):
    """w solved on the even block and lifted is the full-space solution to rounding"""
    system = assemble(build_grid(a, a + width, n), s)
    params = ProblemParams(s=s, q=q)
    w, rep = solve_pure_singular(system, params)
    _, half = solve_singular_semilinear(system.even, params)
    u, full = solve_singular_semilinear(system, params)
    assert np.array_equal(w, w[::-1])
    assert rep.converged and rep.residual <= RESIDUAL_TOL
    assert weak_residual(system, params, w) == rep.residual
    assert np.abs(w - u).max() <= 1e-13 * np.abs(u).max()
    assert rep.iterations == half.iterations
    # both start from the same reshaped torsion field; the step test sees
    # |v| ~ |u|/sqrt(2), so the two solves stop one step apart at most
    assert abs(half.iterations - full.iterations) <= 1


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.05, 0.49),
    q=st.floats(0.1, 20.0),
    n=st.sampled_from([15, 16, 64]),
    a=st.floats(-3.0, 3.0),
    width=st.floats(0.5, 4.0),
    g_scale=st.sampled_from([0.0, 1.0, 200.0]),
    seed=st.integers(0, 2**16),
)
@example(s=0.25, q=60.0, n=64, a=-1.0, width=2.0, g_scale=0.0, seed=0)
# below the M-matrix threshold the linear solution with source g dips to -8
@example(s=0.125, q=1.5, n=15, a=0.0, width=1.0, g_scale=200.0, seed=0)
def test_one_newton_matches_ladder(s, q, n, a, width, g_scale, seed):
    """wherever the dense ladder converges, the one Newton does and lands on its field"""
    system = assemble(build_grid(a, a + width, n), s)
    params = ProblemParams(s=s, q=q)
    g = g_scale * np.random.default_rng(seed).uniform(0.0, 1.0, n)
    try:
        # below the M-matrix threshold a rough g can push the ladder's cold
        # start below zero, where (u + eps)^{-q} is NaN
        with np.errstate(invalid="raise"):
            fields, _ = ladder_solve(system, params, g)
        ref = fields[-1]
        ref_ok = np.abs(fraclab.operator.defect(system, params, ref, g)).max() <= RESIDUAL_TOL
    except (ConvergenceError, FloatingPointError):
        ref_ok = False
    if not (ref_ok or g_scale == 0.0):
        return
    # w always converges, even where the ladder does not (s = 0.25, q = 60)
    u, rep = solve_singular_semilinear(system, params, g)
    assert rep.converged and rep.residual <= RESIDUAL_TOL
    assert u.min() > 0.0
    if ref_ok:
        assert np.abs(u - ref).max() <= 1e-13 * np.abs(ref).max()


def test_newton_evaluates_each_defect_once(monkeypatch):
    """the accepted trial's defect seeds the next step: evaluations = 1 + line-search trials"""
    system = assemble(build_grid(-1.0, 1.0, 64), 0.4)
    params = ProblemParams(s=0.4, q=2.0)
    u0 = fraclab.operator.solve_dirichlet(system, 0.1 ** -2.0)
    fields, iterates = [], []
    real_defect = fraclab.solver.defect
    real_jacobian = fraclab.solver.jacobian

    def recording_defect(system, params, u, g=0.0):
        fields.append(u.copy())
        return real_defect(system, params, u, g)

    def recording_jacobian(system, params, u):
        iterates.append(u.copy())
        return real_jacobian(system, params, u)

    monkeypatch.setattr(fraclab.solver, "defect", recording_defect)
    monkeypatch.setattr(fraclab.solver, "jacobian", recording_jacobian)
    u, its = newton(system, params, u0)
    assert its == len(iterates) >= 5
    accepted = iterates[1:] + [u]
    # a rejected trial is a field that never became an iterate
    rejected = [f for f in fields[1:] if not any(np.array_equal(f, v) for v in accepted)]
    assert np.array_equal(fields[0], u0)
    assert len(fields) == 1 + len(accepted) + len(rejected)
    for v in accepted:
        assert sum(np.array_equal(f, v) for f in fields) == 1


def test_newton_returns_converged_start(monkeypatch):
    """at rounding-level defect no step lowers it: Newton returns the iterate
    after its NEWTON_TRIALS trials, since its Newton step is within
    NEWTON_STEP_TOL"""
    system = assemble(build_grid(-1.0, 1.0, 16), 0.3)
    params = ProblemParams(s=0.3, q=1.0)
    # converged in the full space (the even-block w is converged in its own)
    w, rep = solve_singular_semilinear(system, params)
    assert rep.converged
    # the start is a point where newton itself last returned through its
    # stall branch: a converged field can still take a rounding-level step
    for _ in range(3):
        w, its = newton(system, params, w)
        if its == 0:
            break
    assert its == 0
    real_defect = fraclab.solver.defect
    counted = []

    def counting_defect(system, params, u, g=0.0):
        counted.append(1)
        return real_defect(system, params, u, g)

    monkeypatch.setattr(fraclab.solver, "defect", counting_defect)
    u, its = newton(system, params, w)
    assert its == 0 and len(counted) == 1 + NEWTON_TRIALS
    np.testing.assert_array_equal(u, w)


def test_newton_line_search_stops_at_its_last_trial(monkeypatch):
    """trials t = 1, ..., 2^-21 that never descend end the line search: it stalls"""
    assert NEWTON_TRIALS == 22
    last = 2.0 ** -(NEWTON_TRIALS - 1)
    system = assemble(build_grid(-1.0, 1.0, 16), 0.3)
    params = ProblemParams(s=0.3, q=1.0)
    w, rep = solve_singular_semilinear(system, params)
    assert rep.converged
    real_defect = fraclab.solver.defect
    u0 = 1.01 * w
    r0 = real_defect(system, params, u0)
    fields = []

    def short_steps_descend(system, params, u, g=0.0):
        # a trial u0 + t du reads a lower norm than r0 only below the last
        # trial's t; t is its distance from u0 over the first trial's
        fields.append(u.copy())
        if len(fields) == 1:
            return r0
        t = np.linalg.norm(u - u0) / np.linalg.norm(fields[1] - u0)
        return (0.5 if t < 0.5 * last else 2.0) * r0

    monkeypatch.setattr(fraclab.solver, "defect", short_steps_descend)
    with pytest.raises(ConvergenceError, match="line search stalled after 0 Newton steps"):
        newton(system, params, u0)
    assert len(fields) == 1 + NEWTON_TRIALS
    steps = [np.linalg.norm(f - fields[0]) for f in fields[1:]]
    np.testing.assert_allclose(np.array(steps) / steps[0], 2.0 ** -np.arange(NEWTON_TRIALS))


def test_newton_types_non_finite_defect_and_step(monkeypatch):
    """an overflowed source or an exactly singular LU raises ConvergenceError, not ValueError"""
    system = assemble(build_grid(-1.0, 1.0, 16), 0.4)
    params = ProblemParams(s=0.4, q=2.0)
    w, _ = solve_singular_semilinear(system, params)
    g = np.zeros(16)
    g[3] = np.inf
    with pytest.raises(ConvergenceError, match="non-finite defect"):
        newton(system, params, w, g)
    monkeypatch.setattr(fraclab.solver, "jacobian", lambda *args: np.zeros((16, 16), order="F"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lu_factor's singular-matrix warning
        with pytest.raises(ConvergenceError, match="non-finite step"):
            newton(system, params.with_lam(0.01), w, spd=False)
    # a Jacobian with no Cholesky factor: typed, not scipy's LinAlgError
    with pytest.raises(ConvergenceError, match="not positive definite after 0 Newton steps"):
        newton(system, params.with_lam(0.01), w)


def test_newton_types_overflowed_jacobian():
    """u^{-q} finite but u^{-q-1} past the float range: ConvergenceError, not scipy's ValueError"""
    system = assemble(build_grid(-1.0, 1.0, 32), 0.4)
    params = ProblemParams(s=0.4, q=40.0)
    u = np.ones(32)
    u[5] = 2.5e-8
    assert np.isfinite(fraclab.operator.defect(system, params, u)).all()
    with pytest.raises(ConvergenceError, match="non-finite Jacobian diagonal"):
        newton(system, params, u)


def test_steep_singularity_stays_silent():
    """trials whose defect norm overflows are rejected without numeric warnings"""
    system = assemble(build_grid(-1.0, 1.0, 16), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = solve_pure_singular(system, ProblemParams(s=0.3, q=20.0))
    assert rep.converged


def test_schedule_independence(system64, params_s04q2):
    """the one Newton and a ladder with another head land on the same solution"""
    u1, r1 = solve_singular_semilinear(system64, params_s04q2)
    fields, _ = ladder_solve(system64, params_s04q2, head=0.2, levels=16)
    assert r1.converged
    assert weak_residual(system64, params_s04q2, fields[-1]) <= RESIDUAL_TOL
    assert np.abs(u1 - fields[-1]).max() <= 1e-6


def test_source_validation(system64, params_s04q2):
    with pytest.raises(ParameterError):
        solve_singular_semilinear(system64, params_s04q2, g=-0.1)
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(ParameterError):
        solve_singular_semilinear(system64, params_s04q2, g=bad)
    with pytest.raises(ParameterError, match="does not match grid size"):
        solve_singular_semilinear(system64, params_s04q2, g=np.ones(63))


def test_monotone_in_source(system64, params_s04q2, rng):
    g1 = np.abs(rng.standard_normal(64))
    u1, _ = solve_singular_semilinear(system64, params_s04q2, g=g1)
    u2, _ = solve_singular_semilinear(system64, params_s04q2, g=g1 + 0.5)
    assert (u2 - u1).min() >= -1e-8


def test_comparison_check_verdicts(system64, params_s04q2, rng):
    g = np.abs(rng.standard_normal(64))
    bump = np.abs(rng.standard_normal(64)) * 0.3
    u1, _ = solve_singular_semilinear(system64, params_s04q2, g=g)
    u2, _ = solve_singular_semilinear(system64, params_s04q2, g=g + bump)
    report = comparison_check(system64, params_s04q2, u1, u2, g, g + bump)
    assert report.ordered
    assert not report.indeterminate
    assert bool(report)
    assert report.m_matrix  # s = 0.4 sits above the sign threshold

    # identical sources force identical solutions
    same = comparison_check(system64, params_s04q2, u1, u1, g, g)
    assert same.worst_gap >= -1e-12
    fields, _ = ladder_solve(system64, params_s04q2, g, head=0.3, levels=16)
    assert np.abs(fields[-1] - u1).max() <= 1e-6

    # non-solutions are flagged rather than judged
    vague = comparison_check(system64, params_s04q2, u1 * 1.1, u2, g, g + bump)
    assert vague.indeterminate
    assert not bool(vague)

    with pytest.raises(ParameterError):
        comparison_check(system64, params_s04q2, u1, u2, g + bump, g)


def test_build_supersolution_at_zero_lambda(system128, params_s04q2, w128):
    res = build_supersolution(system128, params_s04q2, M=0.0)
    assert res.valid
    assert res.attempts == 1
    assert res.worst_defect >= -1e-8
    assert (res.values - w128).min() >= -1e-12
    with pytest.raises(ParameterError):
        build_supersolution(system128, params_s04q2, M=-0.5)


def test_scan_supersolution_small_lambda(system128, params_s04q2):
    p = params_s04q2.with_lam(0.03)
    res = scan_supersolution(system128, p)
    assert res.valid
    assert res.multiplier == 2.0 ** -5
    assert res.attempts == 31
    assert res.worst_defect >= -1e-8


def test_scan_supersolution_exhausts_ladder(system128, params_s04q2, monkeypatch):
    spec = principal_eigenpair(system128)
    cert = lambda_certificate(params_s04q2, spec.value)
    p = params_s04q2.with_lam(10.0 * cert)
    # a fresh system, so its stiffness factor is not cached yet
    system = assemble(system128.grid, system128.s)
    factorizations = []
    real_cho_factor = fraclab.operator.cho_factor

    def counting_cho_factor(a, *args, **kwargs):
        factorizations.append(a.shape)
        return real_cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(fraclab.operator, "cho_factor", counting_cho_factor)
    res = scan_supersolution(system, p)
    assert not res.valid
    assert res.multiplier is None
    assert res.values is None
    assert res.attempts == len(default_multiplier_ladder())
    # every rung reuses the system's torsion field: A is factored at most once
    assert len(factorizations) <= 1


def per_rung_scan(system, params):
    """The ladder walked one rung at a time through the full defect."""
    w, _ = solve_pure_singular(system, params)
    ladder = default_multiplier_ladder()
    best = -np.inf
    for k, M in enumerate(ladder):
        ub = w + M * system.torsion
        with np.errstate(over="ignore"):
            worst = float(fraclab.operator.defect(system, params, ub).min())
        best = max(best, worst)
        if worst >= -ORDER_SLACK:
            return SupersolutionResult(True, M, ub, worst, k + 1)
    return SupersolutionResult(False, None, None, best, len(ladder))


@pytest.mark.parametrize("lam, attempts", [(1e-4, 14), (0.06, 34), (0.062, 81)])
def test_scan_matches_per_rung_reference(system128, params_s04q2, lam, attempts):
    """valid early, valid late and never valid: one pass gives the loop's verdict"""
    p = params_s04q2.with_lam(lam)
    res = scan_supersolution(system128, p)
    ref = per_rung_scan(system128, p)
    assert res.attempts == ref.attempts == attempts
    assert res.valid == ref.valid == (attempts < 81)
    assert res.multiplier == ref.multiplier
    if ref.valid:
        np.testing.assert_array_equal(res.values, ref.values)
    else:
        assert res.values is None
    assert abs(res.worst_defect - ref.worst_defect) <= 1e-12


def test_scan_evaluates_no_full_defect(system128, params_s04q2, monkeypatch):
    """the ladder's defects come from A w and A z, not one product per rung"""
    calls = []
    real_defect = fraclab.solver.defect

    def counting_defect(*args, **kwargs):
        calls.append(1)
        return real_defect(*args, **kwargs)

    monkeypatch.setattr(fraclab.solver, "defect", counting_defect)
    assert scan_supersolution(system128, params_s04q2.with_lam(0.03)).valid
    assert not scan_supersolution(system128, params_s04q2.with_lam(0.1)).valid
    assert build_supersolution(system128, params_s04q2.with_lam(0.03), 2.0 ** -5).valid
    assert not calls


def test_lambda_star_evaluates_the_ladder_once_per_q(monkeypatch):
    """the thresholds and both confirming scans read one evaluation of the ladder"""
    system = assemble(build_grid(-1.0, 1.0, 64), 0.4)  # fresh: nothing cached yet
    params = ProblemParams(s=0.4, q=2.0)
    calls = []
    real = fraclab.solver._ladder_defects

    def counting(*args):
        calls.append(args[1].q)
        return real(*args)

    monkeypatch.setattr(fraclab.solver, "_ladder_defects", counting)
    estimate_lambda_star(system, params)
    assert calls == [2.0]
    # lam plays no part in the ladder; another q is another ladder
    estimate_lambda_star(system, params.with_lam(0.01))
    estimate_lambda_star(system, ProblemParams(s=0.4, q=1.0))
    assert calls == [2.0, 1.0]


def _scan_fields(res):
    return (res.valid, res.multiplier, res.worst_defect, res.attempts)


@pytest.mark.parametrize("q", [0.5, 2.0])
def test_memoized_ladder_matches_a_fresh_evaluation(q):
    """bit for bit: the cache, and the thresholds and scans that read it"""
    grid = build_grid(-1.0, 1.0, 64)
    system = assemble(grid, 0.4)
    params = ProblemParams(s=0.4, q=q)
    res = estimate_lambda_star(system, params)
    fresh = fraclab.solver._ladder_defects(system, params, default_multiplier_ladder())
    for cached, direct in zip(fraclab.solver._default_ladder(system, params), fresh):
        np.testing.assert_array_equal(cached, direct)
    # a new system has nothing cached: each call below evaluates the ladder anew
    thresholds = ladder_thresholds(assemble(grid, 0.4), params)
    assert ladder_thresholds(system, params) == thresholds
    assert (res.bracket[0], res.estimate, res.bracket[1]) == thresholds
    for lam in res.bracket:
        p = params.with_lam(lam)
        memoized = scan_supersolution(system, p)
        unmemoized = scan_supersolution(assemble(grid, 0.4), p)
        assert _scan_fields(memoized) == _scan_fields(unmemoized)
        if unmemoized.valid:
            np.testing.assert_array_equal(memoized.values, unmemoized.values)
        else:
            assert memoized.values is None


def test_memoized_ladder_is_read_only(system128, params_s04q2):
    ladder = fraclab.solver._default_ladder(system128, params_s04q2)
    assert fraclab.solver._default_ladder(system128, params_s04q2.with_lam(0.03)) is ladder
    for a in ladder:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        ladder[1][0, 0] = 0.0
    # a scan hands out a copy of its rung, which the caller may change
    res = scan_supersolution(system128, params_s04q2.with_lam(0.03))
    assert res.values.flags.writeable
    assert not np.shares_memory(res.values, ladder[0])


@pytest.mark.parametrize("lam", [0.0, 0.03, 0.1])
def test_one_rung_supersolution_is_a_row_of_the_scan(system128, params_s04q2, lam):
    p = params_s04q2.with_lam(lam)
    ub, c, b = fraclab.solver._default_ladder(system128, p)
    worst = fraclab.solver._worst_defects(c, b, lam)
    for k, M in enumerate(default_multiplier_ladder()):
        one = build_supersolution(system128, p, M)
        np.testing.assert_array_equal(one.values, ub[k])
        assert one.worst_defect == worst[k]
        assert one.valid == (worst[k] >= -ORDER_SLACK)
    scan = scan_supersolution(system128, p)
    if scan.valid:
        one = build_supersolution(system128, p, scan.multiplier)
        np.testing.assert_array_equal(one.values, scan.values)
        assert one.worst_defect == scan.worst_defect
    else:
        assert scan.worst_defect == worst.max()


def test_lambda_star_near_half_order_stays_silent():
    """rungs whose critical term overflows (crit = 100) fail without warnings"""
    system = assemble(build_grid(-1.0, 1.0, 64), 0.49)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimate_lambda_star(system, ProblemParams(s=0.49, q=0.5))
    assert 0.0 < res.estimate < res.lambda_cert


@settings(max_examples=30, deadline=None)
@given(
    s=st.floats(0.25, 0.49),
    q=st.floats(0.1, 5.0),
    frac=st.floats(1e-4, 1.2),
    n=st.sampled_from([16, 32, 64, 128]),
)
def test_scan_verdicts_match_per_rung_reference(s, q, frac, n):
    system = assemble(build_grid(-1.0, 1.0, n), s)
    params = ProblemParams(s=s, q=q)
    cert = lambda_certificate(params, principal_eigenpair(system).value)
    p = params.with_lam(frac * cert)
    res = scan_supersolution(system, p)
    ref = per_rung_scan(system, p)
    assert (res.valid, res.multiplier, res.attempts) == (ref.valid, ref.multiplier, ref.attempts)


def test_monotone_iteration_fixed_at_zero_lambda(system128, params_s04q2, w128):
    u, report = monotone_iteration(system128, params_s04q2)
    assert report.converged
    assert report.iterations == 1
    assert np.abs(u - w128).max() <= 1e-8


def test_monotone_iteration_rejects_base_above_bound(system128, params_s04q2, w128):
    with pytest.raises(ParameterError):
        monotone_iteration(
            system128, params_s04q2.with_lam(0.03), base=w128, bound=w128 - 0.5
        )


def test_monotone_iteration_stops_at_an_escaped_bound(system128, params_s04q2, w128):
    """a bound below the minimal solution ends the run at the first
    iterate above it, unconverged and unmeasured"""
    trace = []
    u, report = monotone_iteration(
        system128, params_s04q2.with_lam(0.03), bound=w128 + 1e-3, trace=trace
    )
    assert not report.converged
    assert report.residual == np.inf and report.energy == np.inf
    assert report.iterations == len(trace) == 1 and not trace[0]["below_bound"]
    assert u.max() == trace[0]["sup"]


def test_monotone_iteration_trace(system128, params_s04q2, w128):
    p = params_s04q2.with_lam(0.03)
    sup = scan_supersolution(system128, p)
    assert sup.valid
    trace = []
    u, report = monotone_iteration(system128, p, bound=sup.values, trace=trace)
    assert report.converged
    assert report.branch == "minimal"
    assert report.residual <= 1e-8
    assert len(trace) == report.iterations
    for entry in trace:
        assert entry["min_increment"] >= -1e-10
        assert entry["below_bound"]
    # the limit is sandwiched between the baseline and the supersolution
    assert (u - w128).min() >= -1e-10
    assert (sup.values - u).min() >= -1e-8


def record_factors(monkeypatch):
    """(shape, factored) of every cho_factor call in ``solver`` and
    ``operator``, factored False for a matrix with no Cholesky factor; an
    lu_factor call in ``solver`` fails the test"""
    calls = []
    real_cho_factor = fraclab.solver.cho_factor

    def recording_cho_factor(a, *args, **kwargs):
        try:
            out = real_cho_factor(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            calls.append((a.shape, False))
            raise
        calls.append((a.shape, True))
        return out

    def refuse_lu(*args, **kwargs):
        raise AssertionError("lu_factor called")

    for module in (fraclab.solver, fraclab.operator):
        monkeypatch.setattr(module, "cho_factor", recording_cho_factor)
    monkeypatch.setattr(fraclab.solver, "lu_factor", refuse_lu)
    return calls


def test_monotone_steps_are_warm_newton_at_zero_eps(system128, params_s04q2, w128, monkeypatch):
    """each step is one Newton step of the full problem at lam on the even
    block, the first from w's half, factored with a half-size Cholesky"""
    jacobians = []
    real_jacobian = fraclab.solver.jacobian
    p = params_s04q2.with_lam(0.03)

    def recording_jacobian(system, params, u):
        jacobians.append((system, params, u.copy()))
        return real_jacobian(system, params, u)

    monkeypatch.setattr(fraclab.solver, "jacobian", recording_jacobian)
    factors = record_factors(monkeypatch)
    trace = []
    u, report = monotone_iteration(system128, p, trace=trace)
    assert report.converged
    assert report.iterations == len(trace) >= 3
    # one factor per accepted step, and one more when the run ends stalled
    assert len(factors) in (report.iterations, report.iterations + 1)
    assert factors == [((64, 64), True)] * len(jacobians)
    for sy, params, _ in jacobians:
        assert sy is system128.even and params == p
    np.testing.assert_array_equal(jacobians[0][2], w128[:64])
    for (_, _, a), (_, _, b) in zip(jacobians, jacobians[1:]):
        assert (b - a).min() >= -1e-14 * b.max()


# The Picard reference: the frozen-source steps A u_k = massw (u_k^{-q} +
# lam u_{k-1}^{crit-1}) from w, each a warm Newton in the full space, until
# a step changes no node by more than PICARD_TOL.
PICARD_CAP = 500
PICARD_TOL = 1e-9


def full_space_monotone(system, params):
    """Reference: the Picard iteration to the minimal solution, in the full space."""
    u, _ = solve_pure_singular(system, params)
    frozen = params.with_lam(0.0)
    for _ in range(PICARD_CAP):
        unew, _ = newton(system, frozen, u, params.lam * u ** (params.crit - 1.0))
        inc, u = unew - u, unew
        if np.abs(inc).max() <= PICARD_TOL:
            return u
    raise AssertionError("reference loop did not settle")


@pytest.mark.parametrize("s, q", [(0.4, 2.0), (0.35, 0.5)])
def test_monotone_block_matches_full_space(s, q):
    system = assemble(build_grid(-1.0, 1.0, 128), s)
    p = ProblemParams(s=s, q=q, lam=0.03)
    u, report = monotone_iteration(system, p)
    ref = full_space_monotone(system, p)
    assert report.converged
    assert np.abs(u - ref).max() <= 1e-9 * ref.max()


@settings(max_examples=15, deadline=None)
@given(
    s=st.floats(fraclab.operator.m_matrix_threshold(), 0.49),
    q=st.floats(0.25, 4.0),
    f=st.floats(0.05, 0.95),
    n=st.integers(8, 64),
)
def test_monotone_newton_rises_below_the_supersolution(s, q, f, n):
    """in the M-matrix regime Newton from w rises, stays below the validated
    supersolution and ends at a minimal solution of Morse index 0"""
    system = assemble(build_grid(-1.0, 1.0, n), s)
    params = ProblemParams(s=s, q=q)
    p = params.with_lam(f * estimate_lambda_star(system, params).estimate)
    sup = scan_supersolution(system, p)
    assert sup.valid
    trace = []
    u, report = monotone_iteration(system, p, bound=sup.values, trace=trace)
    assert report.converged
    for entry in trace:
        assert entry["min_increment"] >= -1e-14 * entry["sup"]
        assert entry["below_bound"]
    assert fraclab.operator.is_positive_definite(fraclab.operator.jacobian(system, p, u))


def test_monotone_newton_work_count(monkeypatch):
    """from w up to 0.95 lambda*_ref at N = 256: at most 8 Cholesky factors,
    all of the half-size block, and no LU"""
    table = json.loads((PERFBENCH / "table.json").read_text())
    factors = record_factors(monkeypatch)
    for pair in table["pairs"]:
        system = assemble(build_grid(-1.0, 1.0, 256), pair["s"])
        params = ProblemParams(s=pair["s"], q=pair["q"])
        solve_pure_singular(system, params)
        for f in (0.5, 0.95):
            factors.clear()
            p = params.with_lam(f * pair["lambda_star"]["256"])
            _, report = monotone_iteration(system, p)
            assert report.converged, (pair, f)
            assert 0 < len(factors) <= 8 and set(factors) == {((128, 128), True)}, (pair, f)


def test_monotone_iteration_on_odd_grid_is_even(params_s04q2):
    # the even block's middle node is unpaired at odd N
    system = assemble(build_grid(-1.0, 1.0, 127), 0.4)
    p = params_s04q2.with_lam(0.03)
    sup = scan_supersolution(system, p)
    u, report = monotone_iteration(system, p, bound=sup.values)
    assert report.converged and report.residual <= RESIDUAL_TOL
    assert np.array_equal(u, u[::-1])


@pytest.mark.parametrize("which", ["base", "bound"])
def test_monotone_iteration_needs_even_fields(system128, params_s04q2, w128, which):
    p = params_s04q2.with_lam(0.03)
    fields = {"base": w128.copy(), "bound": scan_supersolution(system128, p).values.copy()}
    fields[which][0] *= 1.0 + 1e-9
    with pytest.raises(ParameterError, match="reflection-even"):
        monotone_iteration(system128, p, **fields)


def test_monotone_iteration_takes_a_list_bound(system128, params_s04q2):
    p = params_s04q2.with_lam(0.03)
    sup = scan_supersolution(system128, p)
    u, report = monotone_iteration(system128, p, bound=list(sup.values), trace=[])
    ref, _ = monotone_iteration(system128, p, bound=sup.values)
    assert report.converged
    assert np.array_equal(u, ref)


def test_minimal_branch_monotone_in_lambda(system128, params_s04q2):
    u_lo, r_lo = monotone_iteration(system128, params_s04q2.with_lam(0.01))
    u_hi, r_hi = monotone_iteration(system128, params_s04q2.with_lam(0.03))
    assert r_lo.converged and r_hi.converged
    assert (u_hi - u_lo).min() >= -1e-8


def test_interior_positivity(system128, params_s04q2, w128):
    u, report = monotone_iteration(system128, params_s04q2.with_lam(0.03))
    assert report.converged
    window = np.abs(system128.grid.nodes) <= 0.8
    assert u[window].min() >= w128[window].min() - 1e-8


def test_monotone_iteration_divergence(system128, params_s04q2):
    spec = principal_eigenpair(system128)
    cert = lambda_certificate(params_s04q2, spec.value)
    u, report = monotone_iteration(system128, params_s04q2.with_lam(2.0 * cert))
    assert not report.converged
    assert report.residual == np.inf
    assert report.iterations < 50


def test_monotone_divergence_stays_silent(system128, params_s04q2, monkeypatch):
    """past the fold the run ends at a failed Cholesky, without numeric
    warnings on the way: no minimal solution lies on this path"""
    factors = record_factors(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, report = monotone_iteration(system128, params_s04q2.with_lam(0.2))
    assert not report.converged
    assert report.residual == np.inf and report.energy == np.inf
    assert factors[-1] == ((64, 64), False) and all(ok for _, ok in factors[:-1])
    # the last accepted iterate, still far below any blow-up
    assert 1.0 < u.max() < 2.0


def test_huge_lambda_fails_silently():
    """a defect norm that overflows at the first step ends the iteration quietly"""
    system = assemble(build_grid(-1.0, 1.0, 16), 0.4)
    trace = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = monotone_iteration(
            system, ProblemParams(s=0.4, q=2.0, lam=1e200), trace=trace
        )
    assert not report.converged
    assert report.iterations == 0 and not trace  # the first defect is not finite
    assert report.residual == np.inf


@pytest.mark.xfail(
    strict=True,
    reason="0.1 * lambda_cert lies beyond the numerical fold: no ladder "
    "multiplier validates and the iteration has no bounded limit",
)
def test_minimal_solution_at_tenth_certificate(system256, params_s04q2):
    spec = principal_eigenpair(system256)
    cert = lambda_certificate(params_s04q2, spec.value)
    p = params_s04q2.with_lam(0.1 * cert)
    sup = scan_supersolution(system256, p)
    assert sup.valid
    u, report = monotone_iteration(system256, p, bound=sup.values)
    assert report.converged
    assert weak_residual(system256, p, u) <= 1e-7


def test_envelope_check_passes_for_minimal(system128, params_s04q2, w128, monkeypatch):
    p = params_s04q2.with_lam(0.03)
    u, report = monotone_iteration(system128, p)
    assert report.converged
    calls = []
    real_solve = fraclab.solver.solve_singular_semilinear

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(fraclab.solver, "solve_singular_semilinear", counting_solve)
    factors = record_factors(monkeypatch)
    env = envelope_check(system128, p, u)
    # the system's w is reused; only the upper envelope is solved, on the
    # even block
    assert len(calls) == 1
    assert factors and {shape for shape, _ in factors} == {(64, 64)}
    assert bool(env)
    assert env.lower_ok and env.upper_ok
    assert env.max_u == pytest.approx(u.max(), rel=1e-14)


def test_envelope_check_flags_lower_violation(system128, params_s04q2, w128):
    env = envelope_check(system128, params_s04q2.with_lam(0.03), 0.5 * w128)
    assert not env.lower_ok
    assert env.worst_lower < 0.0
    assert 0 <= env.lower_node < 128
    diff = 0.5 * w128 - w128
    assert env.worst_lower == pytest.approx(diff.min(), rel=1e-10)


def test_envelope_check_flags_upper_violation(system128, params_s04q2, w128):
    # with lam = 0 the upper envelope is the baseline itself
    env = envelope_check(system128, params_s04q2, 2.0 * w128)
    assert not env.upper_ok
    assert env.lower_ok
    assert not bool(env)


def test_envelope_check_rejects_nonpositive(system128, params_s04q2, w128):
    bad = w128.copy()
    bad[5] = 0.0
    with pytest.raises(ParameterError):
        envelope_check(system128, params_s04q2, bad)
