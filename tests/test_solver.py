"""Tests for the regularized continuation solver and the monotone machinery."""

import warnings

import numpy as np
import pytest

import fraclab.operator
from fraclab import (
    ConvergenceError,
    ParameterError,
    assemble,
    build_supersolution,
    comparison_check,
    default_multiplier_ladder,
    envelope_check,
    lambda_certificate,
    monotone_iteration,
    principal_eigenpair,
    scan_supersolution,
    solve_pure_singular,
    solve_singular_semilinear,
    weak_residual,
)
from fraclab.solver import POSITIVITY_FLOOR, RESIDUAL_TOL


def test_pure_singular_baseline(system128, params_s04q2, w128):
    u, report = solve_pure_singular(system128, params_s04q2)
    assert report.converged
    assert report.branch == "pure-singular"
    assert report.residual <= 1e-10
    assert report.iterations > 0
    assert u.min() > 0.0
    np.testing.assert_array_equal(u, w128)


def test_converged_flag_tracks_residual(system128, params_s04q2):
    _, report = solve_pure_singular(system128, params_s04q2)
    assert report.converged == (report.residual <= RESIDUAL_TOL)
    assert POSITIVITY_FLOOR > 0.0


def test_weak_residual_detects_perturbation(system128, params_s04q2, w128):
    assert weak_residual(system128, params_s04q2, w128) <= 1e-10
    assert weak_residual(system128, params_s04q2, w128 * 1.05) > 1e-4


def test_stagewise_monotonicity(system128, params_s04q2):
    """iterates grow as the regularization shrinks"""
    trace = []
    solve_singular_semilinear(system128, params_s04q2, trace=trace)
    assert len(trace) >= 10
    for prev, cur in zip(trace, trace[1:]):
        assert (cur["values"] - prev["values"]).min() >= -1e-9
    eps_seen = [t["eps"] for t in trace]
    assert eps_seen[-1] == 0.0
    assert all(b < a for a, b in zip(eps_seen[:-2], eps_seen[1:-1]))


def test_schedule_validation(system64, params_s04q2):
    with pytest.raises(ParameterError):
        solve_singular_semilinear(system64, params_s04q2, schedule=[0.1, 0.2])
    with pytest.raises(ParameterError):
        solve_singular_semilinear(system64, params_s04q2, schedule=[0.1, -0.01])
    with pytest.raises(ParameterError):
        # cold start must continue down to 1e-8 of the head
        solve_singular_semilinear(system64, params_s04q2, schedule=[0.1, 0.05])


def test_schedule_independence(system64, params_s04q2):
    """two admissible schedules land on the same solution"""
    u1, r1 = solve_singular_semilinear(system64, params_s04q2)
    sched = [0.2 * 4.0 ** (-k) for k in range(16)]
    u2, r2 = solve_singular_semilinear(system64, params_s04q2, schedule=sched)
    assert r1.converged and r2.converged
    assert np.abs(u1 - u2).max() <= 1e-6


def test_warm_start_short_schedule(system64, params_s04q2):
    u1, _ = solve_singular_semilinear(system64, params_s04q2)
    u2, rep = solve_singular_semilinear(
        system64, params_s04q2, schedule=[1e-8], start=u1
    )
    assert rep.converged
    assert np.abs(u1 - u2).max() <= 1e-8


def test_source_validation(system64, params_s04q2):
    with pytest.raises(ParameterError):
        solve_singular_semilinear(system64, params_s04q2, g=-0.1)
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(ParameterError):
        solve_singular_semilinear(system64, params_s04q2, g=bad)
    with pytest.raises(ParameterError, match="does not match grid size"):
        solve_singular_semilinear(system64, params_s04q2, g=np.ones(63))
    with pytest.raises(ParameterError):
        solve_singular_semilinear(
            system64, params_s04q2, schedule=[1e-8], start=np.zeros(64)
        )


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
    u1b, _ = solve_singular_semilinear(
        system64, params_s04q2, g=g, schedule=[0.3 * 4.0 ** (-k) for k in range(16)]
    )
    assert np.abs(u1b - u1).max() <= 1e-6

    # non-solutions are flagged rather than judged
    vague = comparison_check(system64, params_s04q2, u1 * 1.1, u2, g, g + bump)
    assert vague.indeterminate
    assert not bool(vague)

    with pytest.raises(ParameterError):
        comparison_check(system64, params_s04q2, u1, u2, g + bump, g)


def test_build_supersolution_at_zero_lambda(system128, params_s04q2, w128):
    res = build_supersolution(system128, params_s04q2, M=0.0, base=w128)
    assert res.valid
    assert res.attempts == 1
    assert res.worst_defect >= -1e-8
    assert (res.values - w128).min() >= -1e-12
    with pytest.raises(ParameterError):
        build_supersolution(system128, params_s04q2, M=-0.5, base=w128)


def test_scan_supersolution_small_lambda(system128, params_s04q2, w128):
    p = params_s04q2.with_lam(0.03)
    res = scan_supersolution(system128, p, base=w128)
    assert res.valid
    assert res.multiplier == 2.0 ** -5
    assert res.attempts == 31
    assert res.worst_defect >= -1e-8


def test_scan_supersolution_exhausts_ladder(system128, params_s04q2, w128, monkeypatch):
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
    res = scan_supersolution(system, p, base=w128)
    assert not res.valid
    assert res.multiplier is None
    assert res.values is None
    assert res.attempts == len(default_multiplier_ladder())
    # every rung reuses the system's torsion field: A is factored at most once
    assert len(factorizations) <= 1


def test_monotone_iteration_fixed_at_zero_lambda(system128, params_s04q2, w128):
    u, report = monotone_iteration(system128, params_s04q2, base=w128)
    assert report.converged
    assert report.iterations == 1
    assert np.abs(u - w128).max() <= 1e-8


def test_monotone_iteration_rejects_base_above_bound(system128, params_s04q2, w128):
    with pytest.raises(ParameterError):
        monotone_iteration(
            system128, params_s04q2.with_lam(0.03), base=w128, bound=w128 - 0.5
        )


def test_monotone_iteration_trace(system128, params_s04q2, w128):
    p = params_s04q2.with_lam(0.03)
    sup = scan_supersolution(system128, p, base=w128)
    assert sup.valid
    trace = []
    u, report = monotone_iteration(
        system128, p, base=w128, bound=sup.values, trace=trace
    )
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


def test_minimal_branch_monotone_in_lambda(system128, params_s04q2, w128):
    u_lo, r_lo = monotone_iteration(
        system128, params_s04q2.with_lam(0.01), base=w128
    )
    u_hi, r_hi = monotone_iteration(
        system128, params_s04q2.with_lam(0.03), base=w128
    )
    assert r_lo.converged and r_hi.converged
    assert (u_hi - u_lo).min() >= -1e-8


def test_interior_positivity(system128, params_s04q2, w128):
    u, report = monotone_iteration(system128, params_s04q2.with_lam(0.03), base=w128)
    assert report.converged
    window = np.abs(system128.grid.nodes) <= 0.8
    assert u[window].min() >= w128[window].min() - 1e-8


def test_monotone_iteration_divergence(system128, params_s04q2, w128):
    spec = principal_eigenpair(system128)
    cert = lambda_certificate(params_s04q2, spec.value)
    u, report = monotone_iteration(
        system128, params_s04q2.with_lam(2.0 * cert), base=w128
    )
    assert not report.converged
    assert report.residual == np.inf
    assert report.iterations < 50


def test_monotone_divergence_stays_silent(system128, params_s04q2, w128):
    """a diverging run reports failure without numeric warnings on the way"""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, report = monotone_iteration(system128, params_s04q2.with_lam(0.2), base=w128)
    assert not report.converged
    assert u.max() > 1e6


@pytest.mark.xfail(
    strict=True,
    reason="0.1 * lambda_cert lies beyond the numerical fold: no ladder "
    "multiplier validates and the iteration has no bounded limit",
)
def test_minimal_solution_at_tenth_certificate(system256, params_s04q2, w256):
    spec = principal_eigenpair(system256)
    cert = lambda_certificate(params_s04q2, spec.value)
    p = params_s04q2.with_lam(0.1 * cert)
    sup = scan_supersolution(system256, p, base=w256)
    assert sup.valid
    u, report = monotone_iteration(system256, p, base=w256, bound=sup.values)
    assert report.converged
    assert weak_residual(system256, p, u) <= 1e-7


def test_envelope_check_passes_for_minimal(system128, params_s04q2, w128):
    p = params_s04q2.with_lam(0.03)
    u, report = monotone_iteration(system128, p, base=w128)
    assert report.converged
    env = envelope_check(system128, p, u)
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
