"""The benchmark's traced run wraps fraclab functions and reads report fields
by name; a rename or a move must fail here rather than only in a traced run.
Its set-up time includes warm-up ops, which must succeed."""

import dataclasses
import importlib
import importlib.util
import pathlib
import sys
from collections import Counter

import pytest

import fraclab
import fraclab.solver
import fraclab.variational
from fraclab.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_layers(monkeypatch):
    # loading defines the wrapper tables only; no wrapper is installed
    return load_perfbench(monkeypatch, "layers")


def test_wrapped_names_resolve(monkeypatch):
    layers = load_layers(monkeypatch)
    for layer, names in layers.FRACLAB.items():
        module = importlib.import_module(f"fraclab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fraclab.{layer}.{name}"
    assert not layers.installed_wrappers()


def test_hooked_report_fields_exist():
    fields = {
        fraclab.SupersolutionResult: {"attempts", "valid"},
        fraclab.LambdaStarResult: {"evaluations"},
        fraclab.SolveReport: {"iterations"},
    }
    for cls, names in fields.items():
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_pure_singular_goes_through_the_wrapped_solve(monkeypatch):
    # the span and solver.newton_iters see w only through this call: once per system and q
    calls = []
    real = fraclab.solver.solve_singular_semilinear

    def spy(system, params, g=0.0):
        calls.append((system, params.q))
        return real(system, params, g)

    monkeypatch.setattr(fraclab.solver, "solve_singular_semilinear", spy)
    system = fraclab.assemble(fraclab.build_grid(-1.0, 1.0, 32), 0.4)
    for q, lam in [(2.0, 0.0), (2.0, 0.05), (3.0, 0.0), (2.0, 0.0)]:
        _, rep = fraclab.solve_pure_singular(system, fraclab.ProblemParams(s=0.4, q=q, lam=lam))
        assert rep.converged and rep.iterations > 0
    assert calls == [(system.even, 2.0), (system.even, 3.0)]


def test_trials_hook_reads_evaluations(monkeypatch):
    # the hook indexes the evaluation tuples: e[1] must stay the verdict
    layers = load_layers(monkeypatch)
    system = fraclab.assemble(fraclab.build_grid(-1.0, 1.0, 32), 0.4)
    res = fraclab.estimate_lambda_star(system, fraclab.ProblemParams(s=0.4, q=2.0))
    counts = Counter()
    on_return, _ = layers.HOOKS["bifurcation.estimate_lambda_star"]
    on_return(counts, (system,), res)
    assert counts["bifurcation.trials"] == len(res.evaluations)
    assert counts["bifurcation.feasible"] == sum(e[2] is not None for e in res.evaluations)
    # the two scans confirming the closed-form bracket: one feasible, one not
    assert (counts["bifurcation.trials"], counts["bifurcation.feasible"]) == (2, 1)


def test_scan_hook_reads_attempts(monkeypatch, system128):
    # attempts is the position of the first valid rung, not a loop counter
    layers = load_layers(monkeypatch)
    params = fraclab.ProblemParams(s=0.4, q=2.0)
    valid = fraclab.scan_supersolution(system128, params.with_lam(0.03))
    invalid = fraclab.scan_supersolution(system128, params.with_lam(0.1))
    assert valid.valid and valid.attempts == 31
    assert not invalid.valid and invalid.attempts == len(fraclab.default_multiplier_ladder())
    counts = Counter()
    on_return, _ = layers.HOOKS["solver.scan_supersolution"]
    for res in (valid, invalid):
        on_return(counts, (system128, params), res)
    assert counts["solver.rungs_tried"] == valid.attempts + invalid.attempts
    assert counts["solver.valid_scans"] == 1


def test_failed_search_reports_its_sweeps(monkeypatch):
    # a failed mountain-pass search reports its sweep count only in the
    # message, which variational.mp_sweeps parses
    layers = load_layers(monkeypatch)
    monkeypatch.setattr(fraclab.variational, "MP_MAX_SWEEPS", 3)
    system = fraclab.assemble(fraclab.build_grid(-1.0, 1.0, 32), 0.4)
    params = fraclab.ProblemParams(s=0.4, q=2.0, lam=0.02)
    u, rep = fraclab.monotone_iteration(system, params)
    assert rep.converged
    with pytest.raises(fraclab.ConvergenceError) as exc:
        fraclab.mountain_pass_search(system, params, u)
    assert layers._SWEEPS.search(str(exc.value)).group(1) == "3"
    counts = Counter()
    _, on_error = layers.HOOKS["variational.mountain_pass_search"]
    on_error(counts, exc.value)
    assert counts["variational.mp_sweeps"] == 3


def test_band_next_to_the_minimal_solution_is_cut():
    # the full band's peak walks to the sample next to the minimal solution
    # here; cut at the first later sample below I(first), it resolves the
    # pass; uncut, its maximum slid onto the minimal solution after 119 sweeps
    system = fraclab.assemble(fraclab.build_grid(-1.0, 1.0, 128), 0.35)
    params = fraclab.ProblemParams(s=0.35, q=0.5, lam=0.016766)
    sup = fraclab.scan_supersolution(system, params)
    u, rep = fraclab.monotone_iteration(system, params, bound=sup.values)
    trace = []
    v, vrep = fraclab.mountain_pass_search(system, params, u, trace=trace)
    assert vrep.converged and (v - u).min() >= -1e-8
    assert vrep.energy > fraclab.energy(system, params, u)
    # the cut shows in the trace as the peak jumping from the base's side
    # back into the middle of the resampled band
    peaks = [e["peak_index"] for e in trace]
    assert any(b > a + 10 for a, b in zip(peaks, peaks[1:]))


def test_checks_judge_the_solver_constants(monkeypatch):
    # the benchmark's output checks keep their own copies of the gate
    checks = load_perfbench(monkeypatch, "checks")
    assert checks.RESIDUAL_TOL == fraclab.solver.RESIDUAL_TOL
    assert checks.ORDER_SLACK == fraclab.solver.ORDER_SLACK


@pytest.mark.parametrize("workload", ["extremal", "continuation", "second-branch"])
def test_warmups_succeed(monkeypatch, tmp_path, workload):
    # setup_s times the warm-ups: a failing one would time an early exit
    workloads = load_perfbench(monkeypatch, "workloads")
    argvs = workloads.warmup_argvs(workload, workloads.load_table())
    for k, argv in enumerate(argvs):
        assert main([*argv, "--output-dir", str(tmp_path / str(k))]) == 0, argv
