"""End-to-end command-line tests: exit codes, file contracts, determinism."""

import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fraclab.cli
import fraclab.operator
import fraclab.solver
import fraclab.variational
from fraclab import (
    BifurcationDiagram,
    ProblemParams,
    boundary_distance,
    build_grid,
    holder_fit,
)
from fraclab.cli import RunConfig, main
from fraclab.store import emit_plot_data, load_manifest, sha256_file, write_json


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main([*argv, "--output-dir", str(out)])
    return rc, out


def test_pure_singular_roundtrip(tmp_path):
    rc, out = run(tmp_path, "pure-singular", "--s", "0.4", "--q", "2", "--N", "48")
    assert rc == 0
    payload = json.loads((out / "pure_singular.json").read_text())
    assert payload["branch"] == "pure-singular"
    assert payload["converged"] is True
    assert len(payload["values"]) == 48
    assert payload["grid"]["n"] == 48
    assert payload["params"]["s"] == 0.4

    manifest = load_manifest(out / "manifest.json")
    assert manifest["artifact_version"]
    for name, digest in manifest["files"].items():
        assert sha256_file(out / name) == digest
    assert "pure_singular.json" in manifest["files"]
    assert "pure_singular_profile.dat" in manifest["files"]


def test_solve_payload_contract(tmp_path):
    rc, out = run(tmp_path, "solve", "--s", "0.4", "--q", "2",
                  "--lambda", "0.03", "--N", "48")
    assert rc == 0
    payload = json.loads((out / "solution.json").read_text())
    for key in ("params", "grid", "values", "residual", "energy",
                "branch", "iterations", "converged", "supersolution"):
        assert key in payload
    assert payload["branch"] == "minimal"
    assert payload["converged"] is True
    assert payload["supersolution"]["valid"] is True
    assert payload["residual"] <= 1e-8


def test_config_snapshot_roundtrip(tmp_path):
    rc, out = run(tmp_path, "solve", "--s", "0.4", "--q", "2",
                  "--lambda", "0.03", "--N", "48")
    assert rc == 0
    snapshot = load_manifest(out / "manifest.json")["config"]
    cfg = RunConfig(s=0.4, q=2.0, lam=0.03, lams=(0.03,), n=48, output_dir=str(out))
    assert snapshot == cfg.to_dict()
    assert snapshot["n"] == 48
    assert snapshot["lam"] == 0.03


def test_rejects_order_beyond_dimension(tmp_path, capsys):
    # without --lambda too: the parameter check reports n > 2s first
    rc, out = run(tmp_path, "solve", "--s", "0.9", "--q", "1", "--N", "64")
    assert rc == 2
    err = capsys.readouterr().err
    assert "parameter error" in err
    assert "n > 2s" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["solve"], "this command needs exactly one positive --lambda"),
    (["mountain-pass"], "this command needs exactly one positive --lambda"),
    (["sweep"], "sweep needs --lambda with one or more values"),
])
def test_rejected_run_creates_no_output_directory(tmp_path, capsys, argv, message):
    rc, out = run(tmp_path, *argv, "--s", "0.4", "--q", "2", "--N", "32")
    assert rc == 2
    assert capsys.readouterr().err == f"parameter error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("inside", [False, True], ids=["is-a-file", "under-a-file"])
def test_unusable_output_dir_exits_parameter(tmp_path, capsys, inside):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    target = afile / "out" if inside else afile
    rc = main(["pure-singular", "--N", "16", "--output-dir", str(target)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parameter error: cannot create output directory {target}: ")
    assert afile.read_text() == "not a directory\n"


def test_unusable_trace_path_exits_before_the_search(tmp_path, capsys):
    trace_file = tmp_path / "nodir" / "t.jsonl"
    rc, out = run(tmp_path, "mountain-pass", "--s", "0.4", "--q", "2", "--lambda", "0.02",
                  "--N", "32", "--trace", str(trace_file))
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"parameter error: cannot open trace file {trace_file}: ")
    # rejected before any solve: no first_solution.json without a manifest
    assert not out.exists()


@pytest.mark.parametrize("flag, key, value", [
    ("--eps-ladder", "eps_ladder", "0.08,0.04,0.02"),
    ("--tol-bracket", "tol_bracket", "0.01"),
    ("--fit-window", "fit_window", "0.1"),
    ("--nu", "nu", "0.2"),
], ids=["eps_ladder", "tol_bracket", "fit_window", "nu"])
def test_rejects_bad_ladder(tmp_path, capsys, flag, key, value):
    # fixed numerical settings are not knobs: the flag and the config key are gone
    with pytest.raises(SystemExit) as exc:
        main(["solve", flag, value])
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key}={value}\n")
    rc, _ = run(tmp_path, "solve", "--s", "0.4", "--q", "2", "--lambda", "0.03",
                "--N", "32", "--config", str(cfgfile))
    assert rc == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_cli_surface_is_pinned():
    # a new knob must be added here on purpose
    common = {"-h", "--help", "--config", "--s", "--q", "--lambda", "--N", "--a", "--b",
              "--seed", "--output-dir"}
    expected = {
        "solve": common,
        "pure-singular": common,
        "sweep": common | {"--second"},
        "lambda-star": common,
        "mountain-pass": common | {"--trace"},
        "regularity": common,
        "validate": common,
    }
    parser = fraclab.cli._make_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert options == expected
    assert set(fraclab.cli._FILE_KEYS) == {"s", "q", "lambda", "n", "a", "b", "seed",
                                           "output_dir"}
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "s", "q", "lam", "lams", "n", "a", "b", "seed", "output_dir"
    ]


@pytest.mark.parametrize("argv", [
    ("pure-singular", "--q", "inf"),
    ("solve", "--lambda", "inf"),
    ("mountain-pass", "--lambda", "inf"),
    ("sweep", "--lambda", "0.01,inf"),
    ("sweep", "--lambda", "0.01,nan"),
])
def test_rejects_non_finite_knobs(tmp_path, capsys, argv):
    rc, out = run(tmp_path, argv[0], "--s", "0.4", "--q", "2", "--N", "32", *argv[1:])
    assert rc == 2
    assert "parameter error" in capsys.readouterr().err
    # rejected while the configuration is checked, before any solve
    assert not out.exists()


def test_unknown_flag_exits_usage(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--definitely-not-a-flag", "1"])
    assert exc.value.code == 2


def test_nonconvergence_exit_code(tmp_path):
    rc, out = run(tmp_path, "solve", "--s", "0.4", "--q", "2",
                  "--lambda", "5.0", "--N", "48")
    assert rc == 3
    payload = json.loads((out / "solution.json").read_text())
    assert payload["converged"] is False
    assert payload["supersolution"]["valid"] is False


@pytest.mark.parametrize("argv", [["pure-singular"], ["lambda-star"], ["solve", "--lambda", "0.01"]])
def test_smallest_grid_runs(tmp_path, argv):
    # N = 2: the even block is 1 x 1, which equals its own reflection
    rc, _ = run(tmp_path, *argv, "--s", "0.3", "--q", "1", "--N", "2")
    assert rc == 0


def test_converged_iterate_does_not_stall(tmp_path):
    # the Newton solve reaches a rounding-level defect that no step can lower
    rc, out = run(tmp_path, "pure-singular", "--s", "0.4", "--q", "0.5", "--N", "16")
    assert rc == 0
    assert json.loads((out / "pure_singular.json").read_text())["converged"] is True


@pytest.mark.parametrize("command", ["pure-singular", "regularity"])
def test_unconverged_singular_solve_exits_convergence(tmp_path, monkeypatch, capsys, command):
    # q = 60, N = 256 takes 5 Newton steps from the boundary-shaped start; with
    # a budget of 3 the solve runs out of steps, which must exit 3
    monkeypatch.setattr(fraclab.solver, "NEWTON_MAX_ITER", 3)
    rc, _ = run(tmp_path, command, "--s", "0.25", "--q", "60", "--N", "256")
    assert rc == 3
    assert "convergence failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [("pure-singular", "pure_singular.json"),
                                           ("regularity", "regularity.json")])
def test_unconverged_report_exits_convergence(tmp_path, monkeypatch, command, name):
    real = fraclab.cli.solve_pure_singular

    def unconverged(system, params):
        u, rep = real(system, params)
        return u, dataclasses.replace(rep, converged=False)

    monkeypatch.setattr(fraclab.cli, "solve_pure_singular", unconverged)
    rc, out = run(tmp_path, command, "--s", "0.4", "--q", "2", "--N", "32")
    assert rc == 3
    assert (out / name).exists()


def test_import_defers_scipy_optimize():
    # only m_matrix_threshold needs scipy.optimize, which is slow to import
    code = "import sys, fraclab.cli; sys.exit('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fraclab.solver.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cold_start_overflow_exits_convergence(tmp_path, capsys):
    # q = 400 now converges in 4 steps; what still leaves the floating-point
    # range is the scale: on (0, 1e-300) the cold start's defect is about
    # 1e-242, its squared norm underflows to 0, no trial can lower it, and the
    # line search stalls at the first step
    rc, _ = run(tmp_path, "pure-singular", "--s", "0.1", "--q", "60", "--N", "16",
                "--a", "0", "--b", "1e-300")
    assert rc == 3
    assert "convergence failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:diagram holds no converged entries")
@pytest.mark.parametrize("argv", [
    ["solve", "--s", "0.495", "--q", "2", "--N", "64", "--lambda", "1"],
    ["sweep", "--s", "0.491", "--q", "4.28", "--N", "3", "--a=-0.111", "--b=2.141",
     "--lambda", "0.01"],
])
def test_overflowed_source_exits_convergence(tmp_path, argv):
    # crit - 1 is about 200 near s = 1/2, so lam u^{crit-1} overflows: the
    # monotone iteration counts that as divergence instead of handing Newton
    # an infinite defect, which failed untyped (exit 1)
    rc, _ = run(tmp_path, *argv)
    assert rc == 3


@pytest.mark.parametrize("argv", [
    ["lambda-star", "--s", "0.4", "--q", "2", "--N", "64", "--a=0", "--b=1e150"],
    ["lambda-star", "--s", "0.4", "--q", "2", "--N", "64", "--a=0", "--b=1e-150"],
    # the sweep solves w and measures its energy before the certificate, silently
    ["sweep", "--s", "0.4", "--q", "2", "--lambda", "0", "--N", "32", "--a=0", "--b=1e200"],
])
def test_certificate_out_of_float_range_exits_convergence(tmp_path, capsys, argv):
    # on a very long interval lam1 is tiny and the certificate's t*^{crit-1}
    # overflows; on a very short one it underflows to 0.  Both failed
    # untyped (exit 1)
    rc, _ = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("convergence failure: certificate leaves the float range")
    assert "Traceback" not in err


@pytest.mark.parametrize("b", ["1e-100", "1e-60"])
def test_ladder_bracket_out_of_range_exits_convergence(tmp_path, capsys, b):
    # on a very short interval the ladder's thresholds leave the float range
    # (b = 1e-100 gives -inf and inf) or the lower one drops below 0
    # (b = 1e-60); a lam built from them failed as a parameter error (exit 2)
    rc, _ = run(tmp_path, "lambda-star", "--s", "0.4", "--q", "2", "--N", "64", "--a=0",
                f"--b={b}")
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("convergence failure: ladder bracket")
    assert "Traceback" not in err


def test_every_factored_matrix_is_fortran_ordered(tmp_path, monkeypatch):
    """LAPACK stores matrices by column: a C-ordered one would cost f2py a transposed copy.

    Newton owns its Jacobians and factors them in place; ``operator`` factors
    the stiffness and a caller's matrix, which it must not overwrite.
    """
    calls = {}
    for module, name in [(fraclab.operator, "cho_factor"), (fraclab.solver, "cho_factor"),
                         (fraclab.solver, "lu_factor")]:
        key = f"{module.__name__}.{name}"

        def recording(a, *args, _real=getattr(module, name), _key=key, **kwargs):
            calls.setdefault(_key, set()).add(
                (a.flags.f_contiguous, kwargs.get("overwrite_a", False)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    for argv in (["pure-singular"], ["lambda-star"], ["solve", "--lambda", "0.03"],
                 ["mountain-pass", "--lambda", "0.02"], ["validate"]):
        rc, _ = run(tmp_path / argv[0], *argv, "--s", "0.4", "--q", "2", "--N", "64")
        assert rc == 0
    assert calls == {
        "fraclab.operator.cho_factor": {(True, False)},
        "fraclab.solver.cho_factor": {(True, True)},
        "fraclab.solver.lu_factor": {(True, True)},
    }


def test_blas_thread_count_moves_only_last_bits(tmp_path):
    """The same op at one and at two OpenBLAS threads lands on the same field.

    The thread count changes the order of the floating-point sums in the
    factorizations, so the result files differ in their last bits: with
    numpy 2.4.6, scipy 1.17.1 and 2 vCPUs, ``pure-singular``, ``solve``,
    ``lambda-star`` and ``mountain-pass`` at N = 256 all write different
    bytes at 1 and at 2 threads.  That depends on the CPU and the wheels, so
    it is not asserted; the fields must agree to 1e-10 relative.
    """
    src = os.path.dirname(os.path.dirname(fraclab.solver.__file__))
    argv = [sys.executable, "-m", "fraclab.cli", "pure-singular", "--s", "0.4", "--q", "2",
            "--N", "256", "--output-dir"]
    procs = {
        threads: subprocess.Popen(
            [*argv, str(tmp_path / threads)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    }
    fields = []
    for threads, proc in procs.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, err
        payload = json.loads((tmp_path / threads / "pure_singular.json").read_text())
        assert payload["converged"] is True
        fields.append(np.array(payload["values"]))
    one, two = fields
    assert np.abs(one - two).max() <= 1e-10 * np.abs(one).max()


def test_sweep_csv_contract(tmp_path):
    rc, out = run(tmp_path, "sweep", "--s", "0.4", "--q", "2",
                  "--lambda", "0.01,0.03", "--N", "48")
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,branch,supnorm,energy,residual,converged"
    assert len(lines) == 3
    plot = out / "sweep_minimal.dat"
    assert plot.exists()
    body = plot.read_text().splitlines()
    assert body[0].startswith("# ")
    assert len(body) >= 3


def test_sweep_second_branch_emits_two_plots(tmp_path):
    rc, out = run(tmp_path, "sweep", "--s", "0.4", "--q", "2",
                  "--lambda", "0.02", "--N", "64", "--second")
    assert rc == 0
    assert (out / "sweep_minimal.dat").exists()
    assert (out / "sweep_mountain-pass.dat").exists()


def test_mountain_pass_trace_stream(tmp_path, monkeypatch):
    calls = []
    real_solve = fraclab.solver.solve_singular_semilinear

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(fraclab.solver, "solve_singular_semilinear", counting_solve)
    trace_file = tmp_path / "deform.jsonl"
    rc, out = run(tmp_path, "mountain-pass", "--s", "0.4", "--q", "2",
                  "--lambda", "0.02", "--N", "64", "--trace", str(trace_file))
    assert rc == 0
    # the supersolution scan and the monotone iteration share one w
    assert len(calls) == 1
    assert (out / "first_solution.json").exists()
    assert (out / "second_solution.json").exists()
    records = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert records
    for rec in records:
        assert set(rec) == {"stage", "sweep", "level", "peak_index",
                            "projected_gradient", "distinct"}
        assert rec["stage"] == "deform"
    # the second solution's level lies above the first's and at most at the
    # band's first recorded peak; the peak itself may rise while it climbs
    first = json.loads((out / "first_solution.json").read_text())["energy"]
    second = json.loads((out / "second_solution.json").read_text())["energy"]
    assert first < second <= records[0]["level"]


def test_plot_rerun_is_byte_identical(tmp_path):
    _, out1 = run(tmp_path / "r1", "sweep", "--s", "0.4", "--q", "2",
                  "--lambda", "0.01,0.03", "--N", "48")
    _, out2 = run(tmp_path / "r2", "sweep", "--s", "0.4", "--q", "2",
                  "--lambda", "0.01,0.03", "--N", "48")
    assert (out1 / "sweep_minimal.dat").read_bytes() == (out2 / "sweep_minimal.dat").read_bytes()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def _clean_by_element(obj):
    # the reference: ``store._clean`` with every array going element by element
    if isinstance(obj, dict):
        return {k: _clean_by_element(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean_by_element(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean_by_element(float(v)) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def test_json_arrays_write_the_bytes_of_the_element_loop(tmp_path):
    payload = {
        "finite": np.linspace(-1.0, 1.0, 1024) ** 3 / 7.0,
        "special": np.array([1.5, np.inf, -np.inf, np.nan, -0.0, 5e-324]),
        "ints": np.arange(5),
        "empty": np.array([]),
        "nested": [np.array([0.1, -0.0]), (np.float64(2.0), np.int64(3))],
    }
    write_json(tmp_path / "a.json", payload)
    expected = json.dumps(_clean_by_element(payload), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "a.json").read_bytes() == expected.encode()


def test_json_writes_numpy_bools_as_bools(tmp_path):
    payload = {"on": np.True_, "off": np.bool_(False), "nested": [(np.bool_(True), 1.0)]}
    write_json(tmp_path / "a.json", payload)
    expected = {"on": True, "off": False, "nested": [[True, 1.0]]}
    assert (tmp_path / "a.json").read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_json_writes_boolean_arrays_as_lists_of_bools(tmp_path):
    payload = {"mask": np.array([True, False, True]), "none": np.array([], dtype=bool),
               "values": np.array([0.5, 1.0])}
    write_json(tmp_path / "a.json", payload)
    loaded = json.loads((tmp_path / "a.json").read_text())
    assert loaded == {"mask": [True, False, True], "none": [], "values": [0.5, 1.0]}
    assert all(type(v) is bool for v in loaded["mask"])


def test_empty_diagram_emits_warning_not_files(tmp_path):
    empty = BifurcationDiagram(entries=(), lambda_cert=1.0)
    with pytest.warns(UserWarning, match="no converged entries"):
        paths = emit_plot_data(empty, str(tmp_path), "anything")
    assert paths == []
    assert list(tmp_path.iterdir()) == []


def test_holder_fit_plot_files(tmp_path):
    grid = build_grid(-1.0, 1.0, 96)
    params = ProblemParams(s=0.4, q=2.0)
    fit = holder_fit(grid, params, boundary_distance(grid) ** 0.3)
    paths = emit_plot_data(fit, str(tmp_path), "reg")
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["reg_fit.dat", "reg_scatter.dat"]
    for p in paths:
        with open(p) as f:
            body = f.read().splitlines()
        assert body[0].startswith("# ")
        assert len(body) >= 3


def test_regularity_payload(tmp_path):
    rc, out = run(tmp_path, "regularity", "--s", "0.4", "--q", "2", "--N", "96")
    assert rc == 0
    payload = json.loads((out / "regularity.json").read_text())
    fit = payload["fit"]
    for key in ("alpha_fit", "alpha_theory", "rsq", "log_correction", "trusted"):
        assert key in fit
    assert fit["alpha_theory"] == pytest.approx(0.8 / 3.0, rel=1e-12)
    assert (out / "regularity_scatter.dat").exists()
    assert (out / "regularity_fit.dat").exists()


def test_lambda_star_payload(tmp_path):
    rc, out = run(tmp_path, "lambda-star", "--s", "0.4", "--q", "2", "--N", "32")
    assert rc == 0
    payload = json.loads((out / "lambda_star.json").read_text())
    assert payload["bracket"][0] < payload["estimate"] < payload["bracket"][1]
    assert payload["estimate"] < payload["lambda_cert"]
    assert "flagged" not in payload
    assert payload["evaluations"]
    for e in payload["evaluations"]:
        assert set(e) == {"lam", "feasible", "multiplier"}
        assert (e["multiplier"] is not None) == e["feasible"]
    reports = load_manifest(out / "manifest.json")["reports"]
    assert reports == {"lambda-star": {"estimate": payload["estimate"]}}


def test_config_file_layering(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment line\ns=0.35\nq=1.5\nn=32\n")
    rc, out = run(tmp_path, "pure-singular", "--config", str(cfgfile), "--s", "0.3")
    assert rc == 0
    snapshot = load_manifest(out / "manifest.json")["config"]
    assert snapshot["s"] == 0.3  # flag beats file
    assert snapshot["q"] == 1.5
    assert snapshot["n"] == 32


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("wibble=3\n")
    rc, _ = run(tmp_path, "pure-singular", "--config", str(cfgfile))
    assert rc == 2
    assert "wibble" in capsys.readouterr().err


def test_parser_is_built_once_and_carries_nothing_between_calls(tmp_path, capsys):
    """one parser serves every ``main``; no flag or config key of a call reaches the next"""
    parser = fraclab.cli._make_parser()
    assert fraclab.cli._make_parser() is parser
    assert parser.parse_args(["sweep", "--second"]).second
    assert not parser.parse_args(["sweep"]).second
    assert parser.parse_args(["mountain-pass", "--trace", "t.jsonl"]).trace == "t.jsonl"
    assert parser.parse_args(["mountain-pass"]).trace is None

    flags = ("--s", "0.4", "--q", "2", "--N", "32")
    rc, _ = run(tmp_path / "a", "solve", *flags, "--lambda", "0.03")
    assert rc == 0
    rc, _ = run(tmp_path / "b", "solve", *flags)
    assert rc == 2
    assert "needs exactly one positive --lambda" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("lambda=0.03\nn=40\n")
    rc, out = run(tmp_path / "c", "solve", "--config", str(cfgfile), "--s", "0.4", "--q", "2")
    assert rc == 0
    assert load_manifest(out / "manifest.json")["config"]["n"] == 40
    rc, out = run(tmp_path / "d", "pure-singular", "--s", "0.4", "--q", "2")
    assert rc == 0
    snapshot = load_manifest(out / "manifest.json")["config"]
    assert (snapshot["n"], snapshot["lam"], snapshot["lams"]) == (256, None, [])
    rc, _ = run(tmp_path / "e", "solve", *flags)
    assert rc == 2
    assert "needs exactly one positive --lambda" in capsys.readouterr().err


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("FRACLAB_OUTPUT_DIR", str(target))
    rc = main(["pure-singular", "--s", "0.4", "--q", "2", "--N", "32"])
    assert rc == 0
    assert (target / "pure_singular.json").exists()


def test_validate_deterministic_per_seed(tmp_path, capsys):
    rc1, out1 = run(tmp_path / "a", "validate", "--seed", "7")
    rc2, out2 = run(tmp_path / "b", "validate", "--seed", "7")
    rc3, out3 = run(tmp_path / "c", "validate", "--seed", "3")
    assert rc1 == rc2 == rc3 == 0
    r1 = (out1 / "validate_report.txt").read_bytes()
    r2 = (out2 / "validate_report.txt").read_bytes()
    r3 = (out3 / "validate_report.txt").read_bytes()
    assert r1 == r2
    assert r1 != r3
    stdout = capsys.readouterr().out
    assert stdout.count("RESULT PASS") == 3


def _assert_manifest(out, reports):
    # the manifest lists every other file of the directory with its sha256
    manifest = load_manifest(out / "manifest.json")
    names = set(os.listdir(out)) - {"manifest.json"}
    assert manifest["files"] == {name: sha256_file(out / name) for name in names}
    assert sorted(manifest["reports"]) == sorted(reports)


@pytest.mark.parametrize("argv, code, reports", [
    (["pure-singular"], 0, ["pure-singular"]),
    (["solve", "--lambda", "0.03"], 0, ["solve"]),
    (["solve", "--lambda", "5.0"], 3, ["solve"]),
    (["sweep", "--lambda", "0.01,0.03", "--second"], 0, ["sweep"]),
    (["lambda-star"], 0, ["lambda-star"]),
    (["mountain-pass", "--lambda", "0.02"], 0, ["first", "second"]),
    (["regularity"], 0, ["regularity"]),
    (["validate"], 0, ["validate"]),
], ids=["pure-singular", "solve", "solve-unconverged", "sweep", "lambda-star",
        "mountain-pass", "regularity", "validate"])
def test_every_subcommand_manifest(tmp_path, argv, code, reports):
    rc, out = run(tmp_path, *argv, "--s", "0.4", "--q", "2", "--N", "64")
    assert rc == code
    _assert_manifest(out, reports)


def test_one_manifest_writer():
    """``main`` is the one place that creates the output directory and
    writes the manifest, so every subcommand follows the same protocol."""
    with open(fraclab.cli.__file__) as f:
        tree = ast.parse(f.read())
    owners = {node: f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for node in ast.walk(f)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if callee in ("write_manifest", "makedirs"):
                sites.append((owners.get(node), callee))
    assert sorted(sites) == [("main", "makedirs"), ("main", "write_manifest")]


def _assert_first_only(out):
    # a failed mountain-pass run keeps the first solution and a manifest
    # that lists it, with only its report
    assert sorted(os.listdir(out)) == ["first_solution.json", "manifest.json"]
    _assert_manifest(out, ["first"])


def test_mountain_pass_budget_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fraclab.variational, "MP_MAX_SWEEPS", 3)
    trace_file = tmp_path / "deform.jsonl"
    rc, out = run(tmp_path, "mountain-pass", "--s", "0.4", "--q", "2",
                  "--lambda", "0.02", "--N", "32", "--trace", str(trace_file))
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "mountain pass failed: no distinct critical point located within 3 sweeps")
    _assert_first_only(out)
    # the trace is written on failure too
    records = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert [r["stage"] for r in records] == ["deform"] * 3


def test_mountain_pass_without_base_point_exits(tmp_path, capsys):
    rc, out = run(tmp_path, "mountain-pass", "--s", "0.4", "--q", "2",
                  "--lambda", "1.0", "--N", "32")
    assert rc == 3
    assert "minimal branch did not converge; no base point" in capsys.readouterr().err
    _assert_first_only(out)


def test_sweep_second_with_failed_search(tmp_path, monkeypatch):
    # a failed search is a row of sweep.csv, not an exit, and draws no plot
    monkeypatch.setattr(fraclab.variational, "MP_MAX_SWEEPS", 3)
    rc, out = run(tmp_path, "sweep", "--s", "0.4", "--q", "2",
                  "--lambda", "0.02", "--N", "32", "--second")
    assert rc == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
    assert len(rows) == 3
    assert rows[1][:2] == ["0.02", "minimal"] and rows[1][-1] == "True"
    assert rows[2] == ["0.02", "mountain-pass", "nan", "nan", "inf", "False"]
    assert (out / "sweep_minimal.dat").exists()
    assert not (out / "sweep_mountain-pass.dat").exists()
