"""Benchmark of fraclab's three lab pipelines, end to end and per layer.

    python3 perfbench/run.py --workload extremal --seed 1 --seconds 28 --trace 0

Runs from the root of a checkout with fraclab's sources under ``src/``.  One
client drives ``fraclab.cli.main(argv)`` in-process in a closed loop: the
next op starts when the previous one has returned and its outputs have been
checked.  Ops are generated from the seed and the reference table
(workloads.py); a run does whole cycles of the table and starts another only
while it can finish within --seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps fraclab's layers
(layers.py), prints the per-layer metrics and per-op counts, and then runs
the first half of the same ops in three child processes: untraced with the
default BLAS threads (the base of trace.overhead), untraced with one BLAS
thread (lapack.single_thread_ratio), and traced again, whose counts must
equal this run's.  Half keeps a traced run, children included, within 180 s.  Metric names and units come from BENCHMARK.json.  The last line of
stdout is the result object; files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 7  # setup_s is the median of this many set-ups, one in-process
DEADLINE_S = 170.0  # a run, children included, must end within 180 s
START = perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="fraclab pipeline benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal, used by the child processes this script starts
    p.add_argument("--ops", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, table: list):
    """Import fraclab (with numpy and scipy) and warm it up; returns (seconds, cli)."""
    t0 = perf_counter()
    cli = importlib.import_module("fraclab.cli")
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"fraclab imported from {cli.__file__}, not from {SRC}")
    warm = os.path.join(OUT, "warmup")
    for argv in workloads.warmup_argvs(workload, table):
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv) + [f"--output-dir={warm}"])
    return perf_counter() - t0, cli


def run_op(cli, op, tracer=None, index=False) -> dict:
    """Run one op, check its outputs, and return its record."""
    from checks import check_op, morse_index  # imports numpy, which set-up times

    outdir = os.path.join(OUT, "op")
    shutil.rmtree(outdir, ignore_errors=True)
    err = io.StringIO()
    if tracer is not None:
        tracer.begin_op()
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(op.argv) + [f"--output-dir={outdir}"])
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    if rc == 0:
        problems = check_op(op, outdir)
    else:
        lines = err.getvalue().strip().splitlines()
        problems = [f"exit {rc}: {lines[-1] if lines else ''}"]
    rec = {
        "op": op.label(),
        "s": seconds,
        "exit": rc,
        "failed": bool(problems),
        # exit 3 is the documented non-convergence outcome; anything else that
        # fails is a wrong answer or a crash
        "wrong": bool(problems) and rc != 3,
        "problems": problems,
    }
    if index and not problems and op.command == "mountain-pass":
        rec["morse_index"] = morse_index(outdir)
    return rec


def run_pass(cli, workload, table, seed, seconds=None, ops=None, tracer=None):
    """Whole cycles of ops while the next fits in ``seconds``, or the first ``ops`` ops.

    Returns (records, wall seconds).
    """
    rng = random.Random(seed)
    records = []
    cycles = 0
    t0 = perf_counter()
    while True:
        batch = workloads.cycle(workload, table, rng)
        if ops is not None:
            batch = batch[:ops - len(records)]
        for op in batch:
            records.append(run_op(cli, op, tracer, index=tracer is not None))
        cycles += 1
        wall = perf_counter() - t0
        if len(records) == ops or (ops is None and wall * (cycles + 1) / cycles > seconds):
            return records, wall


def child(args, extra_args, env_update=None) -> dict:
    """Run this script in a child process; returns its last stdout line as JSON."""
    env = dict(os.environ)
    env.update(env_update or {})
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), *extra_args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE_S - (perf_counter() - START)), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(extra_args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "fraclab", "*.py"))):
        with open(path, "rb") as f:
            h.update(f.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_commit": git_commit(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def result(records, values: dict, kind: str, correct: bool) -> dict:
    units = declared_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(set(values) ^ set(units))} "
                           f"disagree with BENCHMARK.json {kind}")
    return {
        "correct": bool(correct) and not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def traced_run(args, table) -> tuple:
    import layers

    tracer = layers.Tracer()
    layers.install_lapack(tracer)
    _, cli = setup(args.workload, table)
    layers.install_fraclab(tracer)
    records, _ = run_pass(cli, args.workload, table, args.seed,
                          seconds=args.seconds, ops=args.ops, tracer=tracer)
    counts = layers.op_counts(tracer)
    if args.ops is not None:  # replay child: counts only
        return records, {"counts": counts}, True

    half = (len(records) + 1) // 2
    fixed = ["--trace", "0", "--ops", str(half)]
    base = child(args, fixed)
    single = child(args, fixed, {v: "1" for v in THREAD_VARS})
    replay = child(args, ["--trace", "1", "--ops", str(half)])
    same = replay["counts"] == counts[:half]
    if not same:
        for i, (a, b) in enumerate(zip(counts, replay["counts"])):
            diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
            if diff:
                print(f"count mismatch, op {i} ({records[i]['op']}): {diff}")
    mp = [r for r in records if "morse_index" in r]
    extra = {
        "lapack.single_thread_ratio": sum(single["op_s"]) / sum(base["op_s"]),
        "trace.overhead": (statistics.median(r["s"] for r in records[:half])
                           / statistics.median(base["op_s"])),
        "index1": sum(r["morse_index"] == 1 for r in mp),
        "second_solutions": len(mp),
    }
    values = layers.per_layer(tracer, extra)
    for i, (rec, row) in enumerate(zip(records, counts)):
        cells = " ".join(f"{k}={v:g}" for k, v in row.items() if v)
        print(f"op {i} {rec['op']}: {rec['s']:.3f} s {cells}"
              + (f" morse_index={rec['morse_index']}" if "morse_index" in rec else ""))
    print(f"count determinism, first {half} ops vs a second traced run: "
          + ("identical" if same else "MISMATCH"))
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    return records, values, same


def untraced_run(args, table) -> tuple:
    setup_s, cli = setup(args.workload, table)
    records, wall = run_pass(cli, args.workload, table, args.seed,
                             seconds=args.seconds, ops=args.ops)
    import layers  # only to confirm that no wrapper is bound

    clean = not layers.installed_wrappers()
    times = [r["s"] for r in records]
    if args.ops is not None:  # child: raw op times only
        return records, {"op_s": times}, clean
    setups = [setup_s] + [child(args, ["--setup-only"])["setup_s"]
                          for _ in range(SETUP_RUNS - 1)]
    values = {
        "ops_per_s": len(records) / wall,
        "op_s.p50": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return records, values, clean


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fraclab", "__init__.py")):
        print(f"no fraclab sources under {SRC}; run from the root of a fraclab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    table = workloads.load_table()
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, table)[0]}))
        return 0
    run = traced_run if args.trace else untraced_run
    records, values, ok = run(args, table)
    for r in records:
        if r["failed"]:
            print(f"FAILED {r['op']}: {'; '.join(r['problems'])}")
    if args.ops is not None:
        print(json.dumps(values))
        return 0
    kind = "per_layer" if args.trace else "end_to_end"
    res = result(records, values, kind, ok)
    n, failed = res["attempted"], res["failed"]
    shown = [] if args.trace else [f"{k}={m['value']:.6g} {m['unit']}"
                                   for k, m in res["metrics"].items()]
    print(f"{args.workload}: {n} ops, " + ", ".join(shown + [f"fail_ratio={failed / n:.4g} ({failed}/{n})"]))
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump({"environment": env, "result": res, "ops": records}, f, indent=1)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
