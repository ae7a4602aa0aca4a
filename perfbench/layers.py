"""Traced runs: spans around fraclab's layers and the per-layer metrics.

Imported only by a traced run, so an untraced run installs no wrapper.
``install_lapack`` must run before fraclab is imported: the package binds
``scipy.linalg`` functions by name at import time, so its modules pick up
the wrappers.  ``install_fraclab`` then wraps each named public function in
its defining module and in every fraclab module that imported it by name.

A span is a row (name, start, end, parent, op) kept in memory; ``write_spans``
writes the rows out at the end.  Counts are taken at the same boundaries,
per op: every span counts one call of its name, and some functions add the
work their return value reports (Newton iterations, rungs, trials, sweeps).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
from collections import Counter
from time import perf_counter

LAPACK = ("cho_factor", "cho_solve", "lu_factor", "lu_solve", "eigh")
FRACLAB = {
    "operator": ("assemble", "solve_dirichlet", "principal_eigenpair"),
    "solver": ("solve_singular_semilinear", "solve_pure_singular", "build_supersolution",
               "scan_supersolution", "monotone_iteration"),
    "bifurcation": ("estimate_lambda_star", "holder_fit"),
    "variational": ("energy", "sobolev_constant", "mountain_pass_search"),
    "store": ("write_json", "write_csv", "write_plot", "emit_plot_data", "write_manifest"),
    "cli": ("main",),
}
STORE_WRITES = frozenset(f"store.{n}" for n in FRACLAB["store"])
# counts that two traced runs of the same seed must reproduce exactly
DETERMINISTIC = tuple(f"lapack.{n}.calls" for n in LAPACK) + (
    "solver.newton_iters", "solver.rungs_tried", "bifurcation.trials", "variational.mp_sweeps",
)
_SWEEPS = re.compile(r"(?:after|within) (\d+) sweeps")


class Tracer:
    """Span rows and per-op counters; records only while an op is open."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = []  # one Counter per op
        self._stack = []
        self._op = None

    def begin_op(self) -> None:
        self._op = len(self.counts)
        self.counts.append(Counter())

    def end_op(self) -> None:
        self._op = None

    def wrap(self, name, fn, on_return=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            counts = self.counts[op]
            counts[name + ".calls"] += 1
            row = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, op]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                row[2] = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(counts, args, out)
            return out

        wrapper.perfbench_span = name
        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def _add(key, value):
    def hook(counts, args, out):
        counts[key] += value(args, out)
    return hook


def _factor_gflop(per_n3):
    return _add("lapack.factor_gflop", lambda args, out: per_n3 * args[0].shape[0] ** 3 / 1e9)


def _scan(counts, args, out):
    counts["solver.rungs_tried"] += out.attempts
    counts["solver.valid_scans"] += bool(out.valid)


def _trials(counts, args, out):
    counts["bifurcation.trials"] += len(out.evaluations)
    counts["bifurcation.feasible"] += sum(bool(e[1]) for e in out.evaluations)


def _mp_return(counts, args, out):
    counts["variational.mp_sweeps"] += out[1].iterations
    counts["variational.mp_success"] += 1


def _mp_error(counts, exc):
    # a failed search reports its sweep count only in the message
    m = _SWEEPS.search(str(exc))
    counts["variational.mp_sweeps"] += int(m.group(1)) if m else 0


_store_bytes = _add("store.bytes", lambda args, out: os.path.getsize(out))
HOOKS = {
    "lapack.cho_factor": (_factor_gflop(1.0 / 3.0), None),
    "lapack.lu_factor": (_factor_gflop(2.0 / 3.0), None),
    "solver.solve_singular_semilinear": (_add("solver.newton_iters", lambda a, o: o[1].iterations), None),
    "solver.monotone_iteration": (_add("solver.monotone_steps", lambda a, o: o[1].iterations), None),
    "solver.scan_supersolution": (_scan, None),
    "bifurcation.estimate_lambda_star": (_trials, None),
    "variational.mountain_pass_search": (_mp_return, _mp_error),
    "store.write_json": (_store_bytes, None),
    "store.write_csv": (_store_bytes, None),
    "store.write_plot": (_store_bytes, None),
}


def install_lapack(tracer: Tracer) -> None:
    if "fraclab" in sys.modules:
        raise RuntimeError("the LAPACK wrappers must be installed before fraclab is imported")
    import scipy.linalg

    for fn in LAPACK:
        name = f"lapack.{fn}"
        on_return, on_error = HOOKS.get(name, (None, None))
        setattr(scipy.linalg, fn, tracer.wrap(name, getattr(scipy.linalg, fn), on_return, on_error))


def install_fraclab(tracer: Tracer) -> None:
    from fraclab.errors import ConvergenceError

    def solver_error(counts, exc):
        # count an error once, at the innermost solver function it leaves
        if isinstance(exc, ConvergenceError) and not getattr(exc, "perfbench_counted", False):
            exc.perfbench_counted = True
            counts["solver.errors"] += 1

    modules = [importlib.import_module(f"fraclab.{layer}") for layer in FRACLAB]
    modules.append(importlib.import_module("fraclab"))
    for layer, names in FRACLAB.items():
        home = importlib.import_module(f"fraclab.{layer}")
        for fn in names:
            name = f"{layer}.{fn}"
            on_return, on_error = HOOKS.get(name, (None, None))
            if layer == "solver":
                on_error = solver_error
            orig = getattr(home, fn)
            wrapper = tracer.wrap(name, orig, on_return, on_error)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)


def installed_wrappers() -> list:
    """Names of perfbench wrappers bound anywhere in scipy.linalg or fraclab."""
    mods = [m for k, m in sys.modules.items()
            if k == "scipy.linalg" or k == "fraclab" or k.startswith("fraclab.")]
    return sorted({getattr(v, "perfbench_span") for m in mods for v in vars(m).values()
                   if hasattr(v, "perfbench_span")})


def _busy(spans, names) -> float:
    """Time in spans named in ``names``, not counting spans nested in another such span."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metrics of a traced pass, as means per op where they are sums.

    ``extra`` carries what the benchmark measures outside the spans:
    lapack.single_thread_ratio, trace.overhead and the Morse-index counts.
    A ratio whose base is zero (the layer never ran) reads 0.
    """
    spans = tracer.spans
    n_ops = max(len(tracer.counts), 1)
    c = sum(tracer.counts, Counter())

    def busy(*names):
        return _busy(spans, frozenset(names)) / n_ops

    factor_s = _busy(spans, frozenset({"lapack.cho_factor"})) + _busy(spans, frozenset({"lapack.lu_factor"}))
    child = Counter()
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    cli_self = sum(end - start - child[i] for i, (name, start, end, _, _) in enumerate(spans)
                   if name == "cli.main")
    mp_calls = c["variational.mountain_pass_search.calls"]
    return {
        "lapack.cho_factor.calls": c["lapack.cho_factor.calls"] / n_ops,
        "lapack.cho_factor.s": busy("lapack.cho_factor"),
        "lapack.lu_factor.calls": c["lapack.lu_factor.calls"] / n_ops,
        "lapack.tri_solve.calls": (c["lapack.cho_solve.calls"] + c["lapack.lu_solve.calls"]) / n_ops,
        "lapack.factor_gflop": c["lapack.factor_gflop"] / n_ops,
        "lapack.factor_gflops_rate": _ratio(c["lapack.factor_gflop"], factor_s),
        "lapack.single_thread_ratio": extra["lapack.single_thread_ratio"],
        "operator.solve_dirichlet.calls": c["operator.solve_dirichlet.calls"] / n_ops,
        "operator.solve_dirichlet.s": busy("operator.solve_dirichlet"),
        "operator.principal_eigenpair.s": busy("operator.principal_eigenpair"),
        "operator.assemble.s": busy("operator.assemble"),
        "solver.solve_singular_semilinear.calls": c["solver.solve_singular_semilinear.calls"] / n_ops,
        "solver.solve_singular_semilinear.s": busy("solver.solve_singular_semilinear"),
        "solver.newton_iters": c["solver.newton_iters"] / n_ops,
        "solver.scan_supersolution.s": busy("solver.scan_supersolution"),
        "solver.rungs_tried": c["solver.rungs_tried"] / n_ops,
        "solver.rung_yield": _ratio(c["solver.valid_scans"], c["solver.rungs_tried"]),
        "solver.monotone_iteration.s": busy("solver.monotone_iteration"),
        "solver.monotone_steps": c["solver.monotone_steps"] / n_ops,
        "solver.errors": c["solver.errors"] / n_ops,
        "bifurcation.estimate_lambda_star.s": busy("bifurcation.estimate_lambda_star"),
        "bifurcation.trials": c["bifurcation.trials"] / n_ops,
        "bifurcation.feasible_ratio": _ratio(c["bifurcation.feasible"], c["bifurcation.trials"]),
        "variational.mountain_pass_search.s": busy("variational.mountain_pass_search"),
        "variational.mp_sweeps": c["variational.mp_sweeps"] / n_ops,
        "variational.energy.calls": c["variational.energy.calls"] / n_ops,
        "variational.energy.s": busy("variational.energy"),
        "variational.sobolev_constant.s": busy("variational.sobolev_constant"),
        "variational.mp_success_ratio": _ratio(c["variational.mp_success"], mp_calls),
        "variational.mp_index1_ratio": _ratio(extra["index1"], extra["second_solutions"]),
        "store.write.s": busy(*STORE_WRITES),
        "store.bytes": c["store.bytes"] / n_ops,
        "cli.self_s": cli_self / n_ops,
        "trace.overhead": extra["trace.overhead"],
    }


def op_counts(tracer: Tracer) -> list:
    """Per-op values of the counts that must repeat exactly."""
    return [{k: counts[k] for k in DETERMINISTIC} for counts in tracer.counts]
