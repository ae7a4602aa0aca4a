"""Command-line front end: batch pipelines, config layering, manifests.

Subcommands: solve, pure-singular, sweep, lambda-star, mountain-pass,
regularity, validate.  Flags may come from a KEY=VALUE config file
(--config), with explicit flags taking precedence; the output directory can
also arrive through the FRACLAB_OUTPUT_DIR environment variable.  Exit
codes: 0 success, 2 parameter or usage rejection, 3 non-convergence or a
failed validation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import gamma

from . import __version__
from .bifurcation import (
    estimate_lambda_star,
    holder_fit,
    lambda_certificate,
    sweep_lambda,
)
from .errors import ConvergenceError, FraclabError, ParameterError
from .grid import build_grid
from .operator import (
    ProblemParams,
    apply_operator,
    assemble,
    is_positive_definite,
    jacobian,
    kernel_constant,
    m_matrix_threshold,
    principal_eigenpair,
    solve_dirichlet,
)
from .solver import (
    comparison_check,
    scan_supersolution,
    envelope_check,
    monotone_iteration,
    solve_pure_singular,
    solve_singular_semilinear,
)
from .store import emit_plot_data, write_csv, write_json, write_manifest, write_plot
from .variational import (
    energy,
    gateaux_derivative,
    make_bubble,
    mountain_pass_search,
    sobolev_constant,
)

ENV_OUTPUT_DIR = "FRACLAB_OUTPUT_DIR"


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a run, whatever the subcommand."""

    s: float = 0.4
    q: float = 2.0
    lam: float | None = None
    lams: tuple = ()
    n: int = 256
    a: float = -1.0
    b: float = 1.0
    seed: int = 0
    output_dir: str = "fraclab-out"

    def validate(self) -> None:
        # every lambda, each sweep value too, is checked before any solve
        for lam in (self.lam or 0.0, *self.lams):
            ProblemParams(s=self.s, q=self.q, lam=lam)
        if self.n < 2:
            raise ParameterError(f"need at least 2 nodes, got {self.n}")
        if not self.b > self.a:
            raise ParameterError(f"need b > a, got ({self.a}, {self.b})")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lams"] = list(self.lams)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        if "lams" in d:
            d["lams"] = tuple(float(x) for x in d["lams"])
        return cls(**d)


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ParameterError(f"cannot parse float list {text!r}") from exc


def read_config_file(path: str) -> dict:
    """KEY=VALUE lines, '#' comments; keys mirror the CLI flags."""
    values = {}
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().lower().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    return values


_FILE_KEYS = {
    "s": float,
    "q": float,
    "lambda": str,
    "n": int,
    "a": float,
    "b": float,
    "seed": int,
    "output_dir": str,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then explicit flags."""
    layered: dict = {}
    if args.config:
        raw = read_config_file(args.config)
        for key, text in raw.items():
            if key not in _FILE_KEYS:
                raise ParameterError(f"unknown config key {key!r}")
            try:
                layered[key] = _FILE_KEYS[key](text)
            except ValueError as exc:
                raise ParameterError(f"bad value for {key}: {text!r}") from exc
    # --lambda stores to ``lam`` (taken below), so ``args.lambda`` is never set
    for name in _FILE_KEYS:
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            layered[name] = cli_val
    if getattr(args, "lam", None) is not None:
        layered["lambda"] = args.lam
    if "lambda" in layered:
        lams = _parse_float_list(str(layered.pop("lambda")))
        layered["lams"] = lams
        layered["lam"] = lams[0] if len(lams) == 1 else None
    if "output_dir" not in layered and os.environ.get(ENV_OUTPUT_DIR):
        layered["output_dir"] = os.environ[ENV_OUTPUT_DIR]
    cfg = replace(RunConfig(), **layered)
    cfg.validate()
    return cfg


def _setup(cfg: RunConfig, lam: float | None = None):
    grid = build_grid(cfg.a, cfg.b, cfg.n)
    system = assemble(grid, cfg.s)
    params = ProblemParams(s=cfg.s, q=cfg.q, lam=0.0 if lam is None else lam)
    return grid, system, params


def _solution_payload(grid, params, u, report) -> dict:
    return {
        "params": {"s": params.s, "q": params.q, "lam": params.lam},
        "grid": {"a": grid.a, "b": grid.b, "n": grid.n, "h": grid.h},
        "values": u,
        **asdict(report),
    }


def _require_single_lam(cfg: RunConfig) -> float:
    if cfg.lam is None or cfg.lam <= 0.0:
        raise ParameterError("this command needs exactly one positive --lambda")
    return cfg.lam


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def cmd_pure_singular(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    grid, system, params = _setup(cfg)
    u, rep = solve_pure_singular(system, params)
    files = [
        write_json(os.path.join(out, "pure_singular.json"),
                   _solution_payload(grid, params, u, rep)),
        write_plot(os.path.join(out, "pure_singular_profile.dat"),
                   grid.nodes, u, "x u"),
    ]
    write_manifest(out, cfg.to_dict(), {"pure-singular": asdict(rep)}, files, __version__)
    return 0 if rep.converged else 3


def cmd_solve(cfg: RunConfig) -> int:
    lam = _require_single_lam(cfg)
    out = _outdir(cfg)
    grid, system, params = _setup(cfg, lam)
    sup = scan_supersolution(system, params)
    u, rep = monotone_iteration(system, params, bound=sup.values if sup.valid else None)
    payload = _solution_payload(grid, params, u, rep)
    payload["supersolution"] = {
        "valid": sup.valid,
        "multiplier": sup.multiplier,
        "attempts": sup.attempts,
        "worst_defect": sup.worst_defect,
    }
    files = [write_json(os.path.join(out, "solution.json"), payload)]
    if rep.converged:
        files.append(write_plot(os.path.join(out, "solution_profile.dat"),
                                grid.nodes, u, "x u"))
    write_manifest(out, cfg.to_dict(), {"solve": asdict(rep)}, files, __version__)
    return 0 if rep.converged else 3


def cmd_sweep(cfg: RunConfig, second: bool) -> int:
    if not cfg.lams:
        raise ParameterError("sweep needs --lambda with one or more values")
    out = _outdir(cfg)
    grid, system, params = _setup(cfg)
    diagram = sweep_lambda(system, params, cfg.lams, second=second)
    rows = [
        {
            "lambda": e.lam,
            "branch": e.branch,
            "supnorm": e.sup,
            "energy": e.energy,
            "residual": e.residual,
            "iterations": e.iterations,
            "converged": e.converged,
        }
        for e in diagram.entries
    ]
    files = [
        write_csv(os.path.join(out, "sweep.csv"),
                  ["lambda", "branch", "supnorm", "energy", "residual", "converged"],
                  rows),
        write_json(os.path.join(out, "sweep.json"),
                   {"entries": rows, "lambda_cert": diagram.lambda_cert}),
    ]
    files.extend(emit_plot_data(diagram, out, "sweep"))
    converged_any = any(e.converged for e in diagram.entries)
    write_manifest(out, cfg.to_dict(), {"sweep": {"entries": len(rows)}}, files, __version__)
    return 0 if converged_any else 3


def cmd_lambda_star(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    grid, system, params = _setup(cfg)
    res = estimate_lambda_star(system, params)
    payload = {
        "estimate": res.estimate,
        "bracket": list(res.bracket),
        "lambda_cert": res.lambda_cert,
        "evaluations": [
            {"lam": lam, "feasible": feasible, "multiplier": multiplier}
            for lam, feasible, multiplier in res.evaluations
        ],
    }
    files = [write_json(os.path.join(out, "lambda_star.json"), payload)]
    write_manifest(out, cfg.to_dict(), {"lambda-star": {"estimate": res.estimate}},
                   files, __version__)
    return 0


def cmd_mountain_pass(cfg: RunConfig, trace_path: str | None) -> int:
    lam = _require_single_lam(cfg)
    out = _outdir(cfg)
    grid, system, params = _setup(cfg, lam)
    sup = scan_supersolution(system, params)
    first, frep = monotone_iteration(system, params, bound=sup.values if sup.valid else None)
    files = [
        write_json(os.path.join(out, "first_solution.json"),
                   _solution_payload(grid, params, first, frep)),
    ]
    if not frep.converged:
        write_manifest(out, cfg.to_dict(), {"first": asdict(frep)}, files, __version__)
        print("minimal branch did not converge; no base point", file=sys.stderr)
        return 3
    trace = [] if trace_path else None
    try:
        second, srep = mountain_pass_search(system, params, first, trace=trace)
    except ConvergenceError as exc:
        write_manifest(out, cfg.to_dict(), {"first": asdict(frep)}, files, __version__)
        print(f"mountain pass failed: {exc}", file=sys.stderr)
        return 3
    finally:
        if trace_path and trace is not None:
            with open(trace_path, "w") as f:
                for entry in trace:
                    f.write(json.dumps(entry, sort_keys=True) + "\n")
    payload = _solution_payload(grid, params, second, srep)
    payload["sobolev"] = sobolev_constant(system)
    payload["separation"] = abs(float(second.max()) - float(first.max())) / float(first.max())
    files.append(write_json(os.path.join(out, "second_solution.json"), payload))
    write_manifest(out, cfg.to_dict(),
                   {"first": asdict(frep), "second": asdict(srep)},
                   files, __version__)
    return 0


def cmd_regularity(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    grid, system, params = _setup(cfg)
    u, rep = solve_pure_singular(system, params)
    fit = holder_fit(grid, params, u)
    payload = {
        "params": {"s": params.s, "q": params.q},
        "fit": {
            k: v for k, v in asdict(fit).items() if k not in ("regressor", "log_values")
        },
        "report": asdict(rep),
    }
    files = [write_json(os.path.join(out, "regularity.json"), payload)]
    files.extend(emit_plot_data(fit, out, "regularity"))
    write_manifest(out, cfg.to_dict(), {"regularity": payload["fit"]}, files, __version__)
    return 0 if rep.converged else 3


def _run_validate_battery(cfg: RunConfig) -> tuple:
    """Deterministic invariant battery; returns (lines, all_ok)."""
    lines = []
    ok_all = True

    def check(name, passed, detail):
        nonlocal ok_all
        tag = "ok" if passed else "FAIL"
        ok_all = ok_all and bool(passed)
        lines.append(f"{tag} {name}: {detail}")

    rng = np.random.default_rng(cfg.seed)

    g3 = build_grid(0.0, 1.0, 3)
    check("grid-nodes", np.allclose(g3.nodes, [0.25, 0.5, 0.75], atol=1e-15),
          f"nodes={[f'{v:.12g}' for v in g3.nodes]}")

    c = kernel_constant(0.25)
    check("kernel-constant", abs(c - 0.099735570100358169) <= 1e-14,
          f"value={c:.17g}")

    thr = m_matrix_threshold()
    check("m-matrix-threshold", abs(thr - 0.2373770657941625) <= 1e-9,
          f"value={thr:.12g}")

    grid = build_grid(-1.0, 1.0, 64)
    system = assemble(grid, 0.4)
    A = system.stiffness
    sym = float(np.abs(A - A.T).max())
    offdiag = float((A - np.diag(np.diag(A))).max())
    try:
        system.factor  # the one Cholesky of A; LinAlgError when A is not SPD
        spd = True
    except np.linalg.LinAlgError:
        spd = False
    check("stiffness-structure", sym == 0.0 and spd and offdiag <= 0.0,
          f"asym={sym:.3g} spd={spd} max_offdiag={offdiag:.3e}")

    g25 = build_grid(-1.0, 1.0, 128)
    sys25 = assemble(g25, 0.25)
    u_t = solve_dirichlet(sys25, 1.0)
    kappa = 2.0 ** 0.5 * gamma(0.75) * gamma(1.25) / gamma(0.5)
    exact_mid = (1.0 - g25.nodes[64] ** 2) ** 0.25 / kappa
    mid_err = abs(u_t[64] - exact_mid) / exact_mid
    check("torsion-midpoint", mid_err <= 0.02, f"rel_err={mid_err:.3e}")

    spec = principal_eigenpair(system)
    check("eigenpair", spec.mode.min() > 0.0, f"lam1={spec.value:.12g}")

    p_cert = ProblemParams(s=0.25, q=2.0)
    cert = lambda_certificate(p_cert, 1.0)
    check("certificate-example", abs(cert - 1.0341286512153042) <= 1e-10,
          f"value={cert:.17g}")

    params = ProblemParams(s=0.4, q=2.0)
    ordered_all = True
    worst = np.inf
    for _ in range(5):
        base_src = rng.uniform(0.0, 2.0, grid.n)
        bump = rng.uniform(0.0, 1.0, grid.n)
        u_lo, _ = solve_singular_semilinear(system, params, base_src)
        u_hi, _ = solve_singular_semilinear(system, params, base_src + bump)
        rep = comparison_check(system, params, u_lo, u_hi, base_src, base_src + bump)
        ordered_all = ordered_all and rep.ordered
        worst = min(worst, rep.worst_gap)
    check("comparison-pairs", ordered_all, f"worst_gap={worst:.3e}")

    # w comes from the even block, which is exact because A equals its reflection
    w, _ = solve_pure_singular(system, params)
    w_full, _ = solve_singular_semilinear(system, params)
    mirror = bool(np.array_equal(A, A[::-1, ::-1]))
    w_dev = float(np.abs(w - w_full).max() / np.abs(w_full).max())
    check("parity", mirror and w_dev <= 1e-13, f"mirror={mirror} w_rel_dev={w_dev:.1e}")

    fd_ok = True
    worst_fd = 0.0
    for _ in range(3):
        u = w + rng.uniform(0.0, 1.0, grid.n)
        phi = rng.standard_normal(grid.n)
        dval = gateaux_derivative(system, params, u, phi)
        tstep = 1e-6
        fd = (energy(system, params, u + tstep * phi)
              - energy(system, params, u - tstep * phi)) / (2.0 * tstep)
        rel = abs(dval - fd) / max(abs(dval), 1e-30)
        worst_fd = max(worst_fd, rel)
        fd_ok = fd_ok and rel <= 1e-4
    check("gateaux-fd", fd_ok, f"worst_rel={worst_fd:.3e}")

    # the solutions u of the regularized problems A u = massw (u + eps)^{-q}
    # rise to w as eps falls.  A is linear, so v = u + eps solves the
    # frozen-source problem with g = eps (A 1) / massw > 0: 15 levels and
    # eps = 0, each a cold solve
    a1 = apply_operator(system, np.ones(grid.n)) / system.massw
    levels = [0.1 * 4.0 ** (-k) for k in range(15)] + [0.0]
    fields = [solve_singular_semilinear(system, params, eps * a1)[0] - eps for eps in levels]
    inc_ok = all(float((u - prev).min()) >= -1e-10 for prev, u in zip(fields, fields[1:]))
    check("regularization-monotone", inc_ok, f"stages={len(levels)}")

    p_lam = params.with_lam(0.02)
    sup = scan_supersolution(system, p_lam)
    u_min, mrep = monotone_iteration(system, p_lam, bound=sup.values if sup.valid else None)
    env = envelope_check(system, p_lam, u_min) if mrep.converged else None
    check("minimal-branch",
          sup.valid and mrep.converged and env.ok,
          f"multiplier={sup.multiplier} iters={mrep.iterations} residual={mrep.residual:.3e}")

    sob = sobolev_constant(system)
    bub = make_bubble(grid, params, 0.02, sob)
    inside = np.abs(grid.nodes - bub.center) <= 2.0 * bub.nu + grid.h
    support_ok = bool(np.all(bub.values[~inside] == 0.0))
    pw = (1.0 - 2.0 * 0.4) / 2.0
    center_idx = int(np.argmin(np.abs(grid.nodes - bub.center)))
    y = abs(grid.nodes[center_idx] - bub.center) / (0.02 * sob ** (1.0 / 0.8))
    expected = 0.02 ** (-pw) * (1.0 + y ** 2) ** (-pw) / np.pi ** pw
    core_ok = abs(bub.values[center_idx] - expected) <= 1e-12 * expected
    check("bubble-structure", support_ok and core_ok,
          f"sobolev={sob:.6g} core={bub.values[center_idx]:.6g}")

    # the minimal solution is a local minimizer: its Jacobian has Morse index 0
    morse0 = mrep.converged and is_positive_definite(jacobian(system, p_lam, u_min))
    check("morse-at-minimal", morse0, f"index={'0' if morse0 else '>0'}")

    status = "PASS" if ok_all else "FAIL"
    lines.append(f"RESULT {status} ({len(lines)} checks, seed={cfg.seed})")
    return lines, ok_all


def cmd_validate(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    lines, ok = _run_validate_battery(cfg)
    report_path = os.path.join(out, "validate_report.txt")
    with open(report_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    write_manifest(out, cfg.to_dict(), {"validate": {"passed": ok}}, [report_path], __version__)
    print(lines[-1])
    return 0 if ok else 3


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="KEY=VALUE config file mirroring the flags")
    common.add_argument("--s", type=float, dest="s", help="fractional order in (0, 1/2)")
    common.add_argument("--q", type=float, dest="q", help="singular exponent, positive")
    common.add_argument("--lambda", dest="lam", help="critical coefficient; comma list for sweep")
    common.add_argument("--N", type=int, dest="n", help="interior node count")
    common.add_argument("--a", type=float, dest="a", help="left endpoint")
    common.add_argument("--b", type=float, dest="b", help="right endpoint")
    common.add_argument("--seed", type=int, dest="seed")
    common.add_argument("--output-dir", dest="output_dir")

    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="numerical laboratory for a singular critical nonlocal problem",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # abbreviation matching is off everywhere: a prefix silently resolving to
    # another flag is exactly the kind of mix-up a parameter-heavy tool must reject
    kw = {"parents": [common], "allow_abbrev": False}
    p = sub.add_parser("solve", help="minimal solution at one lambda", **kw)
    p.set_defaults(run=lambda cfg, args: cmd_solve(cfg))
    p = sub.add_parser("pure-singular", help="solution without the critical term", **kw)
    p.set_defaults(run=lambda cfg, args: cmd_pure_singular(cfg))
    p = sub.add_parser("sweep", help="branch diagram over lambda values", **kw)
    p.add_argument("--second", action="store_true", help="also trace the second branch")
    p.set_defaults(run=lambda cfg, args: cmd_sweep(cfg, args.second))
    p = sub.add_parser("lambda-star", help="ladder lower bound of the extremal parameter", **kw)
    p.set_defaults(run=lambda cfg, args: cmd_lambda_star(cfg))
    p = sub.add_parser("mountain-pass", help="second solution at one lambda", **kw)
    p.add_argument("--trace", dest="trace", help="stream sweep diagnostics to a JSON-lines file")
    p.set_defaults(run=lambda cfg, args: cmd_mountain_pass(cfg, args.trace))
    p = sub.add_parser("regularity", help="boundary exponent of the singular profile", **kw)
    p.set_defaults(run=lambda cfg, args: cmd_regularity(cfg))
    p = sub.add_parser("validate", help="deterministic invariant battery", **kw)
    p.set_defaults(run=lambda cfg, args: cmd_validate(cfg))
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.run(build_config(args), args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except FraclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
