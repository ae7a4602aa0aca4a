"""Output checks for one op.

An op passes when it exits 0 and its files satisfy the contracts below.
None of these tolerances may be loosened to let a known stall or a loose
acceptance through: a failed check is a failed op.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

RESIDUAL_TOL = 1e-8  # README: converged is never set above this residual
LAMBDA_REL_TOL = 1e-2  # the lambda-star bracket tolerance (--tol-bracket)
ORDER_SLACK = 1e-8  # second solution >= first - slack, nodewise


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as f:
        return json.load(f)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _converged(report: dict, what: str) -> list:
    problems = []
    if report.get("converged") is not True:
        problems.append(f"{what}: converged is {report.get('converged')!r}")
    res = report.get("residual")
    if not isinstance(res, (int, float)) or not res <= RESIDUAL_TOL:
        problems.append(f"{what}: residual {res!r} above {RESIDUAL_TOL:g}")
    return problems


def check_manifest(outdir: str) -> list:
    manifest = _load(outdir, "manifest.json")
    problems = []
    for name, digest in manifest["files"].items():
        path = os.path.join(outdir, name)
        if not os.path.isfile(path):
            problems.append(f"manifest lists missing file {name}")
        elif _sha256(path) != digest:
            problems.append(f"sha256 of {name} does not match the manifest")
    return problems


def check_op(op, outdir: str) -> list:
    """Problems found in the outputs of an op that exited 0; empty if none."""
    try:
        problems = check_manifest(outdir)
        if op.command == "lambda-star":
            est = _load(outdir, "lambda_star.json")["estimate"]
            if not abs(est - op.lam_ref) <= LAMBDA_REL_TOL * op.lam_ref:
                problems.append(f"lambda* {est!r} not within {LAMBDA_REL_TOL:g} "
                                f"of reference {op.lam_ref!r}")
        elif op.command == "pure-singular":
            problems += _converged(_load(outdir, "pure_singular.json"), "pure-singular")
        elif op.command == "regularity":
            problems += _converged(_load(outdir, "regularity.json")["report"], "regularity")
        elif op.command == "mountain-pass":
            first = _load(outdir, "first_solution.json")
            second = _load(outdir, "second_solution.json")
            problems += _converged(first, "first solution")
            problems += _converged(second, "second solution")
            gap = float((np.asarray(second["values"]) - np.asarray(first["values"])).min())
            if not gap >= -ORDER_SLACK:
                problems.append(f"second solution below the first by {-gap:.3e}")
            if not second["energy"] > first["energy"]:
                problems.append(f"second energy {second['energy']!r} not above "
                                f"first {first['energy']!r}")
        else:
            problems.append(f"no check for command {op.command!r}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def morse_index(outdir: str) -> int:
    """Negative eigenvalues of the Jacobian at the op's second solution.

    Rebuilds the stiffness matrix from the grid recorded in
    second_solution.json; the Jacobian is
    A + diag(massw (q v^{-q-1} - lam (crit-1) v^{crit-2})).
    """
    from fraclab.grid import build_grid
    from fraclab.operator import assemble

    sol = _load(outdir, "second_solution.json")
    s, q, lam = sol["params"]["s"], sol["params"]["q"], sol["params"]["lam"]
    g = sol["grid"]
    system = assemble(build_grid(g["a"], g["b"], g["n"]), s)
    v = np.asarray(sol["values"])
    crit = 2.0 / (1.0 - 2.0 * s)
    diag = system.massw * (q * v ** (-q - 1.0) - lam * (crit - 1.0) * v ** (crit - 2.0))
    eig = np.linalg.eigvalsh(system.stiffness + np.diag(diag))
    return int(np.sum(eig < 0.0))
