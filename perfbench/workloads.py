"""Seeded generation of the benchmark's ops.

An op is one fraclab CLI invocation.  Ops come in cycles: one cycle visits
every (s, q) pair of the reference table, so every cycle does the same mix of
work whatever the seed.  The seed draws the order of a cycle, the position
of the interval (a, a + 2) and, for the second branch, the fraction f of
lambda*_ref.  The interval length, and with it the stiffness matrix and
every lambda*, does not depend on the shift: a is a multiple of 1/4, so
b - a = 2 is exact.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SHIFTS = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5)
# second-branch: lambda = f * lambda*_ref(N=256), f uniform in [F_LO, F_HI],
# stratified into MP_STRATA draws per (s, q) pair and cycle
F_LO, F_HI = 0.1, 0.95
MP_STRATA = 12

WORKLOADS = ("extremal", "continuation", "second-branch")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its outputs are checked against."""

    command: str
    s: float
    q: float
    n: int
    argv: tuple
    lam_ref: float | None = None  # lambda*_ref at this N (lambda-star only)
    lam: float | None = None  # the --lambda passed (mountain-pass only)

    def label(self) -> str:
        extra = "" if self.lam is None else f" lambda={self.lam:.6g}"
        return f"{self.command} s={self.s} q={self.q} N={self.n}{extra}"


def load_table(path: str = os.path.join(HERE, "table.json")) -> list:
    with open(path) as f:
        return json.load(f)["pairs"]


def _argv(command, s, q, n, a, *extra) -> tuple:
    return (command, "--s", repr(s), "--q", repr(q), "--N", str(n),
            f"--a={a!r}", f"--b={a + 2.0!r}", *extra)


def cycle(workload: str, table: list, rng: random.Random) -> list:
    """The ops of one cycle of ``workload``, drawn from ``rng``."""
    pairs = list(table)
    rng.shuffle(pairs)
    ops = []
    for p in pairs:
        s, q = p["s"], p["q"]
        if workload == "extremal":
            a = rng.choice(SHIFTS)
            ops.append(Op("lambda-star", s, q, 512, _argv("lambda-star", s, q, 512, a),
                          lam_ref=p["lambda_star"]["512"]))
        elif workload == "continuation":
            a = rng.choice(SHIFTS)
            commands = ["pure-singular", "regularity"]
            rng.shuffle(commands)
            ops.extend(Op(c, s, q, 1024, _argv(c, s, q, 1024, a)) for c in commands)
        elif workload == "second-branch":
            for k in range(MP_STRATA):
                f = F_LO + (F_HI - F_LO) * (k + rng.random()) / MP_STRATA
                lam = f * p["lambda_star"]["256"]
                a = rng.choice(SHIFTS)
                ops.append(Op("mountain-pass", s, q, 256,
                              _argv("mountain-pass", s, q, 256, a, f"--lambda={lam!r}"),
                              lam=lam))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    if workload == "second-branch":
        rng.shuffle(ops)
    return ops


def warmup_argvs(workload: str, table: list) -> list:
    """Small (N = 32) invocations of the workload's subcommands, run untimed."""
    p = table[0]
    s, q = p["s"], p["q"]
    if workload == "extremal":
        return [_argv("lambda-star", s, q, 32, -1.0)]
    if workload == "continuation":
        return [_argv(c, s, q, 32, -1.0) for c in ("pure-singular", "regularity")]
    lam = 0.5 * p["lambda_star"]["256"]
    return [_argv("mountain-pass", s, q, 32, -1.0, f"--lambda={lam!r}")]
