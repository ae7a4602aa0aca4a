"""Regenerate the benchmark's reference table, perfbench/table.json.

For every (s, q) pair below, runs ``fraclab lambda-star --s S --q Q --N N``
at N = 256 and N = 512 on the interval (-1, 1) and records the estimate.
The benchmark draws its inputs only from this table: the extremal workload
checks its estimates against the N = 512 column, and the second-branch
workload sets lambda = f * lambda*_ref(N = 256).

    python3 perfbench/make_table.py [--commit SHA]

All pairs have s >= 0.3, above the M-matrix threshold 0.237, and together
cover the three boundary regimes q < 1, q = 1 and q > 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRS = [(0.3, 1.0), (0.35, 0.5), (0.4, 2.0), (0.45, 3.0)]
SIZES = (256, 512)


def lambda_star(main, s: float, q: float, n: int) -> float:
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        argv = ["lambda-star", "--s", repr(s), "--q", repr(q), "--N", str(n),
                "--output-dir", out]
        if main(argv) != 0:
            raise SystemExit(f"fraclab {' '.join(argv)} failed")
        with open(os.path.join(out, "lambda_star.json")) as f:
            return float(json.load(f)["estimate"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default=None,
                        help="commit the references were computed on")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fraclab.cli import main as fraclab_main

    pairs = []
    for s, q in PAIRS:
        refs = {str(n): lambda_star(fraclab_main, s, q, n) for n in SIZES}
        pairs.append({"s": s, "q": q, "lambda_star": refs})
        print(f"s={s} q={q} " + " ".join(f"N={n}: {v!r}" for n, v in refs.items()))
    table = {
        "computed_with": "fraclab lambda-star --s S --q Q --N N (interval (-1, 1), defaults otherwise)",
        "commit": args.commit,
        "pairs": pairs,
    }
    with open(os.path.join(HERE, "table.json"), "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
