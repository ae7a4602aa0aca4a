"""Result persistence: JSON, CSV, plot data, and hashed run manifests.

Formats are deliberately plain.  JSON carries structured results, CSV the
branch diagrams, and whitespace-separated two-column text the plot data.
Reruns on identical inputs produce byte-identical files; the manifest is
written atomically and last, with a content hash for every other output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from datetime import datetime, timezone

import numpy as np

from .bifurcation import BifurcationDiagram, HolderFit


def _clean(obj):
    """Replace non-finite floats so json stays standard-compliant.

    A boolean array becomes the list of its entries as Python bools; any
    other array the list of its entries as Python floats, by one
    ``tolist()``, with each non-finite entry replaced by its ``repr``.
    numpy scalars become Python ones.
    """
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.bool_:
            return obj.tolist()
        values = np.asarray(obj, dtype=float)
        out = values.tolist()
        for i in np.flatnonzero(~np.isfinite(values)):
            out[i] = repr(out[i])
        return out
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path, obj) -> str:
    text = json.dumps(_clean(obj), sort_keys=True, indent=2)
    with open(path, "w") as f:
        f.write(text + "\n")
    return path


def write_csv(path, fieldnames, rows) -> str:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})
    return path


def write_plot(path, xs, ys, header: str) -> str:
    """Two-column whitespace-separated data with a '#'-prefixed header."""
    lines = [f"# {header}"]
    for x, y in zip(xs, ys):
        lines.append(f"{float(x):.17g} {float(y):.17g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def emit_plot_data(result, outdir, prefix: str) -> list:
    """Write plot files for a diagram or a boundary fit; returns the paths.

    Diagrams get one (lam, sup) file per branch.  A fit gets the scatter of
    fitted points plus the fitted line sampled at the window ends.  An empty
    diagram produces no file, only a warning.
    """
    paths = []
    if isinstance(result, BifurcationDiagram):
        by_branch: dict = {}
        for e in result.entries:
            if e.converged:
                by_branch.setdefault(e.branch, []).append((e.lam, e.sup))
        if not by_branch:
            warnings.warn("diagram holds no converged entries; nothing to plot")
            return paths
        for branch, pts in sorted(by_branch.items()):
            path = os.path.join(outdir, f"{prefix}_{branch}.dat")
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            write_plot(path, xs, ys, f"lam sup ({branch} branch)")
            paths.append(path)
        return paths
    if isinstance(result, HolderFit):
        scatter = os.path.join(outdir, f"{prefix}_scatter.dat")
        write_plot(scatter, result.regressor, result.log_values, "regressor log_u")
        paths.append(scatter)
        line = os.path.join(outdir, f"{prefix}_fit.dat")
        r0 = float(result.regressor.min())
        r1 = float(result.regressor.max())
        xs = [r0, r1]
        ys = [result.slope * r0 + result.intercept, result.slope * r1 + result.intercept]
        write_plot(line, xs, ys, f"regressor fitted_line slope={result.slope:.6g}")
        paths.append(line)
        return paths
    raise TypeError(f"no plot emission for {type(result)!r}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir, config_snapshot: dict, reports: dict, files: list, version: str) -> str:
    """Hash every output file and write manifest.json atomically, last."""
    inventory = {}
    for path in sorted(files):
        inventory[os.path.basename(path)] = sha256_file(path)
    manifest = {
        "artifact_version": version,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": _clean(config_snapshot),
        "reports": _clean(reports),
        "files": inventory,
    }
    final = os.path.join(outdir, "manifest.json")
    tmp = final + ".tmp"
    write_json(tmp, manifest)
    os.replace(tmp, final)
    return final


def load_manifest(path) -> dict:
    with open(path) as f:
        return json.load(f)
