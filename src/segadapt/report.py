"""Run report: every fragment under a run directory, aggregated over seeds.

Every run writes JSON fragments; emit_report aggregates them, recomputing all
means from the stored per-image lists and refusing to report numbers that do
not reproduce.  Methods are compared per domain cell with paired t-tests on
the per-image scores pooled over seeds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import read_file
from .errors import IntegrityError, ValidationError
from .stats import paired_t_test, seed_summary


def _check_mean(stored: float, values: Sequence[float], context: str) -> None:
    recomputed = float(np.mean(np.asarray(values, dtype=np.float64)))
    if abs(recomputed - stored) > 1e-9:
        raise IntegrityError(
            f"{context}: stored mean {stored!r} does not reproduce from per-image "
            f"scores (recomputed {recomputed!r})"
        )


def _is_int(v) -> bool:
    # Bounded so that every integer converts to a float exactly.
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= 2**53


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_scores(v) -> bool:
    return isinstance(v, list) and bool(v) and all(_is_number(x) for x in v)


def _is_records(v) -> bool:
    return isinstance(v, list) and bool(v) and all(
        isinstance(r, dict) and _is_number(r.get("iou_before")) and _is_number(r.get("iou_after"))
        for r in v
    )


_TEXT = (lambda v: isinstance(v, str), "a string")
_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a finite number")
# Per fragment kind, each key the report reads and what it must hold.
_FRAGMENT_KEYS = {
    "train": {
        "method": _TEXT,
        "trainable_params": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
        "total_params": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    },
    "eval": {
        "method": _TEXT, "seed": _INT, "domain": _TEXT, "split": _TEXT, "mean": _NUMBER,
        "per_image": (_is_scores, "a non-empty list of finite numbers"),
    },
    "ttda": {
        "method": _TEXT, "split": _TEXT, "count": _INT,
        "mean_iou_before": _NUMBER, "mean_iou_after": _NUMBER, "entropy_improved_fraction": _NUMBER,
        "per_sample": (_is_records, "a non-empty list of objects with finite 'iou_before' and 'iou_after'"),
    },
}


def collect_fragments(run_dir: str | Path) -> list[dict]:
    """Every run fragment under ``run_dir``, each checked to hold the keys
    the report reads; a malformed one is a ValidationError naming path and key."""
    run_dir = Path(run_dir)
    fragments = []
    for path in sorted(p for p in run_dir.rglob("*.json") if p.is_file()):
        try:
            doc = json.loads(read_file(path, "fragment"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if not isinstance(kind, str) or kind not in _FRAGMENT_KEYS:
            continue
        for key, (valid, what) in _FRAGMENT_KEYS[kind].items():
            if key not in doc:
                raise ValidationError(f"{kind} fragment {path} lacks key {key!r}")
            if not valid(doc[key]):
                raise ValidationError(f"{kind} fragment {path}: key {key!r} must be {what}")
        doc["_path"] = str(path)
        fragments.append(doc)
    if not fragments:
        raise ValidationError(f"no run fragments found under {run_dir}")
    return fragments


def aggregate_report(run_dir: str | Path) -> dict:
    """Cross-check every fragment and aggregate over seeds."""
    fragments = collect_fragments(run_dir)
    evals = [f for f in fragments if f["kind"] == "eval"]
    trains = [f for f in fragments if f["kind"] == "train"]
    ttdas = [f for f in fragments if f["kind"] == "ttda"]

    for f in evals:
        _check_mean(f["mean"], f["per_image"], f"eval fragment {f['_path']}")
    for f in ttdas:
        _check_mean(f["mean_iou_before"], [r["iou_before"] for r in f["per_sample"]],
                    f"ttda fragment {f['_path']} (before)")
        _check_mean(f["mean_iou_after"], [r["iou_after"] for r in f["per_sample"]],
                    f"ttda fragment {f['_path']} (after)")

    methods: dict[str, dict] = {}
    for f in trains:
        entry = methods.setdefault(f["method"], {"params": None, "cells": {}})
        entry["params"] = (f["trainable_params"], f["total_params"])

    grouped: dict[tuple[str, str, str], list[dict]] = {}
    for f in sorted(evals, key=lambda f: f["seed"]):
        grouped.setdefault((f["method"], f["domain"], f["split"]), []).append(f)
    # Per-image scores pooled seed-major, for the paired tests below.
    by_cell: dict[tuple[str, str], dict[str, list[float]]] = {}
    for (method, domain, split), group in sorted(grouped.items()):
        seed_means = [f["mean"] for f in group]
        mean, std = seed_summary(seed_means)
        cell = {"seeds": [f["seed"] for f in group], "seed_means": seed_means, "mean": mean, "std": std}
        methods.setdefault(method, {"params": None, "cells": {}})["cells"][f"{domain}_{split}"] = cell
        by_cell.setdefault((domain, split), {})[method] = [v for f in group for v in f["per_image"]]

    tests = []
    for (domain, split), per_method in sorted(by_cell.items()):
        names = sorted(per_method)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if len(per_method[a]) != len(per_method[b]) or len(per_method[a]) < 2:
                    continue
                result = paired_t_test(per_method[a], per_method[b])
                tests.append(
                    {
                        "domain": domain,
                        "split": split,
                        "methods": [a, b],
                        "t": result.statistic,
                        "p": result.p_value,
                        "dof": result.dof,
                        "degenerate": result.degenerate,
                    }
                )

    ttda_summary = [
        {
            "method": f["method"],
            "split": f["split"],
            "count": f["count"],
            "mean_iou_before": f["mean_iou_before"],
            "mean_iou_after": f["mean_iou_after"],
            "entropy_improved_fraction": f["entropy_improved_fraction"],
        }
        for f in ttdas
    ]
    return {
        "methods": methods,
        "t_tests": tests,
        "ttda": ttda_summary,
        "fragments": len(fragments),
    }


def render_table(report: dict) -> str:
    """Plain-text layout: methods down the rows, domain cells across."""
    cells = sorted({cell for m in report["methods"].values() for cell in m["cells"]})
    header = ["method", "params (train/total)"] + [f"{c} IoU" for c in cells]
    rows = [header]
    for method in sorted(report["methods"]):
        entry = report["methods"][method]
        params = "-"
        if entry["params"]:
            trainable, total = entry["params"]
            params = f"{trainable:,}/{total:,} ({100 * trainable / total:.1f}%)"
        row = [method, params]
        for cell in cells:
            stats = entry["cells"].get(cell)
            row.append("-" if stats is None else f"{stats['mean']:.4f} ± {stats['std']:.4f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))

    if report["ttda"]:
        lines.append("")
        lines.append("test-time adaptation:")
        for t in report["ttda"]:
            lines.append(
                f"  {t['method']} on {t['split']}: IoU {t['mean_iou_before']:.4f} -> "
                f"{t['mean_iou_after']:.4f} over {t['count']} samples "
                f"(entropy down on {100 * t['entropy_improved_fraction']:.0f}%)"
            )
    if report["t_tests"]:
        lines.append("")
        lines.append("paired t-tests (per-image IoU, pooled over seeds):")
        for t in report["t_tests"]:
            flag = " [degenerate]" if t["degenerate"] else ""
            lines.append(
                f"  {t['methods'][0]} vs {t['methods'][1]} on {t['domain']}_{t['split']}: "
                f"t={t['t']:+.3f}, p={t['p']:.4g}, dof={t['dof']}{flag}"
            )
    return "\n".join(lines)


def emit_report(run_dir: str | Path, fmt: str = "table") -> str:
    report = aggregate_report(run_dir)
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "table":
        return render_table(report)
    raise ValidationError(f"unknown report format {fmt!r}; expected 'json' or 'table'")
