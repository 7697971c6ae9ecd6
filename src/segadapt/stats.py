"""Seed summaries and the paired two-sided t-test.

The Student-t tail comes from ``scipy.special.stdtr``; ``scipy.stats`` is
not imported, since loading it costs about half a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtr

from .errors import ValidationError


def seed_summary(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample std over seeds (ddof 1, or 0 for a single seed)."""
    return float(np.mean(values)), float(np.std(values, ddof=1 if len(values) > 1 else 0))


def student_t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for T ~ Student-t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {dof}")
    return float(2.0 * stdtr(dof, -abs(t)))


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    p_value: float
    dof: int
    degenerate: bool = False


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on matched score lists.

    Degenerate branches: zero-variance differences with nonzero mean give
    p = 0 (flagged); all-equal pairs give t = 0, p = 1 (flagged).
    """
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValidationError(f"paired samples must be equal-length 1-d, got {xs.shape} vs {ys.shape}")
    n = xs.size
    if n < 2:
        raise ValidationError(f"paired t-test needs at least 2 pairs, got {n}")
    diffs = xs - ys
    if not np.isfinite(diffs).all():
        raise ValidationError("paired samples must have finite differences")
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    dof = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(statistic=0.0, p_value=1.0, dof=dof, degenerate=True)
        return TTestResult(
            statistic=math.copysign(math.inf, mean), p_value=0.0, dof=dof, degenerate=True
        )
    t = mean * math.sqrt(n) / sd
    return TTestResult(statistic=t, p_value=student_t_two_sided_p(t, dof), dof=dof)
