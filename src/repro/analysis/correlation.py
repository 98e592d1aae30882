"""Event-count vs execution-time correlation (Figures 3a and 3b).

The paper "correlate[s] information obtained from software performance
events with the performance variation of ep.A.8" and reads off that
"execution time increases with the number of CPU migrations and the number
of context switches".  We provide both correlation coefficients and the
binned-mean series the figures effectively plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["pearson", "spearman", "binned_means", "CorrelationReport", "correlate"]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient (linear association)."""
    from scipy import stats  # ~1 s to import; only Figure 3 needs it

    _check(x, y)
    r, _ = stats.pearsonr(np.asarray(x, float), np.asarray(y, float))
    return float(r)


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (monotone association — the right notion
    for "time increases with events", robust to the heavy storm tail)."""
    from scipy import stats

    _check(x, y)
    r, _ = stats.spearmanr(np.asarray(x, float), np.asarray(y, float))
    return float(r)


def _check(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise ValueError("need at least 3 points")


def binned_means(
    x: Sequence[float], y: Sequence[float], n_bins: int = 10
) -> List[Tuple[float, float, int]]:
    """Mean of *y* per quantile-bin of *x*: ``(x_center, y_mean, count)``
    triples — the readable form of a Fig. 3 scatter."""
    _check(x, y)
    xs = np.asarray(x, float)
    ys = np.asarray(y, float)
    edges = np.quantile(xs, np.linspace(0, 1, n_bins + 1))
    edges = np.unique(edges)
    out: List[Tuple[float, float, int]] = []
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        mask = (xs >= lo) & (xs <= hi if i == len(edges) - 2 else xs < hi)
        if not mask.any():
            continue
        out.append((float(xs[mask].mean()), float(ys[mask].mean()), int(mask.sum())))
    return out


@dataclass(frozen=True)
class CorrelationReport:
    """The relationship between one software event and execution time."""

    event: str
    pearson_r: float
    spearman_r: float
    points: Tuple[Tuple[float, float], ...]
    trend: Tuple[Tuple[float, float, int], ...]

    @property
    def positive(self) -> bool:
        """The paper's qualitative claim: more events → more time."""
        return self.spearman_r > 0


def correlate(
    event_counts: Sequence[float],
    times: Sequence[float],
    *,
    event: str = "events",
    n_bins: int = 10,
) -> CorrelationReport:
    """Build the Fig. 3-style report for one event series."""
    return CorrelationReport(
        event=event,
        pearson_r=pearson(event_counts, times),
        spearman_r=spearman(event_counts, times),
        points=tuple(zip([float(v) for v in event_counts], [float(t) for t in times])),
        trend=tuple(binned_means(event_counts, times, n_bins)),
    )
