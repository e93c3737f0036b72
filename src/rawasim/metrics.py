"""Ground truth, privacy scores, retrieval timing, and load accounting."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .adversary import Prediction
from .core import Cid, PeerId


@dataclass(frozen=True)
class GroundTruth:
    """One interest per honest requester, fixed before the request phase."""

    interests: dict[PeerId, Cid]


def precision_recall(prediction: Prediction, truth: GroundTruth):
    """Fraction of correct links over predicted links (precision, None when
    nothing was predicted) and over the requester population (recall)."""
    population = set(truth.interests)
    stray = (set(prediction.links) | prediction.abstained) - population
    if stray:
        raise ValueError(f"prediction references non-requesters: {sorted(stray)}")
    missing = population - set(prediction.links) - prediction.abstained
    if missing:
        raise ValueError(f"prediction does not cover: {sorted(missing)}")
    correct = sum(1 for peer, cid in prediction.links.items()
                  if truth.interests[peer] == cid)
    precision = correct / len(prediction.links) if prediction.links else None
    recall = correct / len(population) if population else 0.0
    return precision, recall


@dataclass
class RunMetrics:
    n_requesters: int
    precision: float | None = None
    recall: float | None = None
    ttfb_ms: dict[PeerId, float] = field(default_factory=dict)
    walk_lengths: list[int] = field(default_factory=list)
    msg_counts: dict[str, int] = field(default_factory=dict)
    bytes_by_variant: dict[str, int] = field(default_factory=dict)

    @property
    def resolved_fraction(self) -> float:
        if not self.n_requesters:
            return 1.0
        return len(self.ttfb_ms) / self.n_requesters

    @property
    def msgs_total(self) -> int:
        return sum(self.msg_counts.values())

    @property
    def bytes_total(self) -> int:
        return sum(self.bytes_by_variant.values())

    def ttfb_stats(self):
        """(mean, median, p95) over resolved requests, or Nones."""
        if not self.ttfb_ms:
            return None, None, None
        values = [float(v) for v in self.ttfb_ms.values()]
        ordered = sorted(values)
        return _mean(values), _median(ordered), _percentile(ordered, 95)

    @property
    def mean_walk_hops(self) -> float | None:
        if not self.walk_lengths:
            return None
        return sum(self.walk_lengths) / len(self.walk_lengths)


# Summary statistics in pure Python. Each repeats, operation for operation,
# the arithmetic of the array library that tests/test_metrics.py checks it
# against bit for bit, so the result files hold the bytes that library
# would write: the sums are its pairwise sum, the median and percentiles its
# defaults.


def _pairwise_sum(values: list[float]) -> float:
    """Pairwise summation with the array library's blocking (Higham, "The
    accuracy of floating point summation", 1993): below 8 values a plain loop
    from 0.0; up to 128 values eight strided accumulators, combined in a
    fixed tree, then the remainder; above that the two halves, split at a
    multiple of 8. The order of additions is the result, so keep it."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n <= 128:
        whole = n - n % 8
        r = []
        for j in range(8):
            acc = values[j]
            for x in values[j + 8:whole:8]:
                acc += x
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in values[whole:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: list[float]) -> float:
    return _pairwise_sum(values) / len(values)


def _std(values: list[float], mean: float) -> float:
    """Population standard deviation (ddof 0) about `mean`. Squares as
    ``d * d``: ``d ** 2`` rounds differently on some values."""
    deviations = [x - mean for x in values]
    return math.sqrt(_pairwise_sum([d * d for d in deviations]) / len(values))


def _median(ordered: list[float]) -> float:
    """The middle value, or the mean of the two middle values."""
    half, odd = divmod(len(ordered), 2)
    if odd:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2


def _percentile(ordered: list[float], q: float) -> float:
    """The q-th percentile by linear interpolation (Hyndman and Fan's
    type 7), with the array library's lerp, which counts down from the upper
    neighbour when the fraction is at least one half."""
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        return ordered[-1]
    i = math.floor(virtual)
    t = virtual - i
    a, b = ordered[i], ordered[i + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _stats(values) -> dict:
    values = [float(v) for v in values if v is not None]
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    mean = _mean(values)
    return {
        "n": len(values),
        "mean": mean,
        "median": _median(ordered),
        "std": _std(values, mean),
        "p5": _percentile(ordered, 5),
        "p95": _percentile(ordered, 95),
    }


def aggregate(runs: list[RunMetrics]) -> dict:
    """Cross-run summary: per-run precision/recall distributions, pooled
    per-request retrieval times, resolved fraction, and the pooled
    walk-length histogram."""
    if not runs:
        raise ValueError("need at least one run")
    pooled_ttfb = [v for r in runs for v in r.ttfb_ms.values()]
    histogram = Counter()
    for r in runs:
        histogram.update(r.walk_lengths)
    return {
        "runs": len(runs),
        "precision": _stats([r.precision for r in runs]),
        "recall": _stats([r.recall for r in runs]),
        "ttfb_ms": _stats(pooled_ttfb),
        "resolved_fraction": _stats([r.resolved_fraction for r in runs]),
        "mean_walk_hops": _stats([r.mean_walk_hops for r in runs]),
        "walk_length_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "msgs_total": sum(r.msgs_total for r in runs),
        "bytes_total": sum(r.bytes_total for r in runs),
    }
