from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rawasim.adversary import Prediction
from rawasim.core import Block, derive_cid
from rawasim.metrics import (GroundTruth, RunMetrics, _stats, aggregate,
                             precision_recall)


def cids(n):
    return [derive_cid(Block(bytes([i + 1]), 1)) for i in range(n)]


def test_all_correct():
    c = cids(2)
    truth = GroundTruth({1: c[0], 2: c[1]})
    prediction = Prediction(links={1: c[0], 2: c[1]})
    assert precision_recall(prediction, truth) == (1.0, 1.0)


def test_all_wrong():
    c = cids(2)
    truth = GroundTruth({1: c[0], 2: c[1]})
    prediction = Prediction(links={1: c[1], 2: c[0]})
    assert precision_recall(prediction, truth) == (0.0, 0.0)


def test_partial_with_abstention():
    c = cids(3)
    truth = GroundTruth({1: c[0], 2: c[1], 3: c[2]})
    prediction = Prediction(links={1: c[0], 2: c[2]}, abstained={3})
    precision, recall = precision_recall(prediction, truth)
    assert precision == pytest.approx(0.5)
    assert recall == pytest.approx(1 / 3)


def test_empty_links_reports_null_precision():
    c = cids(1)
    truth = GroundTruth({1: c[0]})
    prediction = Prediction(abstained={1})
    precision, recall = precision_recall(prediction, truth)
    assert precision is None
    assert recall == 0.0


def test_rejects_non_requester_reference():
    c = cids(1)
    truth = GroundTruth({1: c[0]})
    with pytest.raises(ValueError):
        precision_recall(Prediction(links={1: c[0], 9: c[0]}), truth)


def test_rejects_incomplete_coverage():
    c = cids(1)
    truth = GroundTruth({1: c[0], 2: c[0]})
    with pytest.raises(ValueError):
        precision_recall(Prediction(links={1: c[0]}), truth)


def test_precision_equals_recall_without_abstention():
    c = cids(4)
    truth = GroundTruth({i: c[i] for i in range(4)})
    prediction = Prediction(links={0: c[0], 1: c[0], 2: c[2], 3: c[1]})
    precision, recall = precision_recall(prediction, truth)
    assert precision == recall


def test_run_metrics_derived_values():
    m = RunMetrics(n_requesters=4, ttfb_ms={1: 100.0, 2: 300.0, 3: 200.0},
                   walk_lengths=[1, 2, 2],
                   msg_counts={"HAVE": 2, "BLOCK": 1})
    assert m.resolved_fraction == 0.75
    assert m.msgs_total == 3
    mean, median, p95 = m.ttfb_stats()
    assert mean == pytest.approx(200.0)
    assert median == pytest.approx(200.0)
    assert m.mean_walk_hops == pytest.approx(5 / 3)


def test_aggregate_identical_runs_zero_std():
    runs = [RunMetrics(n_requesters=2, precision=0.5, recall=0.5,
                       ttfb_ms={1: 100.0}) for _ in range(100)]
    summary = aggregate(runs)
    assert summary["precision"]["mean"] == pytest.approx(0.5)
    assert summary["precision"]["std"] == 0.0
    assert summary["runs"] == 100


def test_aggregate_mean_of_two():
    runs = [RunMetrics(n_requesters=2, precision=0.4, recall=0.4),
            RunMetrics(n_requesters=2, precision=0.6, recall=0.6)]
    summary = aggregate(runs)
    assert summary["precision"]["mean"] == pytest.approx(0.5)


def test_walk_histogram_conserves_total():
    runs = [RunMetrics(n_requesters=1, walk_lengths=[1, 2, 3]),
            RunMetrics(n_requesters=1, walk_lengths=[2, 2])]
    summary = aggregate(runs)
    histogram = summary["walk_length_histogram"]
    assert sum(histogram.values()) == 5
    assert histogram["2"] == 3


def test_aggregate_requires_runs():
    with pytest.raises(ValueError):
        aggregate([])


# -- summary statistics against numpy -----------------------------------------
#
# Every summary statistic is computed in Python and must equal numpy's to the
# last bit, so result files stay byte-identical to those numpy's own mean,
# std, median and percentile wrote. The values are nonnegative and finite,
# like every metric (NaN is refused at load), so the sign of a zero cannot
# differ.

FRACTIONS = (0.0, 0.1, 0.2, 1 / 3, 1.0)


def numpy_stats(values):
    arr = np.asarray(values, dtype=float)
    return {"n": arr.size, "mean": arr.mean(), "median": np.median(arr),
            "std": arr.std(ddof=0), "p5": np.percentile(arr, 5),
            "p95": np.percentile(arr, 95)}


def assert_bitwise(got: dict, want: dict):
    assert got.keys() == want.keys()
    assert got["n"] == want["n"]
    for key in got.keys() - {"n"}:
        assert type(got[key]) is float, key
        assert got[key].hex() == float(want[key]).hex(), (key, got, want)


def assert_ttfb_bitwise(values):
    metrics = RunMetrics(n_requesters=len(values), ttfb_ms=dict(enumerate(values)))
    want = numpy_stats(values)
    got = metrics.ttfb_stats()
    assert [type(v) for v in got] == [float] * 3
    assert [v.hex() for v in got] == [
        float(want[key]).hex() for key in ("mean", "median", "p95")]


def samples(n: int):
    """Lists of n nonnegative floats: arbitrary, drawn from a few values (so
    with ties), or runs of 0.1, 0.2 and 1/3."""
    return st.one_of(
        st.lists(st.floats(0, 1e9), min_size=n, max_size=n),
        st.lists(st.floats(0, 1e9), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
        st.lists(st.sampled_from(FRACTIONS), min_size=n, max_size=n),
    )


VALUES = st.integers(1, 300).flatmap(samples)


# numpy's lerp and the plain a + (b - a) * t differ on these: at p95 of two
# values, and at p5 of eleven, where the fraction is exactly one half
@example([1 / 3, 1.0])
@example([0.2] + [1.0] * 10)
@settings(max_examples=400, deadline=None, derandomize=True)
@given(VALUES)
def test_stats_equal_numpy(values):
    assert_bitwise(_stats(values), numpy_stats(values))
    assert_bitwise(_stats([None, *values, None]), numpy_stats(values))


@example([1 / 3, 1.0])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(VALUES)
def test_ttfb_stats_equal_numpy(values):
    assert_ttfb_bitwise(values)


def test_stats_equal_numpy_over_seeded_lists():
    rng = Random(20)
    # an aggregate pools up to 100 runs x 49 TTFBs, which the pairwise sum
    # splits several levels deep
    for n in [*range(1, 301), 4_900, 9_999]:
        for values in ([rng.expovariate(1 / 700) for _ in range(n)],
                       [rng.choice(FRACTIONS) * rng.randint(1, 3)
                        for _ in range(n)],
                       sorted(rng.random() for _ in range(n))):
            assert_bitwise(_stats(values), numpy_stats(values))
            assert_ttfb_bitwise(values)


def test_stats_of_no_values():
    assert _stats([]) == _stats([None, None]) == {"n": 0}
    assert RunMetrics(n_requesters=1).ttfb_stats() == (None, None, None)
