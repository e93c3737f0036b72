"""Golden result files and full traces: each config of `golden._grid` must
give the recorded result-file digests (`GOLDEN`), the same with
``keep_trace``, and the recorded full-trace digest (`TRACE_GOLDEN`). The
tables, the grid and the recorder live in `tests/golden.py`, which runs
without pytest.
"""

from __future__ import annotations

import pytest

from golden import GOLDEN, TRACE_GOLDEN, _grid, digests, trace_digest


@pytest.mark.parametrize("name", sorted(_grid()))
def test_result_files_match_golden(name, tmp_path):
    assert digests(name, _grid()[name], tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_grid()))
def test_traced_runs_give_the_golden_result_files(name, tmp_path):
    """Keeping the trace changes no result: the classifiers read the same
    online state whether or not the observation records are kept."""
    assert digests(name, _grid()[name], tmp_path, keep_trace=True) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_grid()))
def test_full_trace_matches_golden(name):
    assert trace_digest(_grid()[name]) == TRACE_GOLDEN[name]
