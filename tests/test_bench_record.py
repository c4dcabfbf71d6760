"""tools/bench_record.py: the gain verdict it writes for each metric."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

OLD = [0.100, 0.098, 0.099, 0.097, 0.101, 0.100, 0.099, 0.098, 0.096, 0.100]
FAST = [v - 0.02 for v in OLD]


def _entry(new, old, better):
    entry = {"better": better,
             "new": dict(values=new, **bench_record.spread(new)),
             "old": dict(values=old, **bench_record.spread(old))}
    entry.update(bench_record.pair_counts(new, old, better))
    return entry


@pytest.mark.parametrize("new, better, shown", [
    (FAST, "lower", True),
    (FAST[:9] + [0.2], "lower", True),             # 9 of 10 pairs
    (FAST[:9] + OLD[9:], "lower", True),           # 9 better and a tie
    (FAST[:8] + [0.2, 0.2], "lower", False),       # 8 of 10 pairs
    (FAST[:8] + OLD[8:], "lower", False),          # 8 better and 2 ties
    ([v - 0.0005 for v in OLD], "lower", False),   # inside the old spread
    (FAST[:8] + [None, None], "lower", True),      # 8 of the 8 with values
    ([v + 0.02 for v in OLD], "higher", True),
    (FAST, "higher", False),
    ([None] * 10, "lower", False),                 # no pair has values
])
def test_gain_shown_needs_nine_of_ten_pairs_and_the_old_spread(new, better,
                                                               shown):
    assert bench_record.gain_shown(_entry(new, OLD, better)) is shown


ANALYZE_NAMES = ["analyze_%dx%d_s" % (n, n) for n in range(2, 7)]


def test_analyze_by_n_times_each_size():
    values, status = bench_record.in_process(str(_PATH.parents[1]),
                                             bench_record.ANALYZE_BY_N)
    assert sorted(values) == ANALYZE_NAMES
    assert all(isinstance(values[name], float) and values[name] > 0
               for name in ANALYZE_NAMES)
    assert status == {"failed": 0, "attempted": 600, "correct": True}


def test_analyze_by_n_is_null_on_a_side_without_the_api(tmp_path):
    # an older checkout whose torfill has no spectral.analyze
    (tmp_path / "src" / "torfill").mkdir(parents=True)
    (tmp_path / "src" / "torfill" / "__init__.py").write_text("")
    values, status = bench_record.in_process(str(tmp_path),
                                             bench_record.ANALYZE_BY_N)
    assert values == dict.fromkeys(ANALYZE_NAMES)
    assert status == {"failed": 0, "attempted": 0, "correct": True}
