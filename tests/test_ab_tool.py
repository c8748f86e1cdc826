"""``tools/ab.py``: the stderr classification of a perfbench run that
printed no result line, the rotating run order of its three trees, and
the report over new (base, change, A/A) and kept older records."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", _ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)
_BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text())

_CHECK = "[2026-01-01 raylet] src/ray/object_manager/plasma/store.cc:123: Check failed: ok\n"
_TIMEOUT = "perfbench: run exceeded 300 s; stopping it\n"
_SIGNAL = "perfbench: run died of signal 9\n"
_TRACEBACK = 'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: bad\n'
_TEMP_DIR = ("perfbench: Ray did not start: temp dir '/a/long/path/.pb/r' is too long "
             "for Ray's unix sockets (limit 107 bytes); run from a shorter checkout path\n")


def test_classify_tells_the_supervisor_messages_apart():
    """The supervisor exits 6 on a timeout and on a signal death alike, so
    the class comes from its message, not the exit code. A temp-dir refusal
    (exit 5) depends only on the export path, so it has its own class."""
    assert ab.classify(_TIMEOUT) == "timeout"
    assert ab.classify(_SIGNAL) == "signal"
    assert ab.classify(_CHECK + _SIGNAL) == "check_failed"
    assert ab.classify(_TRACEBACK) == "traceback"
    assert ab.classify(_TRACEBACK + _TIMEOUT) == "timeout"
    assert ab.classify(_TEMP_DIR) == "temp_dir"
    assert ab.classify("perfbench: pass 0 failed: []\n") == "other"


def test_run_order_puts_each_tree_first_once_in_three_seeds():
    trees = ["897941c", "change", ab.AA]
    orders = [ab.run_order(i, trees) for i in range(9)]
    assert all(sorted(o) == sorted(trees) for o in orders)
    for i in range(len(orders) - 2):
        assert {o[0] for o in orders[i:i + 3]} == set(trees)


def _rec(tree: str, seed: int, pass_s: float) -> dict:
    return {"workload": "batch_flagship", "trace": 0, "seed": seed, "tree": tree,
            "rev": "897941c", "attempt": 1, "exit": 0, "stderr_class": None,
            "check_failed_lines": 0, "cpu_warnings": 0, "wall_s": 30.0, "seconds": 15,
            "result": {"metrics": {"pass_s": {"value": pass_s},
                                   "rows_per_s": {"value": 1000 / pass_s}}}}


_BASE = [1.0, 1.1, 1.2]
_CHANGE = [0.5, 0.55, 0.6]
_AA = [1.0, 1.0, 1.3]


def _rows(records: list[dict]) -> tuple[str, dict[str, list[str]]]:
    buf = io.StringIO()
    ab.report(records, _BENCHMARK, out=buf)
    text = buf.getvalue()
    rows = {ln.split()[0]: ln.split() for ln in text.splitlines()
            if ln.startswith("  ") and ln.split()[0] in ("pass_s", "rows_per_s")}
    return text, rows


def test_report_prints_the_aa_ratio_and_pairs_won_on_each_metric_row():
    records = [_rec(tree, seed, x)
               for tree, xs in (("897941c", _BASE), ("change", _CHANGE), (ab.AA, _AA))
               for seed, x in enumerate(xs)]
    text, rows = _rows(records)
    assert "a/a won" in text and "cpu warnings base 0 / change 0 / a/a 0" in text
    # name, base, change, ratio, a/a ratio, a/a won, iqr b, iqr c, bound, won, beyond x2
    assert rows["pass_s"][3:6] == ["0.500", "0.909", "1/3"]
    assert rows["pass_s"][9] == "3/3"
    assert rows["rows_per_s"][3:6] == ["2.000", "1.100", "1/3"]


def test_report_of_two_tree_records_has_no_aa_columns():
    records = [_rec(tree, seed, x)
               for tree, xs in (("897941c", _BASE), ("change", _CHANGE))
               for seed, x in enumerate(xs)]
    text, rows = _rows(records)
    assert "a/a" not in text
    assert rows["pass_s"][1:4] == ["1.1", "0.55", "0.500"]
    assert rows["pass_s"][6:] == ["0.25", "3/3", "yes"]


def test_report_reads_every_kept_record_file():
    """Older files lack ``cpu_warnings``, ``stderr_class`` or ``rev`` and some
    carry a hand-named third tree; each still gets one table per (workload,
    trace)."""
    files = sorted((_ROOT / "bench_runs").glob("ab_*.jsonl"))
    assert files
    for path in files:
        records = [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]
        buf = io.StringIO()
        ab.report(records, _BENCHMARK, out=buf)
        text = buf.getvalue()
        for workload, trace in {(r["workload"], r["trace"]) for r in records}:
            head = f"\n{workload} trace={trace}: "
            assert head in text, (os.path.basename(path), head)
            table = text.split(head, 1)[1].splitlines()
            assert table[1].split()[:3] == ["metric", "base", "change"], path
            assert len(table) > 2 and table[2].startswith("  "), path
