"""Exactly-once sink tests (SURVEY §5 item 5): re-run idempotency, crash
mid-write recovery, resume-from-checkpoint pruning."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from pipeflow_ray.state.manifest import (
    completed_partitions,
    filter_completed,
    read_committed,
    write_exactly_once,
)


def _input(n=500) -> pa.Table:
    import numpy as np

    return pa.table(
        {
            "conv_id": [f"conv_{i % 37:04d}" for i in range(n)],
            "turn_idx": pa.array(np.arange(n) % 11, pa.int32()),
            "ts": pa.array((1_700_000_000_000_000 + np.arange(n) * 1_000_000), pa.timestamp("us")),
            "v": np.arange(n, dtype="float64"),
        }
    )


def test_write_then_rerun_is_idempotent(tmp_path):
    out = str(tmp_path / "out")
    t = _input()
    stats1 = write_exactly_once(ray.data.from_arrow(t), out, num_partitions=8)
    assert stats1.rows.sum() == t.num_rows
    assert not stats1.skipped.any()

    files1 = {f: os.path.getmtime(os.path.join(out, f)) for f in os.listdir(out) if f.endswith(".parquet")}

    stats2 = write_exactly_once(ray.data.from_arrow(t), out, num_partitions=8)
    assert stats2.skipped.all()
    assert stats2.rows.sum() == t.num_rows
    files2 = {f: os.path.getmtime(os.path.join(out, f)) for f in os.listdir(out) if f.endswith(".parquet")}
    assert files1 == files2  # bytes untouched on re-run

    back = read_committed(out)
    assert back.num_rows == t.num_rows
    # no duplicates: (conv_id, turn_idx, v) unique count matches
    assert back.group_by(["conv_id", "v"]).aggregate([]).num_rows == t.num_rows


def test_crash_mid_write_recovers(tmp_path):
    out = str(tmp_path / "out")
    t = _input()
    write_exactly_once(ray.data.from_arrow(t), out, num_partitions=8)

    # simulate a crash AFTER the data rename but BEFORE the manifest commit:
    # delete one manifest and corrupt its data file
    victims = sorted(os.listdir(os.path.join(out, "_manifests")))[:1]
    mpath = os.path.join(out, "_manifests", victims[0])
    with open(mpath) as f:
        pid = json.load(f)["partition_id"]
    os.remove(mpath)
    with open(os.path.join(out, f"part-{pid:05d}.parquet"), "w") as f:
        f.write("garbage partial write")

    stats = write_exactly_once(ray.data.from_arrow(t), out, num_partitions=8)
    rewritten = stats[stats.partition_id == pid]
    assert not rewritten.skipped.iloc[0]
    assert stats[stats.partition_id != pid].skipped.all()

    back = read_committed(out)
    assert back.num_rows == t.num_rows  # byte-valid, complete, no dupes


def test_resume_prunes_completed_partitions(tmp_path):
    out = str(tmp_path / "out")
    t = _input()
    write_exactly_once(ray.data.from_arrow(t), out, num_partitions=8)
    assert len(completed_partitions(out)) == 8

    pruned = filter_completed(ray.data.from_arrow(t), out, "conv_id", 8)
    assert pruned.count() == 0  # everything already committed → nothing to recompute

    # wipe half the manifests → only those partitions' rows survive the prune
    mdir = os.path.join(out, "_manifests")
    for name in sorted(os.listdir(mdir))[:4]:
        os.remove(os.path.join(mdir, name))
    pruned = filter_completed(ray.data.from_arrow(t), out, "conv_id", 8)
    remaining = pruned.count()
    assert 0 < remaining < t.num_rows


def test_manifest_contents(tmp_path):
    out = str(tmp_path / "out")
    write_exactly_once(
        ray.data.from_arrow(_input()), out, num_partitions=4,
        lineage={"input": "unit-test", "watermark": "2024-01-01T00:00:00"},
    )
    ms = completed_partitions(out)
    assert set(ms) == {0, 1, 2, 3}
    m = ms[0]
    assert m["rows"] > 0 and m["bytes"] > 0
    assert m["lineage"]["input"] == "unit-test"
    assert "min_ts" in m and "max_ts" in m
    # stats rows reconcile with the files on disk
    f = os.path.join(out, m["file"])
    assert pq.read_metadata(f).num_rows == m["rows"]


def test_empty_inputs_commit_no_rows(tmp_path):
    """A zero-row input commits every partition as a zero-row file; an input
    with no blocks has no schema and commits nothing. Both return the stats
    columns and read back as 0 rows."""
    cols = ["partition_id", "rows", "bytes", "skipped", "wall_s"]

    out = str(tmp_path / "zero_rows")
    stats = write_exactly_once(ray.data.from_arrow(_input(0)), out, num_partitions=8)
    assert list(stats.columns) == cols
    assert stats.partition_id.tolist() == list(range(8)) and stats.rows.sum() == 0
    assert read_committed(out).num_rows == 0

    out = str(tmp_path / "no_blocks")
    stats = write_exactly_once(ray.data.from_items([]), out, num_partitions=8)
    assert list(stats.columns) == cols and stats.rows.sum() == 0
    assert read_committed(out).num_rows == 0


def test_sparse_input_commits_every_partition(tmp_path):
    """Two keys into 8 partitions: the two buckets that hold them commit
    their rows, and the six empty buckets commit zero-row partitions, so a
    finished write leaves pids 0..7."""
    out = str(tmp_path / "out")
    t = _input(40).filter(pa.array([i % 37 < 2 for i in range(40)]))
    stats = write_exactly_once(ray.data.from_arrow(t), out, num_partitions=8)
    assert stats.partition_id.tolist() == list(range(8))
    assert (stats.rows > 0).sum() == 2 and stats.rows.sum() == t.num_rows
    assert sorted(completed_partitions(out)) == list(range(8))
    assert read_committed(out).num_rows == t.num_rows


def test_exactly_once_under_ray_task_retry(tmp_path):
    """Inject a real task failure: first attempt writes a partial data file
    then crashes BEFORE the manifest commit; Ray's automatic retry must
    produce exactly-once output (one manifest, correct rows, no duplicates)."""
    import ray

    from pipeflow_ray.state.manifest import commit_partition, prepare_sink

    out = str(tmp_path / "retry_out")
    prepare_sink(out)
    flag = str(tmp_path / "attempted.flag")
    t = _input(200)

    @ray.remote(max_retries=3, retry_exceptions=True)
    def flaky_commit(table, pid):
        import os

        import pyarrow.parquet as _pq

        if not os.path.exists(flag):
            open(flag, "w").write("1")
            # simulate a crash after the data rename but before the manifest
            _pq.write_table(table, os.path.join(out, f"part-{pid:05d}.parquet"))
            raise RuntimeError("injected crash before manifest commit")
        return commit_partition(table, out, pid, ts_col="ts", lineage={"test": "retry"})

    stats = ray.get(flaky_commit.remote(t, 0))
    assert os.path.exists(flag)  # first attempt really ran and crashed
    assert stats["skipped"] is False and stats["rows"] == t.num_rows

    back = read_committed(out)
    assert back.num_rows == t.num_rows  # partial file cleanly overwritten
    assert len(os.listdir(os.path.join(out, "_manifests"))) == 1
    # second call (another retry after success) is a pure no-op
    stats2 = ray.get(flaky_commit.remote(t, 0))
    assert stats2["skipped"] is True
