"""Round-3 tests: parallel shard replay for the tumbling/sliding/join
streaming runners (round-2 VERDICT #1 — distributed ingest, no driver decode
loop), epoch-aligned parallel checkpointing with exactly-once output, and
driver-decode accounting guards."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray


@pytest.fixture(scope="module")
def sharded_transcripts(tmp_path_factory):
    """5-shard arrival-order transcript log + the same rows as one file."""
    from pipeflow_ray.fixtures import gen_transcripts

    t = gen_transcripts(4000)
    d = tmp_path_factory.mktemp("r3")
    shard_dir = str(d / "shards")
    os.makedirs(shard_dir)
    n_shards = 5
    per = (t.num_rows + n_shards - 1) // n_shards
    for k in range(n_shards):
        pq.write_table(t.slice(k * per, per),
                       os.path.join(shard_dir, f"part-{k:05d}.parquet"))
    single = str(d / "single.parquet")
    pq.write_table(t, single)
    return shard_dir, single, t.num_rows


def _sorted(df: pd.DataFrame, cols) -> pd.DataFrame:
    return df.sort_values(cols, kind="mergesort").reset_index(drop=True)


def test_parallel_tumbling_equals_single_driver(sharded_transcripts):
    """Parallel-replay tumbling windows must equal the (batch-equality-tested)
    single-replayer run; min-watermark keeps every row on time (within-shard
    disorder ≤ 2h < lateness, and the global watermark never outruns the
    slowest shard)."""
    from pipeflow_ray.pipelines.streaming import ParallelTumblingRunner

    shard_dir, single, n_rows = sharded_transcripts
    par, m = ParallelTumblingRunner(
        width_s=3600.0, lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, micro_batch_rows=256)
    assert m["rows"] == n_rows and m["late_rows"] == 0
    assert m["replayers"] == 5 and sum(m["replayer_rows"]) == n_rows

    ref, _ = ParallelTumblingRunner(
        width_s=3600.0, lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1
    ).run(single, micro_batch_rows=256)

    cols = ["key", "window_start_us"]
    pd.testing.assert_frame_equal(_sorted(par, cols), _sorted(ref, cols),
                                  check_dtype=False)


def test_parallel_sliding_equals_single_driver(sharded_transcripts):
    from pipeflow_ray.pipelines.streaming import ParallelSlidingRunner

    shard_dir, single, n_rows = sharded_transcripts
    par, m = ParallelSlidingRunner(
        width_s=7200.0, slide_s=3600.0, lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, micro_batch_rows=256)
    assert m["rows"] == n_rows and m["late_rows"] == 0

    ref, _ = ParallelSlidingRunner(
        width_s=7200.0, slide_s=3600.0, lateness_s=3 * 3600.0, num_buckets=4,
        max_replayers=1,
    ).run(single, micro_batch_rows=256)

    cols = ["key", "window_start_us"]
    pd.testing.assert_frame_equal(_sorted(par, cols), _sorted(ref, cols),
                                  check_dtype=False)


def test_parallel_join_equals_batch_join(sharded_transcripts):
    """Cross-shard pairs (user turn in one shard, response in another) must
    resolve through the park-or-match state regardless of arrival order."""
    from pipeflow_ray.pipelines.streaming import ParallelJoinRunner
    from pipeflow_ray.stages.join import turn_response_join

    shard_dir, single, n_rows = sharded_transcripts
    pairs, m = ParallelJoinRunner(lateness_s=3 * 3600.0, num_buckets=4).run(
        shard_dir, micro_batch_rows=256
    )
    assert m["rows"] == n_rows

    batch = turn_response_join(ray.data.read_parquet(single), carry_cols=[]).to_pandas()
    assert m["pairs"] == len(batch) > 0
    got = _sorted(pairs, ["conv_id", "turn_idx"])
    ref = _sorted(batch, ["conv_id", "turn_idx"])
    assert (got.conv_id.to_numpy() == ref.conv_id.to_numpy()).all()
    assert (got.turn_idx.to_numpy() == ref.turn_idx.to_numpy().astype("int64")).all()
    assert (pd.to_datetime(got.resp_ts_us, unit="us").to_numpy()
            == ref.response_ts.astype("datetime64[ns]").to_numpy()).all()


def test_parallel_ingest_accounts_every_row_to_a_replayer(sharded_transcripts):
    """Driver-decode guard: the rows counter lives INSIDE the replayer actors
    (the driver only coordinates), and every input row is accounted for."""
    from pipeflow_ray.pipelines.streaming import ParallelStreamingRunner

    shard_dir, _single, n_rows = sharded_transcripts
    _sessions, m = ParallelStreamingRunner(
        gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, micro_batch_rows=256)
    assert m["replayers"] == 5
    assert sum(m["replayer_rows"]) == m["rows"] == n_rows
    assert all(r > 0 for r in m["replayer_rows"])


def test_parallel_checkpoint_session_crash_resume(sharded_transcripts, tmp_path):
    """Kill the parallel checkpointing session job mid-stream (after 2 epochs,
    past one barrier), resume: committed output ≡ uninterrupted run ≡ the
    plain parallel runner's sessions."""
    from pipeflow_ray.pipelines.streaming import (
        ParallelCheckpointingSessionRunner,
        ParallelStreamingRunner,
    )
    from pipeflow_ray.state.manifest import read_committed

    shard_dir, _single, _n = sharded_transcripts
    kw = dict(micro_batch_rows=256, checkpoint_every=1)  # 4 epochs/shard group

    full_dir = str(tmp_path / "full")
    m_full = ParallelCheckpointingSessionRunner(
        gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, full_dir, **kw)
    assert m_full is not None and m_full["partitions"] >= 2
    full = _sorted(read_committed(full_dir).to_pandas(), ["conv_id", "start_us"])

    crash_dir = str(tmp_path / "crash")
    r = ParallelCheckpointingSessionRunner(
        gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4
    )
    assert r.run(shard_dir, crash_dir, stop_after_epochs=2, **kw) is None

    m_res = ParallelCheckpointingSessionRunner(
        gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, crash_dir, **kw)
    assert m_res is not None
    resumed = _sorted(read_committed(crash_dir).to_pandas(), ["conv_id", "start_us"])
    pd.testing.assert_frame_equal(resumed, full)

    # equals the plain parallel runner (itself equality-tested vs batch)
    sessions, _m = ParallelStreamingRunner(
        gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, micro_batch_rows=256)
    ref = sessions.copy()
    ref["start_us"] = ref.session_start.astype("datetime64[us]").astype("int64")
    ref = _sorted(ref[["conv_id", "start_us", "n_turns", "n_chars"]],
                  ["conv_id", "start_us"])
    got = _sorted(resumed[["conv_id", "start_us", "n_turns", "n_chars"]],
                  ["conv_id", "start_us"])
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)

    # completed-job re-run is a no-op (no empty-partition accumulation)
    m_again = ParallelCheckpointingSessionRunner(
        gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, crash_dir, **kw)
    assert m_again["partitions"] == m_res["partitions"]
    again = _sorted(read_committed(crash_dir).to_pandas(), ["conv_id", "start_us"])
    pd.testing.assert_frame_equal(again, full)


def test_parallel_checkpoint_join_crash_resume(sharded_transcripts, tmp_path):
    from pipeflow_ray.pipelines.streaming import (
        ParallelCheckpointingJoinRunner,
        ParallelJoinRunner,
    )
    from pipeflow_ray.state.manifest import read_committed

    shard_dir, _single, _n = sharded_transcripts
    kw = dict(micro_batch_rows=256, checkpoint_every=1)

    full_dir = str(tmp_path / "jfull")
    m_full = ParallelCheckpointingJoinRunner(
        lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, full_dir, **kw)
    assert m_full is not None
    full = _sorted(read_committed(full_dir).to_pandas(), ["conv_id", "turn_idx"])

    crash_dir = str(tmp_path / "jcrash")
    r = ParallelCheckpointingJoinRunner(lateness_s=3 * 3600.0, num_buckets=4)
    assert r.run(shard_dir, crash_dir, stop_after_epochs=2, **kw) is None
    m_res = ParallelCheckpointingJoinRunner(
        lateness_s=3 * 3600.0, num_buckets=4
    ).run(shard_dir, crash_dir, **kw)
    assert m_res is not None
    resumed = _sorted(read_committed(crash_dir).to_pandas(), ["conv_id", "turn_idx"])
    pd.testing.assert_frame_equal(resumed, full)

    # and both equal the plain parallel join
    pairs, _m = ParallelJoinRunner(lateness_s=3 * 3600.0, num_buckets=4).run(
        shard_dir, micro_batch_rows=256
    )
    pd.testing.assert_frame_equal(
        _sorted(pairs, ["conv_id", "turn_idx"]).astype({"turn_idx": "int64"}),
        resumed.astype({"turn_idx": "int64"})[pairs.columns],
        check_dtype=False,
    )


def test_anti_join_drops_matches():
    import pyarrow as pa

    from pipeflow_ray.stages.join import anti_join

    left = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": ["a", "b", "c", "d", "e"],
    }))
    right = ray.data.from_arrow(pa.table({"doc_id": pa.array([2, 4, 9], pa.int64())}))
    out = anti_join(left, right, "doc_id", num_buckets=4).to_pandas()
    assert sorted(out.doc_id.tolist()) == [1, 3, 5]
    assert sorted(out.v.tolist()) == ["a", "c", "e"]

    # empty right side → left unchanged
    empty = ray.data.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
    out2 = anti_join(left, empty, "doc_id", num_buckets=4).to_pandas()
    assert sorted(out2.doc_id.tolist()) == [1, 2, 3, 4, 5]


def test_curation_never_materializes_ids_on_driver(monkeypatch):
    """Guard (round-2 VERDICT #2): composing the curation pipeline must not
    collect near-dup loser ids into a driver set — ban Dataset.to_pandas /
    take_all while the query builds and runs its exchanges."""
    import pipeflow_ray.pipelines.queries as Q

    def _banned(self, *a, **k):
        raise AssertionError("curation must not materialize a Dataset on the driver")

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", _banned)
    monkeypatch.setattr(ray.data.Dataset, "take_all", _banned, raising=False)
    ds = Q.QUERIES["curation_docs"]("/root/testdata/sf0.001")
    monkeypatch.undo()
    out = ds.to_pandas()
    assert len(out) > 0 and "doc_id" in out.columns


def test_streaming_window_runners_count_null_ts(tmp_path):
    """Null event times are counted and dropped by the streaming window
    runners (the batch path emits them under a null window instead —
    documented divergence, ADVICE r2)."""
    import pyarrow as pa

    from pipeflow_ray.pipelines.streaming import (
        ParallelSlidingRunner,
        ParallelTumblingRunner,
    )

    t = pa.table({
        "conv_id": pa.array(["a", "a", "b", "b"]),
        "text": pa.array(["xx", "yyy", "z", "qq"]),
        "ts": pa.array([1_000_000, None, 2_000_000, None], pa.timestamp("us")),
    })
    p = str(tmp_path / "null_ts.parquet")
    pq.write_table(t, p)

    w, m = ParallelTumblingRunner(width_s=1.0, lateness_s=10.0, num_buckets=2,
                                  max_replayers=1).run(p)
    assert m["null_ts_rows"] == 2 and m["rows"] == 4 and len(w) == 2

    w2, m2 = ParallelSlidingRunner(width_s=2.0, slide_s=1.0, lateness_s=10.0,
                                   num_buckets=2, max_replayers=1).run(p)
    assert m2["null_ts_rows"] == 2 and len(w2) == 4  # 2 rows × 2 windows
