"""Micro-batch streaming runtime tests: batch/stream equivalence, watermark
monotonicity, late routing, state eviction, flagship end-to-end."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import pytest
import ray
import ray.data

from pipeflow_ray.pipelines import streaming
from pipeflow_ray.pipelines.flagship import flagship_pipeline, normalize, session_stats
from pipeflow_ray.pipelines.streaming import StreamingSessionRunner, _SessionState


def _batch_oracle_sessions(path: str, gap_s: float) -> pd.DataFrame:
    """Pandas oracle: sessionize ALL rows by event time (ignores arrival)."""
    df = pq.read_table(path, columns=["conv_id", "text", "ts"]).to_pandas()
    df["n_chars"] = df.text.fillna("").str.len()
    df = df.sort_values(["conv_id", "ts"], kind="mergesort")
    new = df.conv_id.ne(df.conv_id.shift()) | (
        df.ts.diff() > pd.Timedelta(seconds=gap_s)
    )
    frag = new.cumsum()
    g = df.groupby(frag)
    out = pd.DataFrame(
        {
            "conv_id": g.conv_id.first(),
            "session_start": g.ts.min(),
            "session_end": g.ts.max(),
            "n_turns": g.size(),
            "n_chars": g.n_chars.sum(),
        }
    ).reset_index(drop=True)
    return out.sort_values(["conv_id", "session_start"]).reset_index(drop=True)


def test_streaming_equals_batch_with_generous_lateness(transcripts_path):
    """With lateness ≥ max disorder (2h injected), nothing is late and the
    streaming result must equal the batch oracle exactly."""
    runner = StreamingSessionRunner(gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4)
    sessions, late, metrics = runner.run(transcripts_path, micro_batch_rows=128)
    assert metrics["late_rows"] == 0 and len(late) == 0

    got = (
        sessions[["conv_id", "session_start", "session_end", "n_turns", "n_chars"]]
        .sort_values(["conv_id", "session_start"])
        .reset_index(drop=True)
    )
    ref = _batch_oracle_sessions(transcripts_path, 1800.0)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_streaming_routes_late_rows(transcripts_path):
    """With lateness < injected disorder (2h), the displaced rows must land in
    the late side output — never silently dropped."""
    runner = StreamingSessionRunner(gap_s=1800.0, lateness_s=60.0, num_buckets=4)
    sessions, late, metrics = runner.run(transcripts_path, micro_batch_rows=128)
    assert metrics["late_rows"] > 0
    assert metrics["late_rows"] + sessions.n_turns.sum() == metrics["rows"]


def test_late_side_output_is_typed_at_any_row_count(transcripts_path):
    """The late side output has the same columns and dtypes whether or not
    any row is late."""
    _s, none, m0 = StreamingSessionRunner(gap_s=1800.0, lateness_s=3 * 3600.0,
                                          num_buckets=2).run(transcripts_path, 128)
    _s, some, m1 = StreamingSessionRunner(gap_s=1800.0, lateness_s=60.0,
                                          num_buckets=2).run(transcripts_path, 128)
    assert m0["late_rows"] == len(none) == 0 and m1["late_rows"] == len(some) > 0
    assert list(none.columns) == ["conv_id", "ts_us", "n_chars"]
    pd.testing.assert_series_equal(none.dtypes, some.dtypes)
    assert (none.dtypes[["ts_us", "n_chars"]] == np.int64).all()


def test_watermark_eviction_bounds_state(transcripts_path):
    """After the run (eviction ran after every batch), open state must be
    far smaller than total conversations — sessions close as the watermark
    passes them."""
    states = [_SessionState(1800.0) for _ in range(2)]
    # drive the bucket states manually to inspect them before the flush
    import pyarrow as _pa

    pf = pq.ParquetFile(transcripts_path)
    wm = -(1 << 62)
    from pipeflow_ray.pipelines.streaming import _merge_sessions

    for rb in pf.iter_batches(batch_size=256, columns=["conv_id", "text", "ts"]):
        df = pd.DataFrame(
            {
                "conv_id": rb.column("conv_id").to_pandas(),
                "ts_us": rb.column("ts").cast(_pa.int64()).to_pandas(),
                "n_chars": pd.Series(rb.column("text").to_pandas()).fillna("").str.len(),
            }
        )
        df = df[df.ts_us >= wm]
        if not len(df):
            continue
        wm = max(wm, int(df.ts_us.max()) - 600 * 1_000_000)
        frags = _merge_sessions(df.assign(start_us=df.ts_us, end_us=df.ts_us, n_turns=1)
                                [["conv_id", "start_us", "end_us", "n_turns", "n_chars"]],
                                1800 * 1_000_000)
        b = pd.util.hash_array(frags.conv_id.to_numpy(dtype=object)) % 2
        for i in range(2):
            if (b == i).any():
                states[i].process(frags[b == i])
        for st in states:
            st.evict(wm)
    open_state = sum(st.state_size() for st in states)
    total_convs = len(pq.read_table(transcripts_path, columns=["conv_id"]).column(0).unique())
    assert open_state < total_convs * 0.5  # most conversations evicted before flush


def test_flagship_end_to_end(transcripts_path, tmp_path):
    out = str(tmp_path / "flagship")
    windowed, stats = flagship_pipeline(transcripts_path, out_dir=out, num_partitions=8)
    assert stats.rows.sum() > 0
    from pipeflow_ray.state.manifest import read_committed

    back = read_committed(out)
    assert back.num_rows == stats.rows.sum()
    assert set(back.column_names) >= {
        "conv_id", "window_start", "n_pairs", "mean_latency_s", "user_chars", "resp_chars",
    }
    # re-run: fully skipped, identical rows
    _, stats2 = flagship_pipeline(transcripts_path, out_dir=out, num_partitions=8)
    assert stats2.skipped.all() and stats2.rows.sum() == stats.rows.sum()


def test_session_stats_matches_oracle(transcripts_path):
    got = (
        session_stats(transcripts_path)
        .to_pandas()
        .sort_values(["conv_id", "session_start"])
        .reset_index(drop=True)
    )
    ref = _batch_oracle_sessions(transcripts_path, 1800.0)
    # normalize() trims text → n_chars differs from raw oracle; compare counts/bounds
    pd.testing.assert_frame_equal(
        got[["conv_id", "session_start", "session_end", "n_turns"]],
        ref[["conv_id", "session_start", "session_end", "n_turns"]],
        check_dtype=False,
    )


def test_flagship_resume_recomputes_only_missing(transcripts_path, tmp_path):
    """Checkpoint/resume: wipe 2 of the committed manifests; the re-run must
    recompute exactly those partitions and no-op the rest, with identical
    final output."""
    import json
    import os

    out = str(tmp_path / "resume")
    _, stats1 = flagship_pipeline(transcripts_path, out_dir=out, num_partitions=8)
    from pipeflow_ray.state.manifest import read_committed

    before = read_committed(out).sort_by([("conv_id", "ascending"), ("window_start", "ascending")])

    mdir = os.path.join(out, "_manifests")
    victims = sorted(os.listdir(mdir))[:2]
    pids = []
    for v in victims:
        with open(os.path.join(mdir, v)) as f:
            pids.append(json.load(f)["partition_id"])
        os.remove(os.path.join(mdir, v))

    _, stats2 = flagship_pipeline(transcripts_path, out_dir=out, num_partitions=8)
    st = stats2.set_index("partition_id")
    assert not st.loc[pids, "skipped"].any()  # the two wiped ones recomputed
    assert st.drop(index=pids).skipped.all()  # everything else no-oped

    after = read_committed(out).sort_by([("conv_id", "ascending"), ("window_start", "ascending")])
    assert after.equals(before)  # byte-identical logical content


def test_streaming_tumbling_equals_batch(transcripts_path):
    """Streaming tumbling windows (watermark finalization, generous lateness)
    must equal the batch tumbling aggregate."""
    from pipeflow_ray.pipelines.streaming import ParallelTumblingRunner

    runner = ParallelTumblingRunner(width_s=3600.0, lateness_s=3 * 3600.0, num_buckets=4,
                                    max_replayers=1)
    windows, metrics = runner.run(transcripts_path, micro_batch_rows=128)
    assert metrics["late_rows"] == 0
    assert windows.n.sum() == metrics["rows"]

    df = pq.read_table(transcripts_path, columns=["conv_id", "text", "ts"]).to_pandas()
    df["v"] = df.text.fillna("").str.len()
    df["ws"] = df.ts.astype("datetime64[us]").astype(np.int64) // 3_600_000_000 * 3_600_000_000
    ref = df.groupby(["conv_id", "ws"]).agg(n=("v", "size"), value_sum=("v", "sum")).reset_index()

    got = windows.sort_values(["key", "window_start_us"]).reset_index(drop=True)
    ref = ref.sort_values(["conv_id", "ws"]).reset_index(drop=True)
    assert len(got) == len(ref)
    assert (got.n.to_numpy() == ref.n.to_numpy()).all()
    assert (got.value_sum.to_numpy() == ref.value_sum.to_numpy()).all()


def test_streaming_tumbling_bounds_state(transcripts_path):
    """Watermark finalization must keep open-window state small relative to
    total (key, window) pairs."""
    from pipeflow_ray.pipelines.streaming import ParallelTumblingRunner

    runner = ParallelTumblingRunner(width_s=3600.0, lateness_s=600.0, num_buckets=2,
                                    max_replayers=1)
    windows, metrics = runner.run(transcripts_path, micro_batch_rows=128)
    # conservation: every on-time row lands in exactly one emitted window
    assert windows.n.sum() + metrics["late_rows"] == metrics["rows"]


def test_parallel_multishard_replay_equals_batch(tmp_path):
    """Parallel per-shard replay + global min-watermark must equal batch
    event-time sessionization when lateness covers total disorder."""
    import os

    import pyarrow.parquet as _pq

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelStreamingRunner

    t = gen_transcripts(4000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    n_shards = 5
    rows_per = (t.num_rows + n_shards - 1) // n_shards
    for k in range(n_shards):
        _pq.write_table(t.slice(k * rows_per, rows_per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))
    single = str(tmp_path / "single.parquet")
    _pq.write_table(t, single)

    runner = ParallelStreamingRunner(gap_s=1800.0, lateness_s=6 * 3600.0, num_buckets=4)
    sessions, metrics = runner.run(shard_dir, micro_batch_rows=256)
    assert metrics["shards"] == 5 and metrics["late_rows"] == 0
    assert metrics["rows"] == t.num_rows

    got = (
        sessions[["conv_id", "session_start", "session_end", "n_turns", "n_chars"]]
        .sort_values(["conv_id", "session_start"]).reset_index(drop=True)
    )
    ref = _batch_oracle_sessions(single, 1800.0)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def _late_rows_model(groups: list, lateness_us: int, batch_rows: int,
                     epoch_batches: int) -> int:
    """Pure-Python model of the replayers' lateness rule over *groups*
    (one list of shard files per replayer): each epoch, every live shard
    replays up to *epoch_batches* micro-batches; a row is late when its
    event time is below min(own mark before its batch, the other shards'
    marks at the last barrier); a shard at EOF stops holding marks back."""
    no_mark, eof_mark = -(1 << 62), 1 << 62
    batches = []
    for files in groups:
        ts = []
        for fp in files:
            for rb in pq.ParquetFile(fp).iter_batches(batch_size=batch_rows, columns=["ts"]):
                col = rb.column(0).cast(pa.int64())
                ts.append([v for v in col.to_pylist() if v is not None])
        batches.append(ts)
    n = len(groups)
    marks, pos, eof, late = [no_mark] * n, [0] * n, [False] * n, 0
    while not all(eof):
        new = list(marks)
        for i in [i for i in range(n) if not eof[i]]:
            others = min((marks[j] for j in range(n) if j != i), default=eof_mark)
            for _ in range(epoch_batches):
                if pos[i] == len(batches[i]):
                    eof[i] = True
                    break
                ts = batches[i][pos[i]]
                pos[i] += 1
                if ts:
                    bound = min(new[i], others)
                    late += sum(t < bound for t in ts)
                    new[i] = max(new[i], max(ts) - lateness_us)
            if eof[i]:
                new[i] = eof_mark
        marks = new
    return late


def test_multi_replayer_late_rows_are_deterministic(tmp_path):
    """With 2 replayers and disorder far above the lateness (60 s), which
    rows are late depends only on the input and the epoch boundaries: five
    runs give the same late rows and the same sessions, and the late count
    equals a pure-Python model of the rule. Each replayer's shard group
    holds half the conversations over the whole time range, in arrival
    order with every pair of 64-row blocks swapped, so rows are late
    against the replayer's own mark and the other group's barrier mark
    decides which of them count."""
    import os

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelStreamingRunner

    t = gen_transcripts(1000)
    parity = np.array([int(c[-1]) % 2 for c in t["conv_id"].to_pylist()])
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    files = []
    for g in (0, 1):
        sub = t.filter(pa.array(parity == g))
        blocks = [np.arange(s, min(s + 64, sub.num_rows)) for s in range(0, sub.num_rows, 64)]
        for i in range(0, len(blocks) - 1, 2):
            blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
        sub = sub.take(pa.array(np.concatenate(blocks)))
        half = sub.num_rows // 2
        for k, part in enumerate((sub.slice(0, half), sub.slice(half))):
            files.append(os.path.join(shard_dir, f"part-{g}{k}.parquet"))
            pq.write_table(part, files[-1])

    runs = []
    for _ in range(5):
        sessions, metrics = ParallelStreamingRunner(
            gap_s=1800.0, lateness_s=60.0, num_buckets=4, max_replayers=2,
            epoch_batches=2,
        ).run(shard_dir, micro_batch_rows=64)
        runs.append((metrics["late_rows"],
                     sessions.sort_values(["conv_id", "session_start"], ignore_index=True)))
    late = runs[0][0]
    assert 0 < late < metrics["rows"]
    for late_i, sessions_i in runs[1:]:
        assert late_i == late
        pd.testing.assert_frame_equal(sessions_i, runs[0][1])
    assert late == _late_rows_model([files[:2], files[2:]], 60 * 1_000_000,
                                    batch_rows=64, epoch_batches=2)


def test_barrier_watermark_is_min_over_live_shards(tmp_path):
    """The barrier watermark is the min of the live shards' marks, and a
    shard at EOF stops holding it back: with a one-batch shard group next
    to a long one, evictions go on after the short group ends."""
    import json
    import os

    from pipeflow_ray.pipelines.streaming import ParallelCheckpointingSessionRunner
    from pipeflow_ray.state.manifest import read_committed

    us, hour = 1_000_000, 3600 * 1_000_000

    def shard(name: str, convs: list, ts_us: list) -> None:
        pq.write_table(pa.table({
            "conv_id": convs, "text": ["x"] * len(convs),
            "ts": pa.array(ts_us, pa.int64()).cast(pa.timestamp("us")),
        }), str(tmp_path / "shards" / name))

    os.makedirs(tmp_path / "shards")
    shard("part-0.parquet", [f"s{i}" for i in range(32)], [i * 60 * us for i in range(32)])
    long_ts = [i * 180 * us for i in range(640)]  # 32 h, one row per 3 min
    shard("part-1.parquet", [f"c{i % 50}" for i in range(640)], long_ts)

    out = str(tmp_path / "out")
    lateness = 600 * us
    runner = ParallelCheckpointingSessionRunner(
        gap_s=1800.0, lateness_s=lateness / us, num_buckets=2, max_replayers=2)
    assert runner.run(str(tmp_path / "shards"), out, micro_batch_rows=32,
                      checkpoint_every=1, stop_after_epochs=10) is None
    # the snapshot of epoch 9: the short shard hit EOF in epoch 2
    with open(os.path.join(out, "_checkpoints", "latest.json")) as f:
        ck = json.load(f)
    assert ck["epoch"] == 9 and ck["eofs"] == [True, False]
    assert ck["marks"] == [1 << 62, long_ts[9 * 32 - 1] - lateness]
    # every committed session was evicted at a barrier, and they reach far
    # past the short shard's last mark
    sessions = read_committed(out).to_pandas()
    assert len(sessions) and sessions.end_us.max() > 31 * 60 * us + 12 * hour
    assert (sessions.end_us + 1800 * us < ck["marks"][1]).all()


def test_checkpoint_resume_midstream_exactly_once(transcripts_path, tmp_path):
    """Kill the streaming job mid-stream (after 7 of ~20 micro-batches), then
    resume from the checkpoint: committed output must equal an uninterrupted
    run AND the batch oracle — no duplicates, no gaps."""
    from pipeflow_ray.pipelines.streaming import ParallelCheckpointingSessionRunner
    from pipeflow_ray.state.manifest import read_committed

    kw = dict(micro_batch_rows=64, checkpoint_every=3)  # ~16 micro-batches

    def runner():
        return ParallelCheckpointingSessionRunner(
            gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1)

    # uninterrupted reference run
    full_dir = str(tmp_path / "full")
    r1 = runner()
    m_full = r1.run(transcripts_path, full_dir, **kw)
    assert m_full is not None
    full = read_committed(full_dir).to_pandas().sort_values(
        ["conv_id", "start_us"]).reset_index(drop=True)

    # crashed run: stops after 3 epochs of 3 batches, no final flush
    crash_dir = str(tmp_path / "crash")
    r2 = runner()
    assert r2.run(transcripts_path, crash_dir, stop_after_epochs=3, **kw) is None

    # resume from the surviving checkpoint → completes
    r3 = runner()
    m_res = r3.run(transcripts_path, crash_dir, **kw)
    assert m_res is not None
    resumed = read_committed(crash_dir).to_pandas().sort_values(
        ["conv_id", "start_us"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(resumed, full)

    # and both equal the event-time batch oracle
    ref = _batch_oracle_sessions(transcripts_path, 1800.0)
    got = resumed.copy()
    got["session_start"] = pd.to_datetime(got.start_us, unit="us")
    got["session_end"] = pd.to_datetime(got.end_us, unit="us")
    got = got[["conv_id", "session_start", "session_end", "n_turns", "n_chars"]]
    got = got.sort_values(["conv_id", "session_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_checkpoint_keeps_only_the_latest_state_file(transcripts_path, tmp_path):
    """Each snapshot replaces the state file the previous one wrote: after a
    crashed run, a resume and a completed run, ``_checkpoints/`` holds one
    ``state-*.parquet``, the one ``latest.json`` names."""
    import json
    import os

    from pipeflow_ray.pipelines.streaming import ParallelCheckpointingSessionRunner

    def state_files(out):
        ck = os.path.join(out, "_checkpoints")
        with open(os.path.join(ck, "latest.json")) as f:
            named = json.load(f)["state_file"]
        return named, sorted(f for f in os.listdir(ck) if f.startswith("state-"))

    def runner():
        return ParallelCheckpointingSessionRunner(
            gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1)

    kw = dict(micro_batch_rows=64, checkpoint_every=2)
    out = str(tmp_path / "out")
    assert runner().run(transcripts_path, out, stop_after_epochs=4, **kw) is None
    named, files = state_files(out)
    assert files == [named] and named != "state-00000001.parquet"
    m = runner().run(transcripts_path, out, **kw)
    assert m is not None and m["epochs"] >= 6
    named, files = state_files(out)
    assert files == [named]


def test_streaming_join_equals_batch_join(transcripts_path):
    """Incremental actor-state join must equal the batch turn-response join
    when the eviction gap covers the stream's disorder."""
    from pipeflow_ray.pipelines.streaming import ParallelJoinRunner
    from pipeflow_ray.stages.join import turn_response_join

    runner = ParallelJoinRunner(lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1)
    pairs, metrics = runner.run(transcripts_path, micro_batch_rows=128)

    ds = ray.data.read_parquet(transcripts_path)
    batch = turn_response_join(ds, carry_cols=[]).to_pandas()

    assert metrics["pairs"] == len(batch) > 0
    got = pairs.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    ref = batch.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert (got.conv_id.to_numpy() == ref.conv_id.to_numpy()).all()
    assert (got.turn_idx.to_numpy() == ref.turn_idx.to_numpy().astype("int64")).all()
    assert (pd.to_datetime(got.resp_ts_us, unit="us").to_numpy()
            == ref.response_ts.astype("datetime64[ns]").to_numpy()).all()


@pytest.mark.parametrize("micro_batch_rows", [64, 1 << 20])
def test_streaming_join_returns_schema_dtypes(transcripts_path, micro_batch_rows):
    """Pairs matched inside one micro-batch and pairs matched through the
    pending-turn state come out in the declared schema's types."""
    from pipeflow_ray.pipelines.streaming import ParallelJoinRunner

    runner = ParallelJoinRunner(lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1)
    pairs, metrics = runner.run(transcripts_path, micro_batch_rows=micro_batch_rows)
    assert metrics["pairs"] > 0
    assert pa.Schema.from_pandas(pairs, preserve_index=False) == runner._schema


def test_streaming_join_evicts_unmatched(transcripts_path):
    """With a small eviction gap the pending-turn state must stay bounded."""
    from pipeflow_ray.pipelines.streaming import ParallelJoinRunner

    runner = ParallelJoinRunner(lateness_s=600.0, eviction_gap_s=600.0, num_buckets=4,
                                max_replayers=1)
    pairs, metrics = runner.run(transcripts_path, micro_batch_rows=128)
    assert metrics["open_state"] < metrics["rows"] * 0.2  # evicted, not hoarded


def test_streaming_sliding_equals_batch(transcripts_path):
    """Streaming sliding windows (2h width / 1h slide; row replicated into
    both containing windows) must equal the batch sliding aggregate."""
    from pipeflow_ray.pipelines.streaming import ParallelSlidingRunner

    runner = ParallelSlidingRunner(width_s=7200.0, slide_s=3600.0,
                                   lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1)
    windows, metrics = runner.run(transcripts_path, micro_batch_rows=128)
    assert metrics["late_rows"] == 0
    assert windows.n.sum() == 2 * metrics["rows"]  # every row in exactly 2 windows

    df = pq.read_table(transcripts_path, columns=["conv_id", "text", "ts"]).to_pandas()
    df["v"] = df.text.fillna("").str.len()
    tus = df.ts.astype("datetime64[us]").astype(np.int64)
    slide = 3_600_000_000
    parts = []
    for i in range(2):
        ws = tus // slide * slide - i * slide
        sub = pd.DataFrame({"conv_id": df.conv_id, "ws": ws, "v": df.v})
        parts.append(sub[tus < ws + 2 * slide])
    rep = pd.concat(parts, ignore_index=True)
    ref = rep.groupby(["conv_id", "ws"]).agg(n=("v", "size"), value_sum=("v", "sum")).reset_index()

    got = windows.sort_values(["key", "window_start_us"]).reset_index(drop=True)
    ref = ref.sort_values(["conv_id", "ws"]).reset_index(drop=True)
    assert len(got) == len(ref)
    assert (got.n.to_numpy() == ref.n.to_numpy()).all()
    assert (got.value_sum.to_numpy() == ref.value_sum.to_numpy()).all()


def test_join_checkpoint_resume_midstream_exactly_once(transcripts_path, tmp_path):
    """Kill the streaming JOIN mid-stream, resume from checkpoint: committed
    pairs must equal an uninterrupted run AND the plain streaming join —
    no duplicates, no gaps."""
    from pipeflow_ray.pipelines.streaming import (
        ParallelCheckpointingJoinRunner,
        ParallelJoinRunner,
    )
    from pipeflow_ray.state.manifest import read_committed

    kw = dict(micro_batch_rows=64, checkpoint_every=3)
    key = ["conv_id", "turn_idx"]

    def runner():
        return ParallelCheckpointingJoinRunner(lateness_s=3 * 3600.0, num_buckets=4,
                                               max_replayers=1)

    full_dir = str(tmp_path / "full")
    r1 = runner()
    assert r1.run(transcripts_path, full_dir, **kw) is not None
    full = read_committed(full_dir).to_pandas().sort_values(key).reset_index(drop=True)

    crash_dir = str(tmp_path / "crash")
    r2 = runner()
    assert r2.run(transcripts_path, crash_dir, stop_after_epochs=2, **kw) is None

    r3 = runner()
    assert r3.run(transcripts_path, crash_dir, **kw) is not None
    resumed = read_committed(crash_dir).to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(resumed, full)

    plain, _m = ParallelJoinRunner(lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1).run(
        transcripts_path, micro_batch_rows=64
    )
    plain = plain.sort_values(key).reset_index(drop=True)[full.columns.tolist()]
    pd.testing.assert_frame_equal(resumed, plain, check_dtype=False)


def test_checkpoint_reruns_are_noops(transcripts_path, tmp_path):
    """Re-running an already-completed checkpointed job must replay nothing,
    commit nothing new, and leave the committed output identical (no empty
    partitions accumulating, no re-flushed state)."""
    from pipeflow_ray.pipelines.streaming import (
        ParallelCheckpointingJoinRunner,
        ParallelCheckpointingSessionRunner,
    )
    from pipeflow_ray.state.manifest import completed_partitions, read_committed

    def session_runner():
        return ParallelCheckpointingSessionRunner(
            gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=2, max_replayers=1)

    def join_runner():
        return ParallelCheckpointingJoinRunner(lateness_s=3 * 3600.0, num_buckets=2,
                                               max_replayers=1)

    s_dir = str(tmp_path / "s")
    r = session_runner()
    m1 = r.run(transcripts_path, s_dir, micro_batch_rows=256, checkpoint_every=4)
    n_parts = len(completed_partitions(s_dir))
    rows1 = read_committed(s_dir).num_rows
    m2 = session_runner().run(
        transcripts_path, s_dir, micro_batch_rows=256, checkpoint_every=4
    )
    assert len(completed_partitions(s_dir)) == n_parts
    assert read_committed(s_dir).num_rows == rows1
    assert m1["partitions"] == m2["partitions"]

    j_dir = str(tmp_path / "j")
    jr = join_runner()
    jm1 = jr.run(transcripts_path, j_dir, micro_batch_rows=256, checkpoint_every=4)
    jn = len(completed_partitions(j_dir))
    jrows = read_committed(j_dir).num_rows
    jm2 = join_runner().run(
        transcripts_path, j_dir, micro_batch_rows=256, checkpoint_every=4
    )
    assert len(completed_partitions(j_dir)) == jn
    assert read_committed(j_dir).num_rows == jrows
    assert jm1["partitions"] == jm2["partitions"]


def test_streaming_dedup_equals_batch_across_shards(tmp_path):
    """Duplicates planted ACROSS shards (different replayers): the streaming
    min-id flush equals batch exact_dedup — min is commutative, so parallel
    shard interleaving cannot change the result."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data
    from pipeflow_ray.functions.dedup import exact_dedup
    from pipeflow_ray.pipelines.streaming import StreamingDedupRunner

    rng = np.random.default_rng(7)
    texts = [f"document body {i} {'x' * int(rng.integers(0, 20))}" for i in range(40)]
    # shard k gets copies of texts [10k..10k+20) — overlapping ranges force
    # cross-shard duplicate groups
    d = tmp_path / "docs"
    d.mkdir()
    did = 0
    all_rows = []
    for k in range(3):
        rows = []
        for t in texts[10 * k: 10 * k + 20]:
            rows.append((did, t))
            did += 1
        pq.write_table(
            pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                      "text": [r[1] for r in rows]}),
            d / f"part-{k:05d}.parquet")
        all_rows.extend(rows)

    kept, metrics = StreamingDedupRunner(num_buckets=4, max_replayers=3).run(str(d))
    assert metrics["rows"] == len(all_rows) and metrics["replayers"] == 3

    batch = exact_dedup(ray.data.from_arrow(
        pa.table({"doc_id": pa.array([r[0] for r in all_rows], pa.int64()),
                  "text": [r[1] for r in all_rows]})))
    want = sorted(batch.to_pandas().doc_id.tolist())
    assert sorted(kept.doc_id.tolist()) == want


def test_streaming_quantiles_equal_batch(tmp_path):
    """Dedup-on-ingest's aggregate sibling: single-pass streaming histogram
    quantiles equal the batch grouped_quantiles across shard interleavings."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import StreamingQuantileRunner
    from pipeflow_ray.stages.window import grouped_quantiles

    t = gen_transcripts(3000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 3) // 4
    for k in range(4):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    def _derive(tbl):
        return tbl.append_column(
            "value", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    got, metrics = StreamingQuantileRunner(
        "role", qs=(0.25, 0.5, 0.75), value_fn=_derive,
        columns=["role", "text"], num_buckets=3,
    ).run(shard_dir, micro_batch_rows=128)
    assert metrics["rows"] == t.num_rows
    got = got.sort_values("role").reset_index(drop=True)

    ds = ray.data.from_arrow(_derive(t).select(["role", "value"]))
    ref = (
        grouped_quantiles(ds, ["role"], "value", qs=(0.25, 0.5, 0.75))
        .to_pandas().rename(columns={"role": "role"})
        .sort_values("role").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[ref.columns], ref.astype(got[ref.columns].dtypes.to_dict()))


def test_streaming_vocab_equals_batch_tfidf(tmp_path):
    """Streaming vocabulary (df/tf on ingest) equals the batch tfidf_terms
    df-side across shard interleavings."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.functions.text import tfidf_terms
    from pipeflow_ray.pipelines.streaming import StreamingVocabRunner

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 50)))
             for _ in range(400)]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = 100
    for k in range(4):
        _pq.write_table(pa.Table.from_pandas(docs.iloc[k*per:(k+1)*per]),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    got, metrics = StreamingVocabRunner(num_buckets=3).run(
        shard_dir, micro_batch_rows=64)
    assert metrics["rows"] == len(docs)
    got = got.sort_values("token").reset_index(drop=True)

    ref = (
        tfidf_terms(ray.data.from_pandas(docs).repartition(3), num_buckets=4)
        .to_pandas().groupby("token")
        .agg(df=("df", "first"), tf_total=("tf", "sum")).reset_index()
        .sort_values("token").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, ref.astype(got.dtypes.to_dict()))


def test_streaming_conv_dedup_equals_batch_across_shards(tmp_path):
    """Conversations SPLIT ACROSS shards (their turns land in different
    replayers, arbitrary interleaving): the streaming flush equals batch
    conv_template_dedup bit-for-bit — the signature combine is a wrapping
    sum of position-mixed row hashes, i.e. commutative."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data
    from pipeflow_ray.functions.dedup import conv_template_dedup
    from pipeflow_ray.pipelines.streaming import StreamingConvDedupRunner

    rng = np.random.default_rng(13)
    roles = ["user", "assistant", "tool"]
    tools = [None, "search", "calc", ""]
    rows = []
    for c in range(30):
        tpl = c % 6  # 6 templates → guaranteed dup groups
        n = 3 + tpl
        for i in range(n):
            rows.append(dict(conv_id=f"conv_{c:03d}", turn_idx=i,
                             role=roles[(tpl + i) % 3],
                             tool=tools[(tpl * 7 + i) % 4]))
    df = pd.DataFrame(rows).sample(frac=1.0, random_state=5).reset_index(drop=True)
    d = tmp_path / "convs"
    d.mkdir()
    # scatter the SHUFFLED rows over 4 shards: every conversation straddles
    # shard boundaries
    for k, part in enumerate(np.array_split(df, 4)):
        pq.write_table(pa.Table.from_pandas(part, preserve_index=False),
                       d / f"part-{k}.parquet")

    batch = (
        conv_template_dedup(
            ray.data.from_pandas(pd.DataFrame(rows)).repartition(3), num_buckets=4)
        .to_pandas().sort_values("conv_id").reset_index(drop=True)
    )
    for mb in (7, 4096):  # tiny micro-batches maximize interleaving
        got, metrics = StreamingConvDedupRunner(num_buckets=4, max_replayers=4).run(
            str(d), micro_batch_rows=mb)
        got = got.to_pandas().sort_values("conv_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, batch)
        assert metrics["rows"] == len(rows)
    assert batch.is_dup.sum() >= 20  # dup groups exist (5 of each template)


def test_conv_sig_flush_is_typed_arrow_at_any_size():
    """A conversation-signature bucket flushes one typed Arrow table, also
    with no input (a zero-row pandas "string" column makes Ray log an error
    per empty bucket when it sizes the block)."""
    import numpy as np

    schema = pa.schema([("__key", pa.string()), ("sig_h", pa.int64()),
                        ("n_turns", pa.int64())])
    assert streaming._ConvSigState().flush().schema == schema
    state = streaming._ConvSigState()
    state.process(np.array(["a", "b"], dtype=object),
                  np.array([-1, 5], np.int64), np.array([2, 3], np.int64))
    state.process(np.array(["a"], dtype=object), np.array([1], np.int64),
                  np.array([1], np.int64))
    out = state.flush()
    assert out.schema == schema
    assert out.to_pydict() == {"__key": ["a", "b"], "sig_h": [0, 5], "n_turns": [3, 3]}


def _ingest_table(with_null_keys: bool) -> pa.Table:
    """Six turns over two conversations, plus (optionally) turns whose
    conv_id is null; carries every column the on-ingest runners read."""
    rows = [("a", 0, "user", None, 3, "x y"), ("b", 0, "user", "t", 5, "y z"),
            ("a", 1, "assistant", None, 4, "x y"), ("b", 1, "assistant", "u", 6, "z"),
            ("a", 2, "user", "t", 4, "w"), ("b", 2, "user", None, 8, "x y")]
    if with_null_keys:
        rows[1:1] = [(None, 0, "user", None, 7, "q")]
        rows[5:5] = [(None, 1, "assistant", "t", 9, "x y")]
    cols = list(zip(*rows))
    return pa.table({
        "conv_id": pa.array(cols[0], pa.string()), "turn_idx": pa.array(cols[1], pa.int64()),
        "role": pa.array(cols[2], pa.string()), "tool": pa.array(cols[3], pa.string()),
        "value": pa.array(cols[4], pa.int64()), "text": pa.array(cols[5], pa.string()),
        "doc_id": pa.array(range(len(rows)), pa.int64()),
    })


def _write_two_shards(table: pa.Table, d) -> str:
    d.mkdir()
    half = (table.num_rows + 1) // 2
    pq.write_table(table.slice(0, half), d / "part-0.parquet")
    pq.write_table(table.slice(half), d / "part-1.parquet")
    return str(d)


def _conv_frame(out, metrics):
    return out.to_pandas(), metrics


_ON_INGEST_RUNNERS = {
    "quantile": lambda p: streaming.StreamingQuantileRunner(
        "conv_id", columns=["conv_id", "value"], num_buckets=2).run(p),
    "kll": lambda p: streaming.StreamingSketchQuantileRunner(
        "conv_id", columns=["conv_id", "value"], num_buckets=2).run(p),
    "hll": lambda p: streaming.StreamingHLLRunner("conv_id", "value", num_buckets=2).run(p),
    "topk": lambda p: streaming.StreamingTopKRunner("conv_id", m=4, num_buckets=2).run(p),
    "conv_dedup": lambda p: _conv_frame(*streaming.StreamingConvDedupRunner(num_buckets=2).run(p)),
    "vocab": lambda p: streaming.StreamingVocabRunner(num_buckets=2).run(p),
    "dedup": lambda p: streaming.StreamingDedupRunner(num_buckets=2).run(p),
}


@pytest.mark.parametrize("family", ["quantile", "kll", "hll", "topk", "conv_dedup"])
def test_on_ingest_null_keys_are_dropped_and_counted(tmp_path, family):
    """Rows whose key is null are dropped before the per-batch partial and
    counted in ``null_key_rows``; every input row counts in ``rows``, and
    the output equals the run over the same input without those rows."""
    run = _ON_INGEST_RUNNERS[family]
    got, metrics = run(_write_two_shards(_ingest_table(True), tmp_path / "nulls"))
    ref, ref_metrics = run(_write_two_shards(_ingest_table(False), tmp_path / "clean"))
    assert metrics["rows"] == 8 and metrics["null_key_rows"] == 2
    assert ref_metrics["rows"] == 6 and ref_metrics["null_key_rows"] == 0
    pd.testing.assert_frame_equal(got.sort_values("conv_id", ignore_index=True),
                                  ref.sort_values("conv_id", ignore_index=True))


@pytest.mark.parametrize("family", sorted(_ON_INGEST_RUNNERS))
def test_on_ingest_empty_input_keeps_output_types(tmp_path, family):
    """An empty input yields no row, but the same columns and types as a
    non-empty run (conv dedup: the same Dataset schema)."""
    table = _ingest_table(False)
    empty_dir, full_dir = tmp_path / "empty", tmp_path / "full"
    empty_dir.mkdir()
    pq.write_table(table.slice(0, 0), empty_dir / "part-0.parquet")
    full_dir.mkdir()
    pq.write_table(table, full_dir / "part-0.parquet")
    if family == "conv_dedup":
        runner = streaming.StreamingConvDedupRunner(num_buckets=2)
        empty, metrics = runner.run(str(empty_dir))
        full, _ = runner.run(str(full_dir))
        assert empty.count() == 0 and full.count() == 2
        es, fs = empty.schema(), full.schema()
        assert dict(zip(es.names, es.types)) == dict(zip(fs.names, fs.types))
    else:
        empty, metrics = _ON_INGEST_RUNNERS[family](str(empty_dir))
        full, _ = _ON_INGEST_RUNNERS[family](str(full_dir))
        assert len(empty) == 0 and len(full) > 0
        assert empty.dtypes.to_dict() == full.dtypes.to_dict()
    assert metrics["rows"] == 0 and metrics["null_key_rows"] == 0


@pytest.mark.parametrize("family", ["quantile", "hll"])
def test_on_ingest_across_epoch_barriers_equals_one_epoch(tmp_path, family):
    """With 2 replayers each replaying more than 64 micro-batches (two or
    more epoch barriers), the output equals the same run in one micro-batch
    per shard: exact quantiles frame-equal, HLL registers bit-identical so
    estimates and counts equal."""
    import pyarrow.compute as pc

    from pipeflow_ray.fixtures import gen_transcripts

    def _n_chars(tbl):  # nested: pickled by value into the replayers
        return tbl.append_column(
            "value", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    path = _write_two_shards(gen_transcripts(2000), tmp_path / "shards")
    if family == "quantile":
        runner = streaming.StreamingQuantileRunner(
            "conv_id", value_fn=_n_chars, columns=["conv_id", "text"],
            num_buckets=3, max_replayers=2)
    else:
        runner = streaming.StreamingHLLRunner("conv_id", "text", p=8, num_buckets=3,
                                              max_replayers=2)
    got, metrics = runner.run(path, micro_batch_rows=8)
    ref, ref_metrics = runner.run(path, micro_batch_rows=1 << 20)
    assert metrics["replayers"] == 2
    assert all(r > 64 * 8 for r in metrics["replayer_rows"])  # > 64 batches each
    assert metrics == ref_metrics
    key = runner.key_col
    pd.testing.assert_frame_equal(got.sort_values(key, ignore_index=True),
                                  ref.sort_values(key, ignore_index=True))


_EVENT_TIME_RUNNERS = {
    "session": lambda: streaming.ParallelStreamingRunner(num_buckets=2),
    "tumbling": lambda: streaming.ParallelTumblingRunner(num_buckets=2),
    "sliding": lambda: streaming.ParallelSlidingRunner(num_buckets=2),
    "join": lambda: streaming.ParallelJoinRunner(num_buckets=2),
    "cep": lambda: streaming.ParallelCepRunner(
        [{"role": "user"}, {"role": "assistant"}], emit=((0, "role", "first_role"),),
        num_buckets=2),
    "absence": lambda: streaming.ParallelAbsenceRunner(
        {"role": "user"}, {"role": ["assistant", "tool"]}, within_us=60_000_000,
        num_buckets=2),
    "kleene": lambda: streaming.ParallelKleeneRunner(
        [{"role": "user"}, ("+", {"role": ["assistant", "tool"]}), {"role": "user"}],
        emit=((0, "role", "first_role"),), num_buckets=2),
}


@pytest.mark.parametrize("mode", sorted(_EVENT_TIME_RUNNERS))
def test_event_time_empty_input_is_typed(tmp_path, mode):
    """A zero-row input yields no row, but the columns of a non-empty run,
    typed: every count, index and microsecond column int64, session bounds
    datetime64, keys and labels object (Arrow strings)."""
    from pipeflow_ray.fixtures import gen_transcripts

    table = gen_transcripts(400)
    empty_path, full_path = str(tmp_path / "empty.parquet"), str(tmp_path / "full.parquet")
    pq.write_table(table.slice(0, 0), empty_path)
    pq.write_table(table, full_path)
    empty, metrics = _EVENT_TIME_RUNNERS[mode]().run(empty_path)
    full, _ = _EVENT_TIME_RUNNERS[mode]().run(full_path)
    assert len(empty) == 0 and metrics["rows"] == 0 and len(full) > 0
    assert list(empty.columns) == list(full.columns)
    for col, dtype in empty.dtypes.items():
        if col in ("session_start", "session_end"):
            assert dtype == "datetime64[ns]", col
        elif col in ("conv_id", "key", "reason", "first_role"):
            assert dtype == object, col
        else:
            assert dtype == np.int64, col


# ---------------------------------------------------------------------------
# Warm actor cache: a run hands its actors back on normal completion, and
# the next run in the session resets them with ``reinit`` instead of
# spawning fresh processes.
# ---------------------------------------------------------------------------


def _cold_cache() -> None:
    """Kill every idle cached actor: the next run spawns its topology."""
    from pipeflow_ray.pipelines import streaming

    streaming._kill_actors(*(a for _, a in streaming._idle))
    streaming._idle.clear()


def _idle_actors() -> list:
    """Cached idle actors, least recently released first."""
    from pipeflow_ray.pipelines import streaming

    return [a for _, a in streaming._idle]


def _turns_file(tmp_path, name: str, turns: int, seed: int) -> str:
    from pipeflow_ray.fixtures import gen_transcripts

    path = str(tmp_path / f"{name}.parquet")
    pq.write_table(gen_transcripts(turns, seed=seed), path, row_group_size=256)
    return path


def _sessions_then_topk(path: str, out_dir: str, gap_s: float, m: int):
    """The stream benchmark's shape: a checkpointing session run, then a
    top-k run on the same input."""
    from pipeflow_ray.pipelines.streaming import (
        ParallelCheckpointingSessionRunner,
        StreamingTopKRunner,
    )
    from pipeflow_ray.state.manifest import read_committed

    record = ParallelCheckpointingSessionRunner(
        gap_s=gap_s, lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1,
    ).run(path, out_dir, micro_batch_rows=128, checkpoint_every=2)
    sessions = (read_committed(out_dir).to_pandas()
                .sort_values(["conv_id", "start_us"], ignore_index=True))
    top, _m = StreamingTopKRunner("conv_id", m=m, num_buckets=4,
                                  max_replayers=1).run(path, micro_batch_rows=128)
    return record, sessions, top


def _assert_same_run(got, ref) -> None:
    assert got[0] == ref[0]
    pd.testing.assert_frame_equal(got[1], ref[1])
    pd.testing.assert_frame_equal(got[2], ref[2])


def test_warm_rerun_spawns_no_actor_and_equals_cold_run(tmp_path):
    """The second run, on another input with another gap and m, takes every
    actor from the cache, and its output equals the same run made cold."""
    a = _turns_file(tmp_path, "a", 1000, seed=1)
    b = _turns_file(tmp_path, "b", 700, seed=2)
    _cold_cache()
    _sessions_then_topk(a, str(tmp_path / "a"), gap_s=1800.0, m=16)
    warm = set(_idle_actors())
    assert len(warm) == 4 + 1  # bucket actors (session, then top-k), replayer
    got = _sessions_then_topk(b, str(tmp_path / "b_warm"), gap_s=600.0, m=4)
    assert set(_idle_actors()) == warm  # no actor was spawned
    _cold_cache()
    ref = _sessions_then_topk(b, str(tmp_path / "b_cold"), gap_s=600.0, m=4)
    _assert_same_run(got, ref)
    assert got[0]["partitions"] >= 3 and len(got[2]) == 4 * 4  # evictions ran


def test_on_ingest_run_leaves_a_warm_replayer(tmp_path):
    """An on-ingest run replays through a ShardReplayer and hands it back
    with its bucket actors; the next event-time run takes that replayer
    instead of spawning one."""
    from pipeflow_ray.pipelines.streaming import (
        ParallelCheckpointingSessionRunner,
        StreamingTopKRunner,
    )

    a = _turns_file(tmp_path, "a", 1000, seed=5)
    _cold_cache()
    StreamingTopKRunner("conv_id", m=8, num_buckets=4, max_replayers=1).run(
        a, micro_batch_rows=128)
    assert sorted(n for n, _ in streaming._idle) == ["ShardReplayer"] + ["StateBucketActor"] * 4
    replayer = [h for n, h in streaming._idle if n == "ShardReplayer"]
    ParallelCheckpointingSessionRunner(
        gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1,
    ).run(a, str(tmp_path / "sessions"), micro_batch_rows=128, checkpoint_every=2)
    assert [h for n, h in streaming._idle if n == "ShardReplayer"] == replayer


def test_bucket_actors_serve_every_mode(tmp_path):
    """Every runner's bucket actor is one class: after a session run, a
    join, a CEP and a top-k run take its idle actors and spawn none, and
    each output equals the same run made cold."""
    from pipeflow_ray.pipelines.streaming import (
        ParallelCepRunner,
        ParallelJoinRunner,
        ParallelStreamingRunner,
        StreamingTopKRunner,
    )

    a = _turns_file(tmp_path, "a", 1000, seed=6)
    kw = dict(lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1)
    runs = {
        "join": lambda: ParallelJoinRunner(**kw).run(a, 128),
        "cep": lambda: ParallelCepRunner([{"role": "user"}, {"role": "tool"}],
                                         **kw).run(a, 128),
        "topk": lambda: StreamingTopKRunner("conv_id", m=8, num_buckets=4,
                                            max_replayers=1).run(a, micro_batch_rows=128),
    }
    _cold_cache()
    ParallelStreamingRunner(gap_s=1800.0, **kw).run(a, 128)
    warm = set(_idle_actors())
    assert len(warm) == 4 + 1
    got = {}
    for name, run in runs.items():
        got[name] = run()
        assert set(_idle_actors()) == warm, name  # no actor was spawned
    for name, run in runs.items():
        _cold_cache()
        out, metrics = run()
        assert len(out) and metrics == got[name][1], name
        pd.testing.assert_frame_equal(got[name][0], out)


@pytest.mark.parametrize("make", [
    lambda p, o: streaming.ParallelTumblingRunner(width_s=0),
    lambda p, o: streaming.ParallelTumblingRunner(width_s=-7200.0),
    lambda p, o: streaming.ParallelSlidingRunner(slide_s=0),
    lambda p, o: streaming.ParallelSlidingRunner(width_s=-7200.0, slide_s=-3600.0),
    lambda p, o: streaming.ParallelSlidingRunner(width_s=0, slide_s=3600.0),
    lambda p, o: streaming.ParallelStreamingRunner(num_buckets=0),
    lambda p, o: streaming.ParallelJoinRunner(epoch_batches=0),
    lambda p, o: streaming.StreamingTopKRunner("conv_id", num_buckets=0).run(p),
    lambda p, o: streaming.ParallelStreamingRunner().run(p, micro_batch_rows=0),
    lambda p, o: streaming.StreamingHLLRunner("conv_id", "role").run(p, micro_batch_rows=0),
    lambda p, o: streaming.ParallelCheckpointingSessionRunner().run(p, o, checkpoint_every=0),
], ids=["width0", "width_neg", "slide0", "sliding_neg", "sliding_width0", "buckets0",
        "epoch_batches0", "ingest_buckets0", "micro_batch0", "ingest_micro_batch0",
        "checkpoint_every0"])
def test_bad_arguments_raise_before_any_actor(make, transcripts_path, tmp_path, monkeypatch):
    """A width, slide, bucket count, batch size or epoch length that could
    not work raises ValueError before the runner asks for an actor (a zero
    epoch length would otherwise replay forever)."""
    def no_actor(*args, **kwargs):
        raise AssertionError("an actor was requested")

    monkeypatch.setattr(streaming, "_acquire", no_actor)
    with pytest.raises(ValueError):
        make(transcripts_path, str(tmp_path / "out"))


def _kill_and_wait(actor) -> None:
    ray.kill(actor, no_restart=True)
    while True:  # a call made before the kill lands could still be served
        try:
            ray.get(actor.__ray_ready__.remote(), timeout=30)
        except ray.exceptions.RayActorError:
            return


def test_actor_killed_while_idle_is_replaced(tmp_path):
    a = _turns_file(tmp_path, "a", 1000, seed=3)
    _cold_cache()
    ref = _sessions_then_topk(a, str(tmp_path / "ref"), gap_s=1800.0, m=8)
    victims = _idle_actors()[::2]
    for actor in victims:
        _kill_and_wait(actor)
    got = _sessions_then_topk(a, str(tmp_path / "got"), gap_s=1800.0, m=8)
    _assert_same_run(got, ref)
    idle = set(_idle_actors())
    assert len(idle) == 5 and not idle & set(victims)


def test_crashed_run_leaves_cache_empty_and_resumes_exactly(tmp_path):
    """A simulated crash kills its (warm) topology instead of caching it;
    the resume equals the uninterrupted run."""
    from pipeflow_ray.pipelines.streaming import ParallelCheckpointingSessionRunner
    from pipeflow_ray.state.manifest import read_committed

    a = _turns_file(tmp_path, "a", 1000, seed=4)
    kw = dict(micro_batch_rows=128, checkpoint_every=1)

    def runner():
        return ParallelCheckpointingSessionRunner(
            gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=4, max_replayers=1)

    def committed(out_dir):
        return (read_committed(out_dir).to_pandas()
                .sort_values(["conv_id", "start_us"], ignore_index=True))

    _cold_cache()
    full = runner().run(a, str(tmp_path / "full"), **kw)
    assert len(_idle_actors()) == 4 + 1
    crash_dir = str(tmp_path / "crash")
    assert runner().run(a, crash_dir, stop_after_epochs=2, **kw) is None
    assert _idle_actors() == []
    resumed = runner().run(a, crash_dir, **kw)
    assert resumed["partitions"] == full["partitions"]
    pd.testing.assert_frame_equal(committed(crash_dir), committed(str(tmp_path / "full")))


def test_streaming_import_does_not_load_ray_data():
    """Actor processes load the streaming module; ray.data must stay out."""
    import os
    import subprocess
    import sys

    code = ("import sys, pipeflow_ray.pipelines.streaming; "
            "assert 'ray.data' not in sys.modules, 'ray.data was imported'")
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_perfbench_name_patterns_match_streaming_tasks():
    """perfbench attributes streaming work by task name: the replay method
    and every bucket actor's ``process`` must match its layer patterns, and
    no streaming work may run as a ``@ray.remote`` function the patterns do
    not name."""
    import ast
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    saved_path, saved_mods = list(sys.path), set(sys.modules)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        from layers import _ACTOR_METHOD, _REPLAY
    finally:
        sys.path[:] = saved_path
        for name in {"layers", "oracle"} - saved_mods:  # perfbench's, not ours
            sys.modules.pop(name, None)

    def remote(node) -> bool:
        return any("ray.remote" in ast.unparse(d) for d in node.decorator_list)

    with open(streaming.__file__) as f:
        tree = ast.parse(f.read())
    assert _REPLAY.match("task::ShardReplayer.replay")
    assert not [n.name for n in tree.body if isinstance(n, ast.FunctionDef) and remote(n)]
    actors = [n.name for n in tree.body if isinstance(n, ast.ClassDef) and remote(n)
              and any(isinstance(f, ast.FunctionDef) and f.name == "process" for f in n.body)]
    assert actors == ["StateBucketActor"]
    for name in actors:
        assert _ACTOR_METHOD.match(f"task::{name}.process"), name


def _topk_min_scan(batches, m: int) -> pd.DataFrame:
    """Space-saving as the top-k bucket state computed it before the heap:
    a full scan for the minimum on every eviction."""
    state: dict = {}
    rows = 0
    for keys, counts in batches:
        rows += int(counts.sum())
        for k, c in zip(keys, counts.tolist()):
            cur = state.get(k)
            if cur is not None:
                cur[0] += int(c)
            elif len(state) < m:
                state[k] = [int(c), 0]
            else:
                mn_k = min(state, key=lambda q: state[q][0])
                mn = state.pop(mn_k)[0]
                state[k] = [mn + int(c), mn]
    arr = np.array(list(state.values()), np.int64).reshape(-1, 2)
    return pd.DataFrame({"key": list(state), "est": arr[:, 0], "err": arr[:, 1],
                         "bucket_rows": np.full(len(state), rows, np.int64)})


def test_topk_heap_eviction_equals_min_scan():
    """Random batches with many count ties: the heap evicts the same key as
    the min scan every time, so state, counts, errors and order agree."""
    from pipeflow_ray.pipelines.streaming import _SpaceSavingState

    rng = np.random.default_rng(11)
    for m in (1, 3, 17):
        batches = []
        for _ in range(60):
            n = int(rng.integers(1, 40))
            keys = np.array([f"k{int(x)}" for x in rng.choice(90, size=n, replace=False)],
                            dtype=object)
            batches.append((keys, rng.integers(1, 4, size=n)))
        state = _SpaceSavingState(m)
        for keys, counts in batches:
            state.process(keys, counts)
        pd.testing.assert_frame_equal(state.flush(), _topk_min_scan(batches, m))


# --- Bucket-state models without Ray: each columnar state against the
# per-row Python state it replaced (copied here as the reference). ---

class _SessionDictRef:
    """conv → sorted disjoint open fragments, one bisect insert each."""

    def __init__(self, gap_us: int):
        self.gap, self.state, self.buf = gap_us, {}, []

    def process(self, frags: pd.DataFrame) -> None:
        import bisect

        gap = self.gap
        for conv, s, e, n, c in frags.itertuples(index=False, name=None):
            lst = self.state.get(conv)
            if lst is None:
                self.state[conv] = [[s, e, n, c]]
                continue
            i = bisect.bisect_left([f[0] for f in lst], s)
            lst.insert(i, [s, e, n, c])
            if i > 0 and lst[i][0] - lst[i - 1][1] <= gap:
                a, b = lst[i - 1], lst[i]
                a[0] = min(a[0], b[0]); a[1] = max(a[1], b[1]); a[2] += b[2]; a[3] += b[3]
                lst.pop(i)
                i -= 1
            while i + 1 < len(lst) and lst[i + 1][0] - lst[i][1] <= gap:
                a, b = lst[i], lst[i + 1]
                a[0] = min(a[0], b[0]); a[1] = max(a[1], b[1]); a[2] += b[2]; a[3] += b[3]
                lst.pop(i + 1)

    def evict(self, wm: int) -> None:
        for conv in list(self.state):
            keep = []
            for f in self.state[conv]:
                if f[1] + self.gap < wm:
                    self.buf.append((conv, *f))
                else:
                    keep.append(f)
            if keep:
                self.state[conv] = keep
            else:
                del self.state[conv]

    def flush(self) -> list:
        self.evict(1 << 62)
        return self.drain()

    def drain(self) -> list:
        out, self.buf = self.buf, []
        return out

    def state_size(self) -> int:
        return len(self.state)


class _TumblingDictRef:
    """(key, window_start) → [n, sum]."""

    def __init__(self, width_us: int):
        self.width, self.state, self.buf = width_us, {}, []

    def process(self, partials: pd.DataFrame) -> None:
        for key, ws, n, v in partials.itertuples(index=False, name=None):
            cur = self.state.setdefault((key, ws), [0, 0])
            cur[0] += n
            cur[1] += v

    def evict(self, wm: int) -> None:
        for kw in [kw for kw in self.state if kw[1] + self.width <= wm]:
            self.buf.append((*kw, *self.state.pop(kw)))

    flush = _SessionDictRef.flush
    drain = _SessionDictRef.drain

    def state_size(self) -> int:
        return len(self.state)


class _JoinDictRef:
    """Park-or-match: (conv, turn_idx) → (rc, ts, n_chars) of unmatched
    turns, matched turn by turn as they arrive."""

    def __init__(self, gap_us: int):
        self.gap, self.state, self.buf = gap_us, {}, []

    def process(self, turns: pd.DataFrame) -> None:
        state = self.state
        turns = turns.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        for c, x, r, t, v in turns.itertuples(index=False, name=None):
            x, r, t, v = int(x), int(r), int(t), int(v)
            if r == 1:  # a response: match a pending user turn at x − 1
                prev = state.pop((c, x - 1), None)
                if prev is not None and prev[0] == 0:
                    self.buf.append((c, x - 1, prev[1], t, prev[2], v))
                    continue
                if prev is not None:
                    state[(c, x - 1)] = prev
            if r == 0:  # a user turn: its response may be parked at x + 1
                nxt = state.pop((c, x + 1), None)
                if nxt is not None and nxt[0] == 1:
                    self.buf.append((c, x, t, nxt[1], v, nxt[2]))
                    continue
                if nxt is not None:
                    state[(c, x + 1)] = nxt
            state[(c, x)] = (r, t, v)

    def evict(self, wm: int) -> None:
        for k in [k for k, v in self.state.items() if v[1] + self.gap < wm]:
            del self.state[k]

    flush = _SessionDictRef.flush
    drain = _SessionDictRef.drain

    def state_size(self) -> int:
        return len(self.state)


def _session_rows(rng, n: int) -> pd.DataFrame:
    """Session fragments: intervals of up to 2.5 gaps, often overlapping."""
    start = rng.integers(0, 60, size=n) * 600
    return pd.DataFrame({
        "conv_id": np.array([f"c{int(k)}" for k in rng.integers(0, 12, size=n)], dtype=object),
        "start_us": start, "end_us": start + rng.integers(0, 6, size=n) * 600,
        "n_turns": rng.integers(1, 4, size=n), "n_chars": rng.integers(0, 50, size=n),
    })


def _window_rows(rng, n: int) -> pd.DataFrame:
    return pd.DataFrame({
        "key": np.array([f"k{int(k)}" for k in rng.integers(0, 8, size=n)], dtype=object),
        "window_start_us": rng.integers(0, 20, size=n) * 1800,
        "n": rng.integers(1, 4, size=n), "value_sum": rng.integers(0, 50, size=n),
    })


def _join_rows(rng, n: int) -> pd.DataFrame:
    """Unique (conv_id, turn_idx) turns, event time rising with turn_idx."""
    conv = rng.integers(0, 10, size=n)
    idx = np.zeros(n, np.int64)
    for c in np.unique(conv):
        idx[conv == c] = np.arange((conv == c).sum())
    return pd.DataFrame({
        "conv_id": np.array([f"c{int(c)}" for c in conv], dtype=object), "turn_idx": idx,
        "rc": rng.integers(0, 3, size=n).astype(np.int8),
        "ts_us": idx * 600, "n_chars": rng.integers(0, 50, size=n),
    })


# Times, gaps, widths and watermarks share a 600 µs grid, so every boundary
# (end + gap = wm, window end = wm, start − end = gap) is hit.
_MODELS = {  # state, its constructor arg, the reference, a frame of input rows, time column
    "session": (streaming._SessionState, 1.2e-3, _SessionDictRef, _session_rows, "start_us"),
    "tumbling": (streaming._TumblingState, 1.8e-3, _TumblingDictRef, _window_rows,
                 "window_start_us"),
    "join": (streaming._JoinState, 1.2e-3, _JoinDictRef, _join_rows, "ts_us"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", sorted(_MODELS))
def test_columnar_bucket_state_equals_dict_reference(mode, seed):
    """Each columnar bucket state, driven without Ray, emits what the
    per-row dict state it replaced emits: rows arrive shuffled across
    batches, barriers fall at random under a rising watermark, and the
    emitted frame and the open-state size agree after every barrier and at
    the flush. At one barrier a checkpointed state also goes through
    ``dump_state``/``load_state``."""
    cls, arg_s, ref_cls, rows_of, time_col = _MODELS[mode]
    rng = np.random.default_rng(seed)
    rows = rows_of(rng, 400)
    # mostly time-ordered arrival with local disorder
    rows = rows.iloc[np.argsort(rows[time_col].to_numpy() + rng.integers(0, 7200, len(rows)),
                                kind="stable")].reset_index(drop=True)
    got, ref = cls(arg_s), ref_cls(int(arg_s * 1_000_000))

    def same(a: pd.DataFrame, b: list) -> None:
        b = pd.DataFrame(b, columns=a.columns)
        key = list(a.columns)
        assert len(a) == len(b)
        pd.testing.assert_frame_equal(
            a.sort_values(key, ignore_index=True).astype(object),
            b.sort_values(key, ignore_index=True).astype(object))

    cuts = np.sort(rng.choice(np.arange(1, len(rows)), size=40, replace=False))
    wm = seen = -(1 << 62)
    reload_at = int(rng.integers(3, 30))
    for k, (lo, hi) in enumerate(zip(np.r_[0, cuts], np.r_[cuts, len(rows)])):
        batch = rows.iloc[lo:hi]
        got.process(batch.reset_index(drop=True))
        ref.process(batch)
        seen = max(seen, int(batch[time_col].max()))
        if rng.random() < 0.4:
            wm = max(wm, seen - int(rng.integers(0, 12)) * 600)
            got.evict(wm)
            ref.evict(wm)
            same(got.drain(), ref.drain())
            assert got.state_size() == ref.state_size()
            if k >= reload_at and hasattr(got, "dump_state"):  # tumbling has no checkpoint
                state, got = got.dump_state(), cls(arg_s)
                got.load_state(state)
                reload_at = 1 << 30
    same(got.flush(), ref.flush())
    assert got.state_size() == ref.state_size() == 0


def test_bucket_actor_process_only_appends():
    """The bucket actor's ``process`` only forwards and the event-time
    states' one ``process`` only buffers the routed frame: neither has a
    loop, and the work happens at the barrier (``evict``). No event-time
    state overrides ``process``."""
    import ast

    with open(streaming.__file__) as f:
        tree = ast.parse(f.read())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}

    def methods(cls) -> dict:
        return {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}

    for name in ("StateBucketActor", "_EventTimeState"):
        process = methods(classes[name])["process"]
        loops = [type(n).__name__ for n in ast.walk(process)
                 if isinstance(n, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))]
        assert not loops, (name, loops)
    states = [c for c in classes.values()
              if any(ast.unparse(b) == "_EventTimeState" for b in c.bases)]
    assert len(states) == 6
    assert not [c.name for c in states if "process" in methods(c)]


def test_session_process_leaves_a_large_carry_untouched():
    """``process`` on a session state holding 100k open conversations
    neither rebuilds nor copies the carried frame: the carry stays the same
    object with the same rows, and the routed frame is only appended."""
    n = 100_000
    st = _SessionState(1800.0)
    st.load_state(pd.DataFrame({
        "conv_id": np.array([f"c{i}" for i in range(n)], dtype=object),
        "start_us": np.arange(n, dtype=np.int64), "end_us": np.arange(n, dtype=np.int64),
        "n_turns": np.ones(n, np.int64), "n_chars": np.ones(n, np.int64),
    }))
    carry, snapshot = st.carry, st.carry.copy()
    part = snapshot.head(3).assign(conv_id=["x0", "x1", "x2"])
    st.process(part)
    assert st.carry is carry
    pd.testing.assert_frame_equal(st.carry, snapshot)
    assert len(st.parts) == 1 and st.parts[0] is part
