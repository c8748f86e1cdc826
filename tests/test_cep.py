"""CEP sequence-pattern matching: kernel vs brute force, batch Dataset path,
and streaming parallel-replay equality (stages/cep.py + ParallelCepRunner)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from pipeflow_ray.stages.cep import (
    compute_step_bits,
    empty_matches,
    match_pattern,
    pattern_columns,
    scan_matches,
)


def _brute_force(df: pd.DataFrame, steps, within_us, emit=(), key="conv_id", order="turn_idx"):
    """Row-at-a-time reference implementation of the consecutive-sequence
    pattern semantics (overlapping matches allowed)."""
    k = len(steps)
    df = df.sort_values([key, order], kind="mergesort").reset_index(drop=True)
    rows = []
    for i in range(len(df) - k + 1):
        win = df.iloc[i : i + k]
        if win[key].nunique() != 1:
            continue
        t0 = int(win[order].iloc[0])
        if list(win[order]) != list(range(t0, t0 + k)):
            continue
        ok = True
        for j, step in enumerate(steps):
            for col, v in step.items():
                vals = v if isinstance(v, (list, tuple, set)) else [v]
                if win[col].iloc[j] not in vals:
                    ok = False
        if not ok:
            continue
        span = int(win.ts_us.iloc[k - 1]) - int(win.ts_us.iloc[0])
        if within_us is not None and not (0 <= span <= within_us):
            continue
        rec = {
            key: win[key].iloc[0],
            "start_turn_idx": t0,
            "end_turn_idx": t0 + k - 1,
            "start_ts_us": int(win.ts_us.iloc[0]),
            "end_ts_us": int(win.ts_us.iloc[k - 1]),
        }
        for off, src, name in emit:
            rec[name] = win[src].iloc[off]
        rows.append(rec)
    if not rows:
        return empty_matches(key, emit)
    return pd.DataFrame(rows)


def _rand_frame(rng, n_rows: int, n_convs: int) -> pd.DataFrame:
    conv = rng.integers(0, n_convs, size=n_rows)
    df = pd.DataFrame({"conv_id": [f"c{c}" for c in conv]})
    # unique, mostly-consecutive turn_idx per conv with occasional gaps
    base = df.groupby("conv_id").cumcount()
    gaps = pd.Series(rng.choice([0, 0, 0, 2], size=n_rows))
    df["turn_idx"] = (base + gaps.groupby(df.conv_id).cumsum()).astype(np.int64)
    df["role"] = rng.choice(["user", "assistant", "tool"], size=n_rows)
    df["tool"] = np.where(df.role == "tool", rng.choice(["a", "b"], size=n_rows), None)
    # per-conv nondecreasing event time, 1-100 s steps
    inc = pd.Series(rng.integers(1, 100, size=n_rows)) * 1_000_000
    df["ts_us"] = inc.groupby(df.conv_id).cumsum().astype(np.int64)
    return df


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scan_matches_vs_brute_force(seed):
    rng = np.random.default_rng(seed)
    df = _rand_frame(rng, 400, 12)
    cases = [
        ([{"role": "user"}, {"role": "tool"}], 60_000_000, ((1, "tool", "tool"),)),
        ([{"role": "user"}, {"role": "assistant"}, {"role": "user"}], None, ()),
        ([{"role": ["assistant", "tool"]}] * 4, 200_000_000, ((0, "role", "r0"),)),
    ]
    for steps, within, emit in cases:
        d = df.copy()
        d["__bits"] = compute_step_bits(d, steps)
        got = scan_matches(d, len(steps), within, emit).sort_values(
            ["conv_id", "start_turn_idx"]
        ).reset_index(drop=True)
        ref = _brute_force(df, steps, within, emit).sort_values(
            ["conv_id", "start_turn_idx"]
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_step_validation():
    df = pd.DataFrame({"role": ["user"]})
    with pytest.raises(ValueError):
        compute_step_bits(df, [])
    with pytest.raises(ValueError):
        compute_step_bits(df, [{"role": "user"}] * 33)


def test_kleene_step_bound_is_eager():
    """Kleene patterns keep one uint32 bitmask word: the batch forms
    (match_kleene, a match_many Kleene entry) and the streaming runner all
    refuse more than 32 steps up front, before any task runs."""
    from pipeflow_ray.pipelines.streaming import (
        ParallelCheckpointingKleeneRunner,
        ParallelKleeneRunner,
    )
    from pipeflow_ray.stages.cep import MAX_STEPS, match_kleene, match_many

    steps = [{"role": "user"}, ("+", {"role": "tool"})] + [{"role": "user"}] * (MAX_STEPS - 1)
    assert len(steps) == MAX_STEPS + 1
    with pytest.raises(ValueError, match="at most 32 steps"):
        match_kleene(None, steps)
    with pytest.raises(ValueError, match="single-word"):
        match_many(None, {"long": {"steps": steps}})
    with pytest.raises(ValueError, match="at most 32 steps"):
        ParallelKleeneRunner(steps)
    with pytest.raises(ValueError, match="at most 32 steps"):
        ParallelCheckpointingKleeneRunner(steps)
    ParallelKleeneRunner(steps[:MAX_STEPS])  # 32 steps (fixed suffix): at the bound


def test_match_pattern_dataset(transcripts_table):
    """Batch Dataset path (prep → exchange → bucket scan) equals brute force
    on the deterministic transcripts fixture."""
    import ray.data

    steps = [{"role": "user"}, {"role": "tool"}, {"role": "user"}]
    emit = ((1, "tool", "tool"),)
    ds = ray.data.from_arrow(transcripts_table.select(pattern_columns(steps, emit)))
    got = (
        match_pattern(ds, steps, within_us=600_000_000, emit=emit)
        .to_pandas()
        .sort_values(["conv_id", "start_turn_idx"])
        .reset_index(drop=True)
    )
    pdf = transcripts_table.to_pandas()
    pdf["ts_us"] = pdf.ts.astype("datetime64[us]").astype(np.int64)
    ref = _brute_force(pdf, steps, 600_000_000, emit).sort_values(
        ["conv_id", "start_turn_idx"]
    ).reset_index(drop=True)
    assert len(got) > 0  # non-vacuous: the fixture contains the pattern
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_parallel_cep_equals_batch(tmp_path):
    """Parallel multi-shard replay + watermark-sealed emission equals the
    batch scan when lateness covers total disorder — and emits exactly once
    (no duplicates across epoch barriers)."""
    import os

    import pyarrow.parquet as _pq

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelCepRunner

    t = gen_transcripts(4000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    n_shards = 5
    rows_per = (t.num_rows + n_shards - 1) // n_shards
    for k in range(n_shards):
        _pq.write_table(t.slice(k * rows_per, rows_per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    steps = [{"role": "user"}, {"role": "tool"}, {"role": "user"}]
    emit = ((1, "tool", "tool"),)
    runner = ParallelCepRunner(steps, within_us=600_000_000, emit=emit,
                               lateness_s=6 * 3600.0, num_buckets=4,
                               epoch_batches=2)
    got, metrics = runner.run(shard_dir, micro_batch_rows=256)
    assert metrics["shards"] == 5 and metrics["late_rows"] == 0
    assert metrics["rows"] == t.num_rows

    pdf = t.to_pandas()
    pdf["ts_us"] = pdf.ts.astype("datetime64[us]").astype(np.int64)
    ref = _brute_force(pdf, steps, 600_000_000, emit)
    got = got.sort_values(["conv_id", "start_turn_idx"]).reset_index(drop=True)
    ref = ref.sort_values(["conv_id", "start_turn_idx"]).reset_index(drop=True)
    assert len(got) > 0
    # exactly-once: no duplicate (conv, start) across barriers
    assert not got.duplicated(["conv_id", "start_turn_idx"]).any()
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_parallel_cep_tiny_lateness_drops_late(tmp_path):
    """With a lateness horizon smaller than the fixture's injected 2h
    displacement, late rows are counted and dropped, never silently lost."""
    import pyarrow.parquet as _pq

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelCepRunner

    t = gen_transcripts(3000)
    p = str(tmp_path / "single.parquet")
    _pq.write_table(t, p)
    steps = [{"role": "user"}, {"role": "tool"}, {"role": "user"}]
    runner = ParallelCepRunner(steps, within_us=600_000_000,
                               lateness_s=60.0, num_buckets=2, epoch_batches=2)
    got, metrics = runner.run(p, micro_batch_rows=128)
    assert metrics["late_rows"] > 0
    assert metrics["rows"] == t.num_rows
    assert not got.duplicated(["conv_id", "start_turn_idx"]).any()


def test_parallel_checkpoint_cep_crash_resume(tmp_path):
    """Kill the checkpointing CEP job mid-stream, resume: committed matches ≡
    uninterrupted run ≡ the plain parallel runner — and a completed job's
    re-run is a no-op."""
    import os

    import pyarrow.parquet as _pq

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import (
        ParallelCepRunner,
        ParallelCheckpointingCepRunner,
    )
    from pipeflow_ray.state.manifest import read_committed

    t = gen_transcripts(4000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 4) // 5
    for k in range(5):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    steps = [{"role": "user"}, {"role": "tool"}, {"role": "user"}]
    emit = ((1, "tool", "tool"),)
    mk = lambda: ParallelCheckpointingCepRunner(  # noqa: E731
        steps, within_us=600_000_000, emit=emit,
        lateness_s=6 * 3600.0, num_buckets=4,
    )
    kw = dict(micro_batch_rows=256, checkpoint_every=1)
    key = ["conv_id", "start_turn_idx"]

    full_dir = str(tmp_path / "full")
    m_full = mk().run(shard_dir, full_dir, **kw)
    assert m_full is not None and m_full["partitions"] >= 2
    full = read_committed(full_dir).to_pandas().sort_values(key).reset_index(drop=True)

    crash_dir = str(tmp_path / "crash")
    assert mk().run(shard_dir, crash_dir, stop_after_epochs=2, **kw) is None
    m_res = mk().run(shard_dir, crash_dir, **kw)
    assert m_res is not None
    resumed = read_committed(crash_dir).to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(resumed, full)
    assert not resumed.duplicated(key).any()

    plain, _m = ParallelCepRunner(
        steps, within_us=600_000_000, emit=emit, lateness_s=6 * 3600.0, num_buckets=4
    ).run(shard_dir, micro_batch_rows=256)
    plain = plain.sort_values(key).reset_index(drop=True)
    assert len(plain) > 0
    pd.testing.assert_frame_equal(resumed, plain.astype(resumed.dtypes.to_dict()))

    m_again = mk().run(shard_dir, crash_dir, **kw)
    assert m_again["partitions"] == m_res["partitions"]


def _brute_absence(df, within_us, key="conv_id", order="turn_idx"):
    """Reference absence scan: trigger = role user, response = next-turn
    assistant/tool within the span."""
    df = df.sort_values([key, order], kind="mergesort").reset_index(drop=True)
    rows = []
    for i in range(len(df)):
        if df.role.iloc[i] != "user":
            continue
        nxt = df.iloc[i + 1] if i + 1 < len(df) else None
        same = (nxt is not None and nxt[key] == df[key].iloc[i]
                and int(nxt[order]) == int(df[order].iloc[i]) + 1)
        if not same:
            reason = "no_next"
        elif nxt.role not in ("assistant", "tool"):
            reason = "wrong_type"
        elif not (0 <= int(nxt.ts_us) - int(df.ts_us.iloc[i]) <= within_us):
            reason = "too_late"
        else:
            continue
        rows.append({key: df[key].iloc[i], "start_turn_idx": int(df[order].iloc[i]),
                     "ts_us": int(df.ts_us.iloc[i]), "reason": reason})
    from pipeflow_ray.stages.cep import empty_absence
    return pd.DataFrame(rows) if rows else empty_absence(key)


def test_match_absence_vs_brute_force(transcripts_table):
    import ray.data

    from pipeflow_ray.stages.cep import match_absence, pattern_columns

    trigger = {"role": "user"}
    response = {"role": ["assistant", "tool"]}
    ds = ray.data.from_arrow(
        transcripts_table.select(pattern_columns([trigger, response]))
    )
    got = (
        match_absence(ds, trigger, response, within_us=600_000_000)
        .to_pandas().sort_values(["conv_id", "start_turn_idx"]).reset_index(drop=True)
    )
    pdf = transcripts_table.to_pandas()
    pdf["ts_us"] = pdf.ts.astype("datetime64[us]").astype(np.int64)
    ref = _brute_absence(pdf, 600_000_000).sort_values(
        ["conv_id", "start_turn_idx"]).reset_index(drop=True)
    assert len(got) > 0 and set(got.reason) >= {"too_late"}
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_parallel_absence_equals_batch(tmp_path):
    """Streaming timer semantics (decide when the successor seals; no_next
    at flush) equals the batch absence scan under covered disorder, with
    exactly-once emission across epoch barriers."""
    import os

    import pyarrow.parquet as _pq

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelAbsenceRunner

    t = gen_transcripts(4000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 4) // 5
    for k in range(5):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    runner = ParallelAbsenceRunner({"role": "user"},
                                   {"role": ["assistant", "tool"]},
                                   within_us=600_000_000,
                                   lateness_s=6 * 3600.0, num_buckets=4,
                                   epoch_batches=2)
    got, metrics = runner.run(shard_dir, micro_batch_rows=256)
    assert metrics["late_rows"] == 0 and metrics["rows"] == t.num_rows
    got = got.sort_values(["conv_id", "start_turn_idx"]).reset_index(drop=True)
    assert not got.duplicated(["conv_id", "start_turn_idx"]).any()

    pdf = t.to_pandas()
    pdf["ts_us"] = pdf.ts.astype("datetime64[us]").astype(np.int64)
    ref = _brute_absence(pdf, 600_000_000).sort_values(
        ["conv_id", "start_turn_idx"]).reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_scan_kleene_vs_brute_force():
    """Greedy maximal-run Kleene matching vs a per-run reference across
    random frames (comparison-op steps)."""
    from pipeflow_ray.stages.cep import compute_step_bits, empty_kleene, scan_kleene

    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        df = _rand_frame(rng, 300, 8)
        df["nc"] = rng.integers(0, 2000, size=len(df)).astype(np.int64)
        steps = [{"nc": (">=", 1000)}, {"nc": ("<", 300)}, {"nc": (">=", 1000)}]
        d = df.copy()
        d["__bits"] = compute_step_bits(d, steps)
        got = scan_kleene(d, 1, 1, within_us=None).sort_values(
            ["conv_id", "start_turn_idx"]).reset_index(drop=True)

        # brute force: maximal consecutive nc<300 runs per conv, with
        # nc>=1000 neighbors on adjacent turns
        sdf = df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        by_conv = {
            c: dict(zip(g.turn_idx.astype(int), zip(g.nc, g.ts_us)))
            for c, g in sdf.groupby("conv_id")
        }
        rows = []
        for c, turns in by_conv.items():
            tis = sorted(turns)
            for t0 in tis:
                nc0, _ = turns[t0]
                if not nc0 < 300:
                    continue
                prev = turns.get(t0 - 1)
                if prev is not None and prev[0] < 300:
                    continue  # not a run start
                t1 = t0
                while turns.get(t1 + 1) is not None and turns[t1 + 1][0] < 300:
                    t1 += 1
                pre, post = turns.get(t0 - 1), turns.get(t1 + 1)
                if pre is None or post is None or pre[0] < 1000 or post[0] < 1000:
                    continue
                rows.append({"conv_id": c, "start_turn_idx": t0 - 1,
                             "end_turn_idx": t1 + 1, "start_ts_us": pre[1],
                             "end_ts_us": post[1], "run_len": t1 - t0 + 1})
        ref = (pd.DataFrame(rows) if rows else empty_kleene("conv_id")).sort_values(
            ["conv_id", "start_turn_idx"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_match_kleene_dataset(transcripts_table):
    """Dataset path with comparison-op steps is non-vacuous on the fixture
    and produces multi-row runs."""
    import pyarrow.compute as pc
    import ray.data

    from pipeflow_ray.stages.cep import match_kleene

    t = transcripts_table.append_column(
        "nc", pc.utf8_length(pc.fill_null(transcripts_table["text"], "")).cast("int64")
    ).select(["conv_id", "turn_idx", "ts", "nc"])
    ds = ray.data.from_arrow(t)
    steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)}), {"nc": (">=", 1000)}]
    got = match_kleene(ds, steps, within_us=1_800_000_000).to_pandas()
    assert len(got) > 0
    assert (got.end_turn_idx - got.start_turn_idx == got.run_len + 1).all()
    assert got.run_len.max() >= 2  # genuinely variable-length matches


def test_parallel_kleene_equals_batch(tmp_path):
    """Streaming maximal-run matching (emit when the last row seals; breaker
    retention) equals the batch Kleene scan under covered disorder."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner
    from pipeflow_ray.stages.cep import match_kleene

    t = gen_transcripts(4000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 4) // 5
    for k in range(5):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)}), {"nc": (">=", 1000)}]

    def _derive(tbl):
        return tbl.append_column(
            "nc", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    got, metrics = ParallelKleeneRunner(
        steps, within_us=1_800_000_000, lateness_s=6 * 3600.0, num_buckets=4,
        epoch_batches=2, derive=_derive,
        read_columns=["conv_id", "turn_idx", "text", "ts"],
    ).run(shard_dir, micro_batch_rows=256)
    assert metrics["late_rows"] == 0 and metrics["rows"] == t.num_rows
    key = ["conv_id", "start_turn_idx"]
    got = got.sort_values(key).reset_index(drop=True)
    assert not got.duplicated(key).any()

    batch_ds = ray.data.from_arrow(_derive(t).select(["conv_id", "turn_idx", "ts", "nc"]))
    ref = (
        match_kleene(batch_ds, steps, within_us=1_800_000_000)
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    assert len(ref) > 0 and ref.run_len.max() >= 2
    pd.testing.assert_frame_equal(got, ref.astype(got.dtypes.to_dict()))


@pytest.mark.parametrize(
    "steps",
    [
        # suffix-free: maximality has no in-span evidence
        [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)})],
        # prefix-free AND suffix-free: pure maximal-run extraction
        [("+", {"nc": ("<", 300)})],
    ],
    ids=["suffix-free", "bare-run"],
)
def test_parallel_kleene_suffix_free_equals_batch(tmp_path, steps):
    """Suffix-free streaming Kleene (evidence sealing + run-summary
    stitching, r4 VERDICT #8) must equal the batch maximal-run scan across
    interleaved shards."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner
    from pipeflow_ray.stages.cep import match_kleene

    t = gen_transcripts(4000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 4) // 5
    for k in range(5):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    def _derive(tbl):
        return tbl.append_column(
            "nc", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    got, metrics = ParallelKleeneRunner(
        steps, within_us=1_800_000_000, lateness_s=6 * 3600.0, num_buckets=4,
        epoch_batches=2, derive=_derive,
        read_columns=["conv_id", "turn_idx", "text", "ts"],
    ).run(shard_dir, micro_batch_rows=256)
    assert metrics["rows"] == t.num_rows
    key = ["conv_id", "start_turn_idx"]
    got = got.sort_values(key).reset_index(drop=True)
    assert not got.duplicated(key).any()

    batch_ds = ray.data.from_arrow(_derive(t).select(["conv_id", "turn_idx", "ts", "nc"]))
    ref = (
        match_kleene(batch_ds, steps, within_us=1_800_000_000)
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    assert len(ref) > 0 and ref.run_len.max() >= 2
    pd.testing.assert_frame_equal(got, ref.astype(got.dtypes.to_dict()))


@pytest.mark.parametrize("epoch_batches", [1, 1000])
def test_fixed_suffix_kleene_keeps_a_run_whose_next_turn_is_pending(tmp_path, epoch_batches):
    """A sealed B row whose next turn has not arrived yet does not break
    its run. Key k: user at 0 h, assistant at 1 h and 9 h, tool at
    9 h + 1 s; a filler key every 10 min drives the watermark past the
    1 h row long before the 9 h rows arrive. Barriers after every batch
    and a single barrier both emit the batch match."""
    import pyarrow as pa
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner
    from pipeflow_ray.stages.cep import match_kleene

    us, hour = 1_000_000, 3600 * 1_000_000
    rows = [("k", 0, "user", 0), ("k", 1, "assistant", hour),
            ("k", 2, "assistant", 9 * hour), ("k", 3, "tool", 9 * hour + us)]
    rows += [("f", i, "user", i * 600 * us) for i in range(61)]
    rows.sort(key=lambda r: r[3])
    conv, idx, role, ts = (list(c) for c in zip(*rows))
    t = pa.table({"conv_id": conv, "turn_idx": pa.array(idx, pa.int64()), "role": role,
                  "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us"))})
    path = str(tmp_path / "turns.parquet")
    _pq.write_table(t, path)
    steps = [{"role": "user"}, ("+", {"role": "assistant"}), {"role": "tool"}]

    got, metrics = ParallelKleeneRunner(
        steps, lateness_s=600.0, num_buckets=2, max_replayers=1,
        epoch_batches=epoch_batches,
    ).run(path, micro_batch_rows=4)
    ref = match_kleene(ray.data.from_arrow(t), steps).to_pandas()
    assert metrics["late_rows"] == 0 and len(ref) == 1
    pd.testing.assert_frame_equal(got.reset_index(drop=True), ref.astype(got.dtypes.to_dict()))


def test_kleene_emit_batch_many_streaming(tmp_path):
    """Kleene emit columns (round 5): span-start (offset 0 = prefix row)
    and span-end (offset -1 = run's last row) values must agree between
    the raw table, batch match_kleene, a match_many Kleene entry, and the
    streaming runner."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner
    from pipeflow_ray.stages.cep import match_kleene, match_many

    t = gen_transcripts(3000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 3) // 4
    for k in range(4):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    def _derive(tbl):
        return tbl.append_column(
            "nc", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)})]
    emit = ((0, "role", "start_role"), (-1, "role", "end_role"))
    key = ["conv_id", "start_turn_idx"]

    batch_ds = ray.data.from_arrow(
        _derive(t).select(["conv_id", "turn_idx", "ts", "nc", "role"]))
    ref = (match_kleene(batch_ds, steps, within_us=1_800_000_000, emit=emit)
           .to_pandas().sort_values(key).reset_index(drop=True))
    assert len(ref) > 0
    raw = t.to_pandas().set_index(["conv_id", "turn_idx"])
    for _, m in ref.head(40).iterrows():
        assert raw.loc[(m.conv_id, m.start_turn_idx)].role == m.start_role
        assert raw.loc[(m.conv_id, m.end_turn_idx)].role == m.end_role

    lib = {"open": {"steps": steps, "within_us": 1_800_000_000, "emit": emit}}
    many = (match_many(batch_ds, lib).to_pandas()
            .drop(columns=["pattern"]).sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(many[ref.columns], ref)

    got, _m = ParallelKleeneRunner(
        steps, within_us=1_800_000_000, lateness_s=6 * 3600.0,
        num_buckets=4, epoch_batches=2, derive=_derive, emit=emit,
        read_columns=["conv_id", "turn_idx", "text", "ts", "role"],
    ).run(shard_dir, micro_batch_rows=256)
    got = got.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[ref.columns], ref.astype(got[ref.columns].dtypes.to_dict()))

    # offsets addressing the variable run interior are rejected eagerly
    import pytest as _pt
    with _pt.raises(ValueError, match="run interior"):
        match_kleene(batch_ds, steps, emit=((2, "role", "x"),))


def test_kleene_stitch_bridges_seal_gap(tmp_path):
    """The r4 VERDICT #8 scenario: an intra-run event-time gap far beyond
    any seal gap. Suffix-free sealing merges the post-gap extension with
    the compacted run summary and equals the batch scan exactly."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner
    from pipeflow_ray.stages.cep import match_kleene

    H = 3600_000_000  # 1h in us
    rows = []
    # c1: long turn 0, short-turn run 1..5 with a 10h event-time gap inside
    c1_roles = ["user", "assistant", "tool", "assistant", "tool", "assistant"]
    for i, ts in enumerate([0, 60_000_000, 120_000_000, 180_000_000,
                            10 * H, 10 * H + 60_000_000]):
        rows.append(("c1", i, "x" * (1200 if i == 0 else 100), ts, c1_roles[i]))
    # c2: mid-length filler advancing the watermark through the gap
    for i in range(20):
        rows.append(("c2", i, "y" * 500, i * H, "user"))
    rows.sort(key=lambda r: r[3])
    t = pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "text": [r[2] for r in rows],
        "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
        "role": [r[4] for r in rows],
    })
    shard_dir = str(tmp_path / "gap")
    os.makedirs(shard_dir)
    _pq.write_table(t, os.path.join(shard_dir, "part-00000.parquet"))

    def _derive(tbl):
        return tbl.append_column(
            "nc", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)})]
    emit = ((0, "role", "start_role"), (-1, "role", "end_role"))
    kw = dict(within_us=None, lateness_s=60.0, num_buckets=2, epoch_batches=1,
              derive=_derive, emit=emit,
              read_columns=["conv_id", "turn_idx", "text", "ts", "role"])
    key = ["conv_id", "start_turn_idx"]

    batch_ds = ray.data.from_arrow(
        _derive(t).select(["conv_id", "turn_idx", "ts", "nc", "role"]))
    ref = (match_kleene(batch_ds, steps, within_us=None, emit=emit)
           .to_pandas().sort_values(key).reset_index(drop=True))
    assert len(ref) == 1 and int(ref.run_len[0]) == 5  # one run spanning the gap

    st, _ = ParallelKleeneRunner(steps, **kw).run(
        shard_dir, micro_batch_rows=2)
    st = st.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(st, ref.astype(st.dtypes.to_dict()))
    # span-start emit survived summary compaction across the 10h gap; the
    # span-end emit tracked the post-gap extension's last row
    assert st.start_role[0] == "user" and st.end_role[0] == "assistant"


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_kleene_stitch_arrival_order_fuzz(tmp_path, seed):
    """Stitch sealing must equal batch under RANDOMIZED arrival order with
    bounded displacement (covered disorder): rows are re-ordered by
    ts + U(0, 1h) jitter before sharding, so runs fragment arbitrarily
    across micro-batches and epochs, compaction and merge paths all fire."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import ray.data

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner
    from pipeflow_ray.stages.cep import match_kleene

    t = gen_transcripts(3000)
    rng = np.random.default_rng(seed)
    ts_us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    jitter = rng.integers(0, 3600_000_000, size=len(ts_us))
    order = np.argsort(ts_us + jitter, kind="stable")
    t = t.take(pa.array(order))
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 5) // 6
    for k in range(6):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    def _derive(tbl):
        return tbl.append_column(
            "nc", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)})]
    got, metrics = ParallelKleeneRunner(
        steps, within_us=1_800_000_000, lateness_s=2 * 3600.0, num_buckets=3,
        epoch_batches=1, derive=_derive,
        read_columns=["conv_id", "turn_idx", "text", "ts"],
    ).run(shard_dir, micro_batch_rows=128)
    assert metrics["late_rows"] == 0  # jitter ≤ 1h < 2h lateness: covered

    key = ["conv_id", "start_turn_idx"]
    got = got.sort_values(key).reset_index(drop=True)
    assert not got.duplicated(key).any()
    batch_ds = ray.data.from_arrow(
        _derive(t).select(["conv_id", "turn_idx", "ts", "nc"]))
    ref = (match_kleene(batch_ds, steps, within_us=1_800_000_000)
           .to_pandas().sort_values(key).reset_index(drop=True))
    assert len(ref) > 0
    pd.testing.assert_frame_equal(got, ref.astype(got.dtypes.to_dict()))


@pytest.mark.parametrize("which", ["absence", "kleene", "kleene-stitch"])
def test_parallel_checkpoint_absence_kleene_crash_resume(tmp_path, which):
    """Crash+resume equals the uninterrupted run and the plain runner for
    the absence and Kleene checkpointing variants (kleene-stitch also
    round-trips the compacted open-run summaries through the snapshot)."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq

    from pipeflow_ray.fixtures import gen_transcripts
    from pipeflow_ray.pipelines.streaming import (
        ParallelAbsenceRunner,
        ParallelCheckpointingAbsenceRunner,
        ParallelCheckpointingKleeneRunner,
        ParallelKleeneRunner,
    )
    from pipeflow_ray.state.manifest import read_committed

    t = gen_transcripts(4000)
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    per = (t.num_rows + 4) // 5
    for k in range(5):
        _pq.write_table(t.slice(k * per, per),
                        os.path.join(shard_dir, f"part-{k:05d}.parquet"))

    def _derive(tbl):
        return tbl.append_column(
            "nc", pc.utf8_length(pc.fill_null(tbl["text"], "")).cast(pa.int64()))

    if which == "absence":
        args = ({"role": "user"}, {"role": ["assistant", "tool"]})
        kw = dict(within_us=600_000_000, lateness_s=6 * 3600.0, num_buckets=4)
        mk_ck = lambda: ParallelCheckpointingAbsenceRunner(*args, **kw)  # noqa: E731
        mk_plain = lambda: ParallelAbsenceRunner(*args, **kw)  # noqa: E731
        key = ["conv_id", "start_turn_idx"]
    else:
        if which == "kleene-stitch":
            # suffix-free + stitch: open-run summaries must survive the
            # checkpoint snapshot and key-hash re-routing on resume, and the
            # committed partitions must carry the emit columns
            steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)})]
            extra = dict(emit=((0, "role", "start_role"), (-1, "role", "end_role")))
        else:
            steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)}), {"nc": (">=", 1000)}]
            extra = {}
        kw = dict(within_us=1_800_000_000, lateness_s=6 * 3600.0, num_buckets=4,
                  derive=_derive, read_columns=["conv_id", "turn_idx", "role", "text", "ts"],
                  **extra)
        mk_ck = lambda: ParallelCheckpointingKleeneRunner(steps, **kw)  # noqa: E731
        mk_plain = lambda: ParallelKleeneRunner(steps, **kw)  # noqa: E731
        key = ["conv_id", "start_turn_idx"]

    rkw = dict(micro_batch_rows=256, checkpoint_every=1)
    full_dir = str(tmp_path / "full")
    assert mk_ck().run(shard_dir, full_dir, **rkw) is not None
    full = read_committed(full_dir).to_pandas().sort_values(key).reset_index(drop=True)

    crash_dir = str(tmp_path / "crash")
    assert mk_ck().run(shard_dir, crash_dir, stop_after_epochs=2, **rkw) is None
    assert mk_ck().run(shard_dir, crash_dir, **rkw) is not None
    resumed = read_committed(crash_dir).to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(resumed, full)
    assert not resumed.duplicated(key).any() and len(resumed) > 0

    plain, _m = mk_plain().run(shard_dir, micro_batch_rows=256)
    plain = plain.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(resumed, plain.astype(resumed.dtypes.to_dict()))


def test_match_many_equals_individual(transcripts_table):
    """One-pass pattern library ≡ per-pattern match_pattern runs."""
    import ray.data

    from pipeflow_ray.stages.cep import match_many, match_pattern, pattern_columns

    pats = {
        "utu": {"steps": [{"role": "user"}, {"role": "tool"}, {"role": "user"}],
                "within_us": 600_000_000, "emit": ((1, "tool", "tool"),)},
        "ua": {"steps": [{"role": "user"}, {"role": "assistant"}],
               "within_us": 120_000_000},
    }
    cols = sorted({c for p in pats.values()
                   for c in pattern_columns(p["steps"], p.get("emit", ()))})
    ds = ray.data.from_arrow(transcripts_table.select(cols))
    combo = match_many(ds, pats).to_pandas()
    assert set(combo.pattern) == {"utu", "ua"}
    key = ["conv_id", "start_turn_idx"]
    for name, spec in pats.items():
        solo = match_pattern(
            ray.data.from_arrow(transcripts_table.select(cols)), spec["steps"],
            within_us=spec["within_us"], emit=tuple(spec.get("emit", ())),
        ).to_pandas().sort_values(key).reset_index(drop=True)
        part = combo[combo.pattern == name].drop(columns=["pattern"]) \
            .dropna(axis=1, how="all").sort_values(key).reset_index(drop=True)
        assert len(solo) > 0
        pd.testing.assert_frame_equal(
            part[solo.columns], solo, check_dtype=False)


def test_match_many_multiword_over_32_steps(transcripts_table):
    """A library whose total step count exceeds one 32-bit word must pack
    into multiple mask words and still equal per-pattern runs (r3 VERDICT
    #8). 12 patterns × 3 steps = 36 steps → 2 words."""
    import ray.data

    from pipeflow_ray.stages.cep import match_many, match_pattern

    roles = ["user", "assistant", "tool"]
    pats = {}
    for i in range(12):
        seq = [roles[i % 3], roles[(i + 1) % 3], roles[(i + 2) % 3]]
        pats[f"p{i:02d}"] = {"steps": [{"role": r} for r in seq],
                             "within_us": 600_000_000 + i * 60_000_000}
    assert sum(len(p["steps"]) for p in pats.values()) > 32

    ds = ray.data.from_arrow(transcripts_table.select(["conv_id", "turn_idx", "role", "ts"]))
    combo = match_many(ds, pats).to_pandas()
    key = ["conv_id", "start_turn_idx"]
    total = 0
    for name, spec in pats.items():
        solo = match_pattern(
            ray.data.from_arrow(transcripts_table.select(["conv_id", "turn_idx", "role", "ts"])),
            spec["steps"], within_us=spec["within_us"],
        ).to_pandas()
        part = combo[combo.pattern == name]
        if not len(solo):  # sequences absent from the fixture
            assert not len(part)
            continue
        solo = solo.sort_values(key).reset_index(drop=True)
        part = part.drop(columns=["pattern"]).sort_values(key).reset_index(drop=True)
        total += len(solo)
        pd.testing.assert_frame_equal(part[solo.columns], solo, check_dtype=False)
    assert total > 0


def test_match_many_with_kleene_entry():
    """A Kleene entry in the library must equal a standalone match_kleene
    run (including multi-length maximal runs); fixed entries gain
    run_len = 0."""
    import pyarrow as pa

    import ray.data

    from pipeflow_ray.stages.cep import match_kleene, match_many

    # synthetic conversations with known tool bursts of length 1..4
    rows = []
    base = 1_700_000_000_000_000
    for c in range(40):
        seq = ["user"] + ["tool"] * (1 + c % 4) + ["user", "assistant"] \
            + ["user"] + ["tool"] * (1 + (c + 1) % 3)
        for i, r in enumerate(seq):
            rows.append((f"c{c:03d}", i, r, base + c * 10**9 + i * 60_000_000))
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
        "role": pa.array([r[2] for r in rows]),
        "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
    })

    pats = {
        "ua": {"steps": [{"role": "user"}, {"role": "assistant"}],
               "within_us": 600_000_000},
        "burst": {"steps": [{"role": "user"}, ("+", {"role": "tool"})],
                  "within_us": 1_800_000_000},
    }
    combo = match_many(ray.data.from_arrow(t), pats).to_pandas()
    assert "run_len" in combo.columns
    assert len(combo[combo.pattern == "ua"]) > 0
    assert (combo.loc[combo.pattern == "ua", "run_len"] == 0).all()

    key = ["conv_id", "start_turn_idx"]
    solo = match_kleene(
        ray.data.from_arrow(t), pats["burst"]["steps"], within_us=1_800_000_000,
    ).to_pandas().sort_values(key).reset_index(drop=True)
    part = combo[combo.pattern == "burst"].drop(columns=["pattern"]) \
        .sort_values(key).reset_index(drop=True)
    assert len(solo) > 0 and solo.run_len.max() >= 3
    pd.testing.assert_frame_equal(part[solo.columns], solo, check_dtype=False)


def test_long_pattern_over_32_steps():
    """Fixed sequences longer than one 32-bit mask word: step j reads word
    j>>5 (round-4 VERDICT #6) — match_pattern and match_many agree with a
    brute-force scan, alongside a short pattern packed into word 0."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from pipeflow_ray.stages.cep import match_many

    rng = np.random.default_rng(3)
    rows = []
    base = 1_600_000_000_000_000
    for c in range(40):
        n = int(rng.integers(20, 90))
        roles = ["user" if i % 2 == 0 else "assistant" for i in range(n)]
        for i in rng.choice(n, size=max(1, n // 12), replace=False):
            roles[i] = "tool"
        rows += [(f"c{c:02d}", i, roles[i], base + (c * 500 + i) * 1_000_000)
                 for i in range(n)]
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
        "role": pa.array([r[2] for r in rows]),
        "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
    })
    K = 40
    steps = [{"role": "user"} if j % 2 == 0 else {"role": "assistant"}
             for j in range(K)]

    # brute-force reference
    df = t.to_pandas()
    ref = []
    for c, g in df.groupby("conv_id"):
        r = g.sort_values("turn_idx").role.to_numpy()
        ti = g.sort_values("turn_idx").turn_idx.to_numpy()
        for i in range(len(r) - K + 1):
            if all(r[i + j] == ("user" if j % 2 == 0 else "assistant")
                   for j in range(K)):
                ref.append((c, int(ti[i]), int(ti[i + K - 1])))
    ref = sorted(ref)
    assert len(ref) > 0  # the fixture must actually exercise the long path

    ds = ray.data.from_arrow(t).repartition(4)
    got = match_pattern(ds, steps).to_pandas() \
        .sort_values(["conv_id", "start_turn_idx"]).reset_index(drop=True)
    assert list(zip(got.conv_id, got.start_turn_idx, got.end_turn_idx)) == ref

    many = match_many(ds, {
        "long": {"steps": steps},
        "ut": {"steps": [{"role": "user"}, {"role": "tool"}]},
    }).to_pandas()
    m_long = many[many.pattern == "long"] \
        .sort_values(["conv_id", "start_turn_idx"]).reset_index(drop=True)
    assert list(zip(m_long.conv_id, m_long.start_turn_idx,
                    m_long.end_turn_idx)) == ref
    assert (many.pattern == "ut").sum() > 0
