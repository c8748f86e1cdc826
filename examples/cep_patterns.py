"""CEP sequence-pattern matching over conversation transcripts: batch scan,
streaming parallel-replay with watermark-sealed exactly-once emission, and
mid-stream checkpoint/resume of the pattern state.

Run: PYTHONPATH=/root/repo python examples/cep_patterns.py
"""

import shutil
import tempfile

import ray
import ray.data


def main():
    from pipeflow_ray.fixtures import ensure_transcripts
    from pipeflow_ray.pipelines.streaming import (
        ParallelCepRunner,
        ParallelCheckpointingCepRunner,
    )
    from pipeflow_ray.stages.cep import match_pattern, pattern_columns
    from pipeflow_ray.state.manifest import read_committed

    tp = ensure_transcripts("/root/testdata/sf0.001")

    # pattern: a user request answered by a tool invocation, handed back to
    # the user within 10 minutes — emit the tool name of the middle step
    steps = [{"role": "user"}, {"role": "tool"}, {"role": "user"}]
    emit = ((1, "tool", "tool"),)
    within_us = 600_000_000

    # --- batch: prep (step bitmasks, pruned columns) → one conv_id exchange
    ds = ray.data.read_parquet(tp, columns=pattern_columns(steps, emit))
    batch = match_pattern(ds, steps, within_us=within_us, emit=emit).to_pandas()
    print(f"batch matches: {len(batch)}")
    print(batch.sort_values(["conv_id", "start_turn_idx"]).head(5).to_string(index=False))

    # --- streaming: shard replayers compute bitmasks, bucket actors hold
    # partial-match tails; a match is emitted exactly once, when the global
    # min-watermark passes its last row
    stream, metrics = ParallelCepRunner(
        steps, within_us=within_us, emit=emit, lateness_s=3 * 3600.0
    ).run(tp)
    print(f"streaming matches: {metrics['matches']} "
          f"(rows={metrics['rows']}, late={metrics['late_rows']})")
    assert len(stream) == len(batch)

    # --- negation (CEP timers): user turns with NO in-time response
    from pipeflow_ray.pipelines.streaming import ParallelAbsenceRunner
    from pipeflow_ray.stages.cep import match_absence

    trigger, response = {"role": "user"}, {"role": ["assistant", "tool"]}
    ds = ray.data.read_parquet(tp, columns=["conv_id", "turn_idx", "role", "ts"])
    t_batch = match_absence(ds, trigger, response, within_us=within_us).to_pandas()
    t_stream, tm = ParallelAbsenceRunner(
        trigger, response, within_us=within_us, lateness_s=3 * 3600.0
    ).run(tp)
    print(f"timeouts: batch {len(t_batch)} / streaming {tm['timeouts']} "
          f"(reasons: {sorted(t_batch.reason.unique())})")
    assert len(t_batch) == len(t_stream)

    # --- Kleene-plus: long turn, one-or-more short turns, long turn
    import pyarrow as pa
    import pyarrow.compute as pc_

    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner
    from pipeflow_ray.stages.cep import match_kleene

    def derive_nc(t):
        return t.append_column(
            "nc", pc_.utf8_length(pc_.fill_null(t["text"], "")).cast(pa.int64()))

    ksteps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)}), {"nc": (">=", 1000)}]
    kds = ray.data.read_parquet(tp, columns=["conv_id", "turn_idx", "text", "ts"]) \
        .map_batches(derive_nc, batch_format="pyarrow")
    k_batch = match_kleene(kds, ksteps, within_us=1_800_000_000).to_pandas()
    k_stream, km = ParallelKleeneRunner(
        ksteps, within_us=1_800_000_000, lateness_s=3 * 3600.0,
        derive=derive_nc, read_columns=["conv_id", "turn_idx", "text", "ts"],
    ).run(tp)
    print(f"kleene runs: batch {len(k_batch)} / streaming {km['matches']} "
          f"(max run_len {int(k_batch.run_len.max()) if len(k_batch) else 0})")
    assert len(k_batch) == len(k_stream)

    # --- suffix-free Kleene with STITCH sealing and emit columns: no
    # closing step, runs seal on observed evidence (exact under any
    # intra-run event-time gap); emit copies values from the span's fixed
    # rows — offset 0 = the prefix row, -1 = the run's last row
    osteps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)})]
    oemit = ((0, "role", "start_role"), (-1, "role", "end_role"))
    o_batch = match_kleene(
        ray.data.read_parquet(tp, columns=["conv_id", "turn_idx", "text", "ts", "role"])
        .map_batches(derive_nc, batch_format="pyarrow"),
        osteps, within_us=1_800_000_000, emit=oemit).to_pandas()
    o_stream, om = ParallelKleeneRunner(
        osteps, within_us=1_800_000_000, lateness_s=3 * 3600.0,
        emit=oemit, derive=derive_nc,
        read_columns=["conv_id", "turn_idx", "text", "ts", "role"],
    ).run(tp)
    print(f"open kleene (stitch): batch {len(o_batch)} / streaming "
          f"{om['matches']}, emit cols {[c for c in o_batch.columns if c.endswith('_role')]}")
    assert len(o_batch) == len(o_stream)

    # --- checkpointed streaming: epoch barriers commit matches exactly-once
    # and snapshot the partial-match tails; a re-run resumes (or no-ops)
    out = tempfile.mkdtemp(prefix="cep_ck_")
    try:
        m = ParallelCheckpointingCepRunner(
            steps, within_us=within_us, emit=emit, lateness_s=3 * 3600.0
        ).run(tp, out, micro_batch_rows=1024, checkpoint_every=2)
        committed = read_committed(out)
        print(f"checkpointed run: {m['partitions']} partitions, "
              f"{committed.num_rows} committed matches over {m['epochs']} epochs")
        assert committed.num_rows == len(batch)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    try:
        main()
    finally:
        ray.shutdown()
