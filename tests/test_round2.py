"""Round-2 hardening tests: distributed (driver-dict-free) near-dup verify,
vectorized SimHash equivalence, OR-amplified embedding LSH recall,
resume round-trip through the exactly-once sink, reference-aligned
in_range semantics, negative-epoch window flooring."""

from __future__ import annotations

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from pipeflow_ray.functions import dedup as D
from pipeflow_ray.stages.validate import DataValidator, apply_validation
from pipeflow_ray.stages.window import assign_tumbling
from pipeflow_ray.state.manifest import (
    completed_partitions,
    filter_completed,
    write_exactly_once,
)


def _corpus() -> pa.Table:
    base = (
        "the quick brown fox jumps over the lazy dog while the rain in spain "
        "falls mainly on the plain and every good boy deserves fudge today"
    )
    docs = [
        base,
        base.replace("lazy", "sleepy"),
        "completely different content about ray data streaming engines and arrow batches",
        "another unrelated document discussing minhash signatures and lsh banding theory",
    ]
    return pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()), "text": docs})


class _NoPutRayProxy:
    """Forwards every attribute to the real ray module but fails the test if
    the instrumented module ever calls ``ray.put`` (the round-1 scale-killer:
    broadcasting whole-corpus signature/text dicts from the driver) or
    fetches Arrow BLOCKS with ``ray.get`` in the driver process (the round-3
    finding: the candidate-id union must assemble in workers; the driver may
    ray.get only scalars like row counts)."""

    def __getattr__(self, name):
        if name == "put":
            raise AssertionError("functions.dedup must not ray.put driver-side objects")
        if name == "get":

            def _guarded_get(x, **kw):
                r = ray.get(x, **kw)
                items = r if isinstance(r, list) else [r]
                assert not any(isinstance(v, (pa.Table, pd.DataFrame)) for v in items), (
                    "functions.dedup fetched data blocks onto the driver"
                )
                return r

            return _guarded_get
        return getattr(ray, name)


def test_minhash_pipeline_no_driver_broadcast(monkeypatch):
    monkeypatch.setattr(D, "ray", _NoPutRayProxy())

    pairs = D.minhash_dedup_pairs(ray.data.from_arrow(_corpus()), threshold=0.6).to_pandas()
    assert (0, 1) in set(zip(pairs.id_a, pairs.id_b))
    assert (2, 3) not in set(zip(pairs.id_a, pairs.id_b))


def test_attach_by_id_co_partitioned_join():
    pairs = ray.data.from_arrow(
        pa.table({"id_a": pa.array([1, 2], pa.int64()), "id_b": pa.array([3, 4], pa.int64())})
    )
    side = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "val": ["a", "b", "c", "d"]})
    )
    out = D.attach_by_id(pairs, side, "id_a", "doc_id", ["val"], "_a", num_buckets=4).to_pandas()
    out = out.sort_values("id_a").reset_index(drop=True)
    assert list(out.val_a) == ["a", "b"]
    out2 = (
        D.attach_by_id(
            ray.data.from_pandas(out), side, "id_b", "doc_id", ["val"], "_b", num_buckets=4
        )
        .to_pandas()
        .sort_values("id_b")
    )
    assert list(out2.val_b) == ["c", "d"]


def test_simhash_vectorized_matches_per_doc_reference():
    texts = [
        "The quick brown Fox",
        "",
        None,
        "one",
        "a b c d e f g a a b",
        "Zebra zebra ZEBRA tokens\nwith\tnewlines and tabs",
    ]
    got = D.SimHasher().signatures(texts)

    for i, text in enumerate(texts):
        toks = (text or "").lower().split()
        if not toks:
            assert got[i] == 0
            continue
        votes = np.zeros(64, np.int64)
        for tok in toks:
            h = D.poly_token_hashes(np.array([tok], dtype=object))[0]
            bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            votes += 2 * bits.astype(np.int64) - 1
        expect = ((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum()
        assert got[i] == expect, f"doc {i}"


def test_simhash_num_bands_validated():
    import pytest

    ds = ray.data.from_arrow(_corpus())
    with pytest.raises(ValueError):
        D.simhash_dup_pairs(ds, max_hamming=3, num_bands=3)  # voids pigeonhole
    with pytest.raises(ValueError):
        D.simhash_dup_pairs(ds, max_hamming=3, num_bands=65)  # zero-width bands


def test_char_shingles_are_codepoints_not_bytes():
    """Non-ASCII text: the distinct-shingle count must equal the number of
    distinct CHARACTER k-grams (what SQL substr computes), not utf-8 byte
    k-grams — the minhash analog of the simhash codepoint fix (ADVICE r2)."""
    text = "héllo wörld ünïcode ärger"  # 2-byte utf-8 chars break byte shingles
    k = 5
    got = D._char_shingle_hashes(text, k)
    expect = {text[i : i + k] for i in range(len(text) - k + 1)}
    assert len(got) == len(expect)
    # and ASCII hash values are unchanged vs the historical byte shingler
    ascii_text = "plain ascii text only"
    b = np.frombuffer(ascii_text.encode(), dtype=np.uint8)
    w = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    old = np.unique(w @ (np.uint64(1_099_511_628_211) ** np.arange(k, dtype=np.uint64)))
    assert np.array_equal(D._char_shingle_hashes(ascii_text, k), old)


def test_poly_token_hash_truncation_bound():
    long_tok = "x" * 100
    a = D.poly_token_hashes(np.array([long_tok], dtype=object))[0]
    b = D.poly_token_hashes(np.array([long_tok[: D.SIMHASH_MAX_TOKEN_CHARS]], dtype=object))[0]
    assert a == b  # both engines hash only the first MAX_TOKEN_CHARS


def test_embedding_lsh_amplified_recall():
    """Noisy planted near-dups (not exact copies): OR-amplification across 6
    tables must recover ≥ 90% of true pairs at cosine ≥ 0.95 — a single
    12-plane table would catch only ~37% (ADVICE r1)."""
    rng = np.random.default_rng(7)
    n_base, n_dup, dim = 300, 30, 32
    vecs = rng.standard_normal((n_base, dim))
    dups = vecs[:n_dup] + rng.standard_normal((n_dup, dim)) * 0.12
    allv = np.vstack([vecs, dups])
    norm = allv / np.linalg.norm(allv, axis=1, keepdims=True)
    true_pairs = {
        (i, n_base + i)
        for i in range(n_dup)
        if float(norm[i] @ norm[n_base + i]) >= 0.95
    }
    assert len(true_pairs) >= 10  # fixture sanity
    t = pa.table(
        {
            "vec_id": pa.array(range(len(allv)), pa.int64()),
            "embedding": [list(map(float, v)) for v in allv],
        }
    )
    got = D.embedding_neardup_pairs(ray.data.from_arrow(t), threshold=0.95).to_pandas()
    found = set(zip(got.id_a, got.id_b)) & true_pairs
    recall = len(found) / len(true_pairs)
    assert recall >= 0.9, f"recall {recall:.2f} over {len(true_pairs)} true pairs"
    # precision is exact: every emitted pair passed the cosine verify
    for a, b in zip(got.id_a, got.id_b):
        assert float(norm[a] @ norm[b]) >= 0.95 - 1e-9


def test_resume_roundtrip_prune_then_write(tmp_path):
    """The documented resume flow — prune committed partitions, recompute the
    rest, write through the exactly-once sink — must round-trip (round-1
    ADVICE: a leftover __part column used to break the second write)."""
    out = str(tmp_path / "out")
    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "conv_id": pa.array([f"c{i % 17}" for i in range(400)]),
            "ts": pa.array(
                [1_700_000_000_000_000 + int(x) for x in rng.integers(0, 10**9, 400)],
                pa.timestamp("us"),
            ),
            "v": pa.array(rng.standard_normal(400)),
        }
    )
    write_exactly_once(ray.data.from_arrow(t), out, num_partitions=8)
    import os

    n0 = len(completed_partitions(out))  # partitions with rows (≤ 8)
    mdir = os.path.join(out, "_manifests")
    removed = sorted(os.listdir(mdir))[:3]
    for name in removed:
        os.remove(os.path.join(mdir, name))
        os.remove(os.path.join(out, name.replace(".json", ".parquet")))

    pruned = filter_completed(ray.data.from_arrow(t), out, "conv_id", 8)
    assert "__part" not in pruned.schema().names
    stats = write_exactly_once(pruned, out, num_partitions=8)
    assert len(completed_partitions(out)) == n0
    recommitted = stats[~stats.skipped]
    assert len(recommitted) == len(removed)
    from pipeflow_ray.state.manifest import read_committed

    assert read_committed(out).num_rows == t.num_rows


def test_in_range_reference_semantics():
    t = pa.table({"x": ["5", "abc", None, "200", "99.5"]})
    v = DataValidator()
    v.column("x").in_range(0, 100)
    out = apply_validation(ray.data.from_arrow(t), v, "skip").to_pandas()
    # "5" and "99.5" in range; "abc" unparsable → invalid; null passes;
    # "200" out of range
    assert list(out.x) == ["5", None, "99.5"]
    # missing column entirely → rule passes (reference RangeRule contract)
    t2 = pa.table({"y": [1, 2]})
    assert apply_validation(ray.data.from_arrow(t2), v, "skip").count() == 2


def test_tumbling_negative_epoch_floors_down():
    ts = pa.array(
        [
            datetime.datetime(1969, 12, 31, 23, 30),  # -30 min
            datetime.datetime(1970, 1, 1, 0, 30),
        ],
        pa.timestamp("us"),
    )
    t = pa.table({"ts": ts})
    out = assign_tumbling(3600.0)(t)
    ws = out["window_start"].to_pylist()
    assert ws[0] == datetime.datetime(1969, 12, 31, 23, 0)  # floored DOWN, not toward zero
    assert ws[1] == datetime.datetime(1970, 1, 1, 0, 0)


def test_default_buckets_floor():
    from pipeflow_ray.stages.core import DEFAULT_BUCKETS, default_buckets

    assert default_buckets() >= DEFAULT_BUCKETS


def test_hierarchical_exchange_matches_flat():
    """The two-level exchange (>max_flat_buckets path) must produce the SAME
    bucket assignment as the flat exchange — bucket b holds exactly the rows
    with hash(key) % num_buckets == b in both."""
    import numpy as np

    from pipeflow_ray.stages.core import hash_exchange

    rng = np.random.default_rng(5)
    n = 4000
    t = pa.table({
        "k": pa.array([f"c{int(x):04d}" for x in rng.integers(0, 300, n)]),
        "v": pa.array(rng.integers(0, 1 << 40, n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(9)
    nb = 50

    def collect(buckets):
        out = []
        for j in range(buckets.num_buckets):
            tabs = [x for x in buckets.bucket(j) if x.num_rows]
            out.append(
                pa.concat_tables(tabs).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
                if tabs else None
            )
        return out

    def prep(t):  # a split-task prep that adds the key and doubles the rows
        k2 = pa.array([s[:3] for s in t["k"].to_pylist()], pa.string())
        return pa.concat_tables([t.append_column("k2", k2)] * 2)

    for key, kw in ((["k"], {}), (["k2"], {"prep": prep})):
        flat = collect(hash_exchange(ds, key, nb, max_flat_buckets=4096, **kw))
        hier = collect(hash_exchange(ds, key, nb, max_flat_buckets=8, **kw))  # force 2-level
        assert len(flat) == len(hier) == nb
        assert sum(len(f) for f in flat if f is not None) == n * (2 if kw else 1)
        for b in range(nb):
            if flat[b] is None:
                assert hier[b] is None or len(hier[b]) == 0
            else:
                pd.testing.assert_frame_equal(flat[b], hier[b])


def test_sliding_null_ts_consistent_with_tumbling():
    """Null event times: tumbling emits the row with a null window_start;
    sliding must do the same (once, not replicated) instead of silently
    dropping it."""
    from pipeflow_ray.stages.window import assign_sliding

    t = pa.table(
        {"ts": pa.array([datetime.datetime(2024, 1, 1, 0, 30), None], pa.timestamp("us")),
         "v": [1, 2]}
    )
    out = assign_sliding(7200.0, 3600.0)(t)
    df = out.to_pandas()
    assert len(df) == 3  # non-null row in 2 windows + null row once
    null_rows = df[df.window_start.isna()]
    assert len(null_rows) == 1 and null_rows.v.iloc[0] == 2


def test_checkpoint_finalized_marker_recovers_crash_window(tmp_path):
    """If the checkpoint says NOT finalized (crash between the last barrier
    and the final flush), a resume that replays nothing must still run the
    final flush/commit; once finalized, further re-runs are no-ops."""
    import json
    import os

    from pipeflow_ray.fixtures import gen_transcripts
    import pyarrow.parquet as pq_mod
    from pipeflow_ray.pipelines.streaming import ParallelCheckpointingSessionRunner
    from pipeflow_ray.state.manifest import completed_partitions, read_committed

    def runner():
        return ParallelCheckpointingSessionRunner(
            gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=2, max_replayers=1)

    src = str(tmp_path / "in.parquet")
    pq_mod.write_table(gen_transcripts(1200, seed=9), src)
    out = str(tmp_path / "out")
    r = runner()
    r.run(src, out, micro_batch_rows=128, checkpoint_every=3)
    rows = read_committed(out).num_rows
    n_parts = len(completed_partitions(out))

    ck = os.path.join(out, "_checkpoints", "latest.json")
    rec = json.load(open(ck))
    assert rec["finalized"] is True
    # simulate the crash window: marker cleared, job must re-finalize
    rec["finalized"] = False
    json.dump(rec, open(ck, "w"))
    r2 = runner()
    r2.run(src, out, micro_batch_rows=128, checkpoint_every=3)
    assert json.load(open(ck))["finalized"] is True
    assert read_committed(out).num_rows == rows  # no duplicates introduced
    # and a normal re-run after finalization is a pure no-op
    r3 = runner()
    r3.run(src, out, micro_batch_rows=128, checkpoint_every=3)
    assert read_committed(out).num_rows == rows
