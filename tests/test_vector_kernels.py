"""Zero-copy vector prep (``similarity._list_matrix``), the batched and
blocked embedding near-dup verify, the exchange's split-task prep, the
merge-only exchange sizing (``stages.core.merge_buckets``), IVF centroid
training and its read-once callers, and empty-input schemas of the
retrieval and vector-search ops."""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from pipeflow_ray.functions.dedup import _sig_column, embedding_neardup_pairs
from pipeflow_ray.functions.similarity import (
    _centroid_dist,
    _list_matrix,
    brute_force_topk,
    corpus_topk,
    ivf_topk,
    kmeans_assignments,
    knn_classify,
    semantic_dedup_pairs,
    train_centroids,
)
from pipeflow_ray.stages import core


def _rows(x: np.ndarray, typ=pa.float32()) -> pa.ListArray:
    flat = pa.array(x.ravel(), typ)
    return pa.FixedSizeListArray.from_arrays(flat, x.shape[1]).cast(pa.list_(typ))


def test_list_matrix_sliced_chunks_keep_their_offset():
    x = np.arange(40, dtype=np.float32).reshape(10, 4)
    col = _rows(x)
    for lo, n in ((3, 4), (0, 10), (9, 1)):
        got = _list_matrix(col.slice(lo, n), "v")
        assert got.dtype == np.float64 and got.shape == (n, 4)
        np.testing.assert_array_equal(got, x[lo:lo + n])
    fixed = pa.FixedSizeListArray.from_arrays(pa.array(x.ravel()), 4).slice(2, 5)
    np.testing.assert_array_equal(_list_matrix(fixed, "v"), x[2:7])
    large = col.cast(pa.large_list(pa.float32())).slice(5, 3)
    np.testing.assert_array_equal(_list_matrix(large, "v"), x[5:8])


def test_list_matrix_multi_chunk_and_writable():
    x = np.random.default_rng(0).standard_normal((9, 3))
    col = _rows(x, pa.float64())
    chunked = pa.chunked_array([col.slice(0, 2), col.slice(2, 0), col.slice(2, 7)])
    got = _list_matrix(chunked, "v")
    np.testing.assert_array_equal(got, x)
    single = _list_matrix(pa.chunked_array([col]), "v")  # same dtype: no cast copy
    single /= 2.0  # callers normalize in place
    np.testing.assert_array_equal(single, x / 2.0)


def test_list_matrix_tensor_extension_chunks():
    from ray.data.extensions import ArrowTensorArray

    x = np.arange(24, dtype=np.float32).reshape(6, 4)
    ext = ArrowTensorArray.from_numpy(x)
    np.testing.assert_array_equal(_list_matrix(ext, "v"), x)
    np.testing.assert_array_equal(_list_matrix(ext.slice(1, 3), "v"), x[1:4])
    mixed = pa.chunked_array([ext.slice(0, 2), ext.slice(2, 4)])
    np.testing.assert_array_equal(_list_matrix(mixed, "v"), x)


def test_list_matrix_empty_input():
    for col in (pa.array([], pa.list_(pa.float32())),
                pa.chunked_array([], pa.list_(pa.float32())),
                _rows(np.ones((3, 2), np.float32)).slice(3, 0)):
        got = _list_matrix(col, "v")
        assert got.shape == (0, 0) and got.dtype == np.float64
    assert _list_matrix(pa.array([], pa.list_(pa.uint64())), "sig", np.uint64).dtype == np.uint64


def test_list_matrix_uint64_signatures_bit_exact():
    rng = np.random.default_rng(1)
    sigs = rng.integers(0, np.iinfo(np.uint64).max, size=(7, 64), dtype=np.uint64,
                        endpoint=True)
    sigs[0, :3] = [2**53 + 1, 2**64 - 1, 2**63 + 12345]  # not representable as float64
    col = _sig_column(sigs)
    assert col.type == pa.list_(pa.uint64()) and len(col) == 7
    assert col.to_pylist()[3] == sigs[3].tolist()
    got = _list_matrix(col.slice(0, 7), "sig", np.uint64)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, sigs)
    assert _sig_column(np.empty((0, 64), np.uint64)).type == pa.list_(pa.uint64())


@pytest.mark.parametrize("col, what", [
    (pa.array([[1.0, 2.0], None, [3.0, 4.0]], pa.list_(pa.float32())), "null row"),
    (pa.array([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]], pa.list_(pa.float32())),
     "unequal length"),
    (pa.array([[1.0, 2.0], [3.0, 4.0], [5.0]], pa.list_(pa.float32())), "unequal length"),
    (pa.array([[1.0, 2.0], [3.0, None]], pa.list_(pa.float32())), "null value"),
    (pa.chunked_array([pa.array([[1.0, 2.0]]), pa.array([[1.0, 2.0, 3.0]])]),
     "unequal length"),
    (pa.array([1.0, 2.0]), "not a list"),
])
def test_list_matrix_rejects_malformed_rows(col, what):
    with pytest.raises(ValueError, match=rf"'embedding'.*{what}"):
        _list_matrix(col, "embedding")


def _exact_pairs(x: np.ndarray, ids: np.ndarray, threshold: float) -> dict:
    """{(id_a, id_b): cosine} for every pair with cosine ≥ threshold, by
    blockwise float64 matmul over all rows."""
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    out = {}
    for r0 in range(0, len(xn), 512):
        sims = xn[r0:r0 + 512] @ xn.T
        for r, c in zip(*np.nonzero(sims >= threshold)):
            i, j = r0 + r, c
            if i < j:
                a, b = sorted((int(ids[i]), int(ids[j])))
                out[(a, b)] = float(sims[r, c])
    return out


def test_embedding_neardup_hot_bucket_crosses_verify_blocks():
    """One hot LSH group of 3,000 vectors (about three 1,024-row verify
    blocks) with planted duplicates, plus scattered background rows.

    The kernel derives its hyperplanes from ``seed``; the test rebuilds
    table 0's planes the same way and keeps only candidates that land in
    the hot bucket, so every pair inside the hot group is verified and the
    result must equal the exact numpy pairs there."""
    from pipeflow_ray.functions.dedup import _VERIFY_BLOCK

    dim, num_planes, num_tables, seed, threshold = 16, 12, 6, 42, 0.97
    hot_n, n_dup, n_bg = 3_000, 40, 400
    assert hot_n > 2 * _VERIFY_BLOCK
    planes = np.random.default_rng(seed).standard_normal((num_tables, dim, num_planes))[0]
    rng = np.random.default_rng(7)
    center = rng.standard_normal(dim)
    center /= np.linalg.norm(center)

    def in_hot_bucket(v32):
        """Rows of float32 *v32* whose table-0 signbits equal the center's,
        none within rounding of a plane."""
        proj = v32.astype(np.float64) @ planes
        return ((proj > 0) == (center @ planes > 0)).all(axis=1) & (
            np.abs(proj).min(axis=1) > 1e-6)

    hot = []
    while sum(len(h) for h in hot) < hot_n:
        cand = (center + 0.3 * rng.standard_normal((4_000, dim)) / np.sqrt(dim)
                ).astype(np.float32)
        hot.append(cand[in_hot_bucket(cand)])
    hot = np.concatenate(hot)[:hot_n]
    # planted near-duplicates: the copy gets a tiny nudge that keeps the bucket
    src = rng.choice(hot_n, size=2 * n_dup, replace=False)
    planted_rows = []
    for s_i, d_i in zip(src[:n_dup], src[n_dup:]):
        for _ in range(100):
            cand = hot[s_i] + (1e-3 * rng.standard_normal(dim)).astype(np.float32)
            if in_hot_bucket(cand[None, :])[0]:
                hot[d_i] = cand
                planted_rows.append((s_i, d_i))
                break
    assert len(planted_rows) == n_dup
    bg = rng.standard_normal((n_bg, dim)).astype(np.float32)
    bg[1] = bg[0]  # an exact duplicate collides in every table
    x = np.concatenate([hot, bg])
    ids = rng.permutation(len(x)).astype(np.int64) * 5 + 3  # sparse, unordered
    order = rng.permutation(len(x))  # hot rows spread over the input blocks
    t = pa.table({"vec_id": pa.array(ids[order]), "embedding": _rows(x[order])})

    got = embedding_neardup_pairs(ray.data.from_arrow(t).repartition(5),
                                  threshold=threshold).to_pandas()
    exp = _exact_pairs(x.astype(np.float64), ids, threshold - 1e-9)
    got_pairs = list(zip(got.id_a.tolist(), got.id_b.tolist()))
    assert len(set(got_pairs)) == len(got_pairs), "a pair was emitted twice"
    # exact precision, with the exact cosine
    for (a, b), cos in zip(got_pairs, got.cosine.tolist()):
        assert a < b and (a, b) in exp
        assert abs(cos - exp[(a, b)]) <= 1e-9
    # every true pair inside the hot group, planted ones included
    hot_ids = set(ids[:hot_n].tolist())
    must = {p for p, c in exp.items() if p[0] in hot_ids and p[1] in hot_ids
            and c >= threshold + 1e-9}
    planted = {tuple(sorted((int(ids[s_i]), int(ids[d_i])))) for s_i, d_i in planted_rows}
    assert planted <= must
    assert must <= set(got_pairs)
    bg_dup = tuple(sorted((int(ids[hot_n]), int(ids[hot_n + 1]))))
    assert bg_dup in set(got_pairs)


def _per_group_pairs(ids, x, key, threshold):
    """Reference verify: one full matmul per group, upper triangle."""
    out = {}
    for k in np.unique(key):
        g = np.flatnonzero(key == k)
        sims = x[g] @ x[g].T
        for r, c in zip(*np.nonzero(np.triu(sims >= threshold, 1))):
            a, b = sorted((int(ids[g[r]]), int(ids[g[c]])))
            out[(a, b)] = float(sims[r, c])
    return out


def test_verify_groups_matches_per_group_loop():
    """The batched small-group verify (size classes 2–3, 4–7, 8–15, 16–32,
    padded) and the blocked large-group verify give the per-group loop's
    pairs and cosines: group sizes 1–40 cross every class boundary, one
    group of 1,100 rows crosses a verify block, duplicate rows score 1."""
    from pipeflow_ray.functions.dedup import _VERIFY_BLOCK, _verify_groups

    rng = np.random.default_rng(21)
    dim, threshold = 8, 0.8
    sizes = [s for s in range(1, 41) for _ in range(3)] + [_VERIFY_BLOCK + 76]
    key = np.repeat(rng.permutation(len(sizes)) * 7 + 2, sizes)
    x = rng.standard_normal((len(key), dim))
    x[1:len(key):17] = x[0:len(key) - 1:17]  # duplicate rows, some in one group
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    shuffle = rng.permutation(len(key))  # groups interleaved in the input
    key, x = key[shuffle], x[shuffle]
    ids = rng.permutation(len(key)).astype(np.int64) * 3 + 1

    a, b, cos = _verify_groups(ids, x, key, threshold)
    exp = _per_group_pairs(ids, x, key, threshold)
    got = {(int(i), int(j)): float(c) for i, j, c in zip(a, b, cos)}
    assert len(got) == len(a) and (a < b).all()
    assert got.keys() == exp.keys()
    assert np.isclose(max(got.values()), 1.0)  # a duplicate pair was verified
    big = np.flatnonzero(np.bincount(np.unique(key, return_inverse=True)[1])
                         > _VERIFY_BLOCK)
    assert len(big) == 1
    for p, c in exp.items():
        assert abs(got[p] - c) <= 1e-12
    empty = _verify_groups(ids[:0], x[:0], key[:0], threshold)
    assert [len(e) for e in empty] == [0, 0, 0]


def _tagger():
    """A row-multiplying prep: two copies of each row, keyed by (k, copy).
    Built inside the test so it pickles by value, not by a module name the
    Ray workers cannot import."""
    def tagged(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            t.append_column("copy", pa.array(np.full(t.num_rows, c, np.int64)))
            for c in (0, 1)])
    return tagged


def test_hash_exchange_prep_empty_blocks_keep_prep_schema():
    empty = pa.table({"k": pa.array([], pa.int64())})
    full = pa.table({"k": pa.array(np.arange(20, dtype=np.int64))})
    for blocks in ([empty, empty], [empty, full]):
        ds = ray.data.from_arrow_refs([ray.put(b) for b in blocks])
        buckets = core.hash_exchange(ds, ["k", "copy"], 4, prep=_tagger())
        slices = [t for j in range(4) for t in buckets.bucket(j)]
        assert slices and all(t.schema.names == ["k", "copy"] for t in slices)
        assert sum(t.num_rows for t in slices) == 2 * sum(b.num_rows for b in blocks)


def test_hash_exchange_prep_refused_on_keyed_buckets():
    ds = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    handle = core.hash_exchange(ds, ["k"], 2)
    assert core.hash_exchange(handle, ["k"], 2) is handle
    with pytest.raises(ValueError, match="already split"):
        core.hash_exchange(handle, ["k"], 2, prep=_tagger())


def test_neardup_bucket_count_counts_every_lsh_table(monkeypatch):
    """The (table, bucket) exchange is sized on what its split emits:
    *num_tables* copies of the input."""
    from ray.data import DataContext

    t = _planted_corpus(n=2_000)
    ds = ray.data.from_arrow(t).materialize()
    seen = []
    real = core.hash_exchange

    def spy(ds, key_cols, num_buckets=None, **kw):
        seen.append(num_buckets)
        return real(ds, key_cols, num_buckets, **kw)

    monkeypatch.setattr(core, "hash_exchange", spy)
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = ds.size_bytes() // (2 * _session_cpus())
        counts = {}
        for tables in (1, 6):
            seen.clear()
            embedding_neardup_pairs(ds, threshold=0.97, num_tables=tables).materialize()
            counts[tables] = seen[0]
        assert counts[6] == core.merge_buckets((ds, 6)) > counts[1]
        assert counts[6] >= 6 * (counts[1] - 1)
    finally:
        ctx.target_max_block_size = old


def test_embedding_neardup_empty_input_schema():
    t = pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32()))})
    got = embedding_neardup_pairs(ray.data.from_arrow(t))
    sch = got.schema()
    assert dict(zip(sch.names, sch.types)) == {
        "id_a": pa.int64(), "id_b": pa.int64(), "cosine": pa.float64()}
    assert got.count() == 0


def test_stable_empty_keeps_only_the_non_empty_blocks():
    """``dedup._stable_empty`` drops zero-row blocks by their bundle
    metadata and returns every row of the others; zero-row blocks alone
    give the declared schema."""
    from pipeflow_ray.functions.dedup import _EMPTY_COSINE, _stable_empty

    def part(ids):
        return pa.table({"id_a": pa.array(ids, pa.int64()),
                         "id_b": pa.array([i + 10 for i in ids], pa.int64()),
                         "cosine": pa.array([0.5] * len(ids), pa.float64())})

    got = _stable_empty(ray.data.from_arrow(
        [part([]), part([1, 2]), part([]), part([3]), part([])]), _EMPTY_COSINE)
    blocks = [md.num_rows for b in got.iter_internal_ref_bundles() for _, md in b.blocks]
    assert blocks == [2, 1]
    assert got.take_all() == part([1, 2, 3]).to_pylist()

    none = _stable_empty(ray.data.from_arrow([part([]), part([])]), _EMPTY_COSINE)
    sch = none.schema()
    assert dict(zip(sch.names, sch.types)) == dict(zip(_EMPTY_COSINE.names,
                                                      _EMPTY_COSINE.types))
    assert none.count() == 0


def test_bm25_topk_empty_corpus_and_no_match():
    from pipeflow_ray.functions.text import bm25_topk

    expect = {"query_id": pa.int64(), "doc_id": pa.int64(), "score_micro": pa.int64(),
              "n_terms": pa.int64(), "rk": pa.int64()}
    empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    nomatch = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                        "text": pa.array(["alpha beta", "gamma"])})
    for docs in (empty, nomatch):
        got = bm25_topk(ray.data.from_arrow(docs), [["zeta"], ["eta", "theta"]], k=3)
        sch = got.schema()
        assert dict(zip(sch.names, sch.types)) == expect
        assert got.count() == 0



_TOPK = {"query_id": pa.int64(), "vec_id": pa.int64(), "cosine": pa.float64(),
         "rank": pa.int64()}


def _corpus_topk(ds, q):
    queries = pa.table({"vec_id": pa.array([7, 8], pa.int64()),
                        "embedding": _rows(q.astype(np.float32))})
    return corpus_topk(ds, ray.data.from_arrow(queries), k=3, n_clusters=2, nprobe=2)


@pytest.mark.parametrize("op, expect", [
    (lambda ds, q: brute_force_topk(ds, q, k=3), _TOPK),
    (lambda ds, q: ivf_topk(ds, q, k=3, n_clusters=2, nprobe=2), _TOPK),
    (_corpus_topk, _TOPK),
    (lambda ds, q: knn_classify(ds, k=3),
     {"vec_id": pa.int64(), "pred_label": pa.int64(), "n_votes": pa.int64()}),
], ids=["brute_force_topk", "ivf_topk", "corpus_topk", "knn_classify"])
def test_vector_search_empty_corpus_schema(op, expect):
    corpus = pa.table({"vec_id": pa.array([], pa.int64()),
                       "embedding": pa.array([], pa.list_(pa.float32())),
                       "label": pa.array([], pa.int64())})
    got = op(ray.data.from_arrow(corpus), np.eye(2, 4))
    sch = got.schema()
    assert dict(zip(sch.names, sch.types)) == expect
    assert got.count() == 0


@pytest.mark.parametrize("op, expect", [
    (lambda ds: kmeans_assignments(ds, k=2),
     {"vec_id": pa.int64(), "cluster": pa.int64(), "dist2": pa.int64()}),
    (lambda ds: semantic_dedup_pairs(ds, k=2),
     {"id_a": pa.int64(), "id_b": pa.int64(), "dist2": pa.int64()}),
], ids=["kmeans_assignments", "semantic_dedup_pairs"])
def test_kmeans_empty_corpus_schema(op, expect):
    corpus = pa.table({"vec_id": pa.array([], pa.int64()),
                       "embedding": pa.array([], pa.list_(pa.float32()))})
    got = op(ray.data.from_arrow(corpus))
    sch = got.schema()
    assert dict(zip(sch.names, sch.types)) == expect
    assert got.count() == 0
    # rows but no default seed (every id ≥ k) is a caller error, not an empty result
    far = pa.table({"vec_id": pa.array([10, 11], pa.int64()),
                    "embedding": _rows(np.eye(2, 4, dtype=np.float32))})
    with pytest.raises(ValueError, match="seed rows"):
        op(ray.data.from_arrow(far))


def _session_cpus() -> int:
    return int(ray.cluster_resources()["CPU"])


def test_merge_buckets_floor_and_byte_term():
    from ray.data import DataContext

    floor = 2 * _session_cpus()
    empty = ray.data.from_arrow(pa.table({"x": pa.array([], pa.int64())})).materialize()
    assert core.merge_buckets(empty) == floor
    ds = ray.data.from_arrow(pa.table({"x": np.arange(100_000, dtype=np.int64)})).materialize()
    nbytes = ds.size_bytes()
    assert core.merge_buckets(ds) == floor  # 800 kB is far below the 128 MiB block target
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = nbytes // 50
        got = core.merge_buckets(ds)
        assert got == -(-nbytes // (nbytes // 50)) and got > floor
        assert core.merge_buckets(ds, ds) >= 2 * got - 1  # sizes add across inputs
    finally:
        ctx.target_max_block_size = old
    with pytest.raises(TypeError, match="materialized"):
        core.merge_buckets(ray.data.range(10))


def _planted_corpus(n=1_500, dim=16, n_dup=30, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim)).astype(np.float32)
    src = rng.choice(n, size=2 * n_dup, replace=False)
    x[src[n_dup:]] = x[src[:n_dup]] + (1e-3 * rng.standard_normal((n_dup, dim))).astype(np.float32)
    ids = rng.permutation(n).astype(np.int64) * 3 + 1
    return pa.table({"vec_id": pa.array(ids), "embedding": _rows(x)})


def _merge_only_results(t, cq):
    pairs = embedding_neardup_pairs(ray.data.from_arrow(t).repartition(4),
                                    threshold=0.97).to_pandas()
    top = corpus_topk(ray.data.from_arrow(t).repartition(4), ray.data.from_arrow(cq),
                      k=5, n_clusters=4, nprobe=4, exclude_self=True).to_pandas()
    return (pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True),
            top.sort_values(["query_id", "rank"]).reset_index(drop=True))


def test_merge_only_stages_invariant_to_bucket_count(monkeypatch):
    t = _planted_corpus()
    cq = t.take(np.arange(0, t.num_rows, 37))
    ref_pairs, ref_top = _merge_only_results(t, cq)
    assert len(ref_pairs) >= 30 and len(ref_top) == 5 * cq.num_rows
    for nb in (1, 3, 64):
        monkeypatch.setattr(core, "merge_buckets", lambda *ds, nb=nb: nb)
        pairs, top = _merge_only_results(t, cq)
        assert pairs[["id_a", "id_b"]].equals(ref_pairs[["id_a", "id_b"]]), nb
        np.testing.assert_allclose(pairs.cosine, ref_pairs.cosine, rtol=0, atol=1e-12)
        assert top[["query_id", "vec_id", "rank"]].equals(
            ref_top[["query_id", "vec_id", "rank"]]), nb
        np.testing.assert_allclose(top.cosine, ref_top.cosine, rtol=0, atol=1e-12)


def test_corpus_topk_bucket_count(monkeypatch):
    """Both cell exchanges and the query merge use one count: the explicit
    *num_buckets*, else min(n_clusters, merge_buckets)."""
    t = _planted_corpus(n=400)
    cq = ray.data.from_arrow(t.slice(0, 8))
    seen = []
    real = core.hash_exchange

    def spy(ds, key_cols, num_buckets=None, **kw):
        seen.append(num_buckets)
        return real(ds, key_cols, num_buckets, **kw)

    monkeypatch.setattr(core, "hash_exchange", spy)
    corpus_topk(ray.data.from_arrow(t), cq, k=3, n_clusters=16, nprobe=2).materialize()
    assert seen == [min(16, 2 * _session_cpus())] * 3
    seen.clear()

    def no_helper(*ds):
        raise AssertionError("an explicit num_buckets must not consult merge_buckets")

    monkeypatch.setattr(core, "merge_buckets", no_helper)
    corpus_topk(ray.data.from_arrow(t), cq, k=3, n_clusters=16, nprobe=2,
                num_buckets=3).materialize()
    assert seen == [3, 3, 3]


def test_centroid_dist_matches_broadcast():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2_000, 32))
    cent = rng.standard_normal((16, 32))
    full = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
    d = _centroid_dist(x, cent)
    assert d.shape == (2_000, 16)
    np.testing.assert_array_equal(d.argmin(1), full.argmin(1))
    np.testing.assert_array_equal(np.argsort(d, axis=1), np.argsort(full, axis=1))
    np.testing.assert_allclose(d + (x * x).sum(1, keepdims=True), full, rtol=0, atol=1e-9)


def _const_blocks(n_blocks=8, rows=1_000, dim=4):
    """Block *i* holds *rows* copies of the constant vector *i*."""
    return ray.data.from_arrow([
        pa.table({"vec_id": pa.array(np.arange(i * rows, (i + 1) * rows)),
                  "embedding": _rows(np.full((rows, dim), i, np.float32))})
        for i in range(n_blocks)])


def test_train_centroids_samples_every_block():
    """One centroid is the sample mean: a sample from every block puts it
    near the all-block mean 3.5; a head-of-corpus (``limit()``) sample of
    4,096 of the 8,000 rows would put it near 1.5."""
    ds = _const_blocks()
    assert ds.materialize().num_blocks() == 8
    cent = train_centroids(ds, n_clusters=1)
    assert cent.shape == (1, 4)
    assert np.all(np.abs(cent - 3.5) < 0.15), cent


def test_train_centroids_deterministic_per_layout():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6_000, 8)).astype(np.float32)
    ds = ray.data.from_arrow([pa.table({"embedding": _rows(x[i::6])}) for i in range(6)])
    a = train_centroids(ds, n_clusters=4)
    b = train_centroids(ds.materialize(), n_clusters=4)
    assert a.shape == (4, 8)
    np.testing.assert_array_equal(a, b)


def test_ivf_paths_read_corpus_once(tmp_path):
    """``corpus_topk`` and ``ivf_topk`` run the corpus pipeline once: a
    marking UDF on the corpus runs as often as in one ``materialize()``."""
    import pyarrow.parquet as pq

    t = _planted_corpus(n=1_200)
    src = tmp_path / "corpus"
    src.mkdir()
    for i in range(4):
        pq.write_table(t.slice(300 * i, 300), str(src / f"part-{i}.parquet"))

    def calls(run) -> int:
        marks = tmp_path / uuid.uuid4().hex
        marks.mkdir()

        def mark(b, mark_dir=str(marks)):
            open(os.path.join(mark_dir, uuid.uuid4().hex), "w").close()
            return b

        run(ray.data.read_parquet(str(src)).map_batches(mark, batch_format="pyarrow"))
        return len(os.listdir(marks))

    once = calls(lambda ds: ds.materialize())
    assert once >= 4
    cq = ray.data.from_arrow(t.slice(0, 8))
    assert calls(lambda ds: corpus_topk(ds, cq, k=3, n_clusters=4, nprobe=2)
                 .materialize()) == once
    q = _list_matrix(t["embedding"].slice(0, 3), "embedding")
    assert calls(lambda ds: ivf_topk(ds, q, k=3, n_clusters=4, nprobe=2)
                 .materialize()) == once
