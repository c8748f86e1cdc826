"""Similarity search over an embedding column (``list<float>``).

Every kernel turns its vector column into an ndarray through
:func:`_list_matrix` — a zero-copy reshape of each Arrow chunk's flattened
value buffer (no per-row Python lists) that raises on null or ragged rows.

- :func:`brute_force_topk` — exact cosine top-k: the query matrix is
  broadcast ONCE (``ray.put``); each batch does one numpy matmul and emits
  only its local top-k per query; a final tiny groupby merges partials.
  Cost: one pass over the corpus, no shuffle of vectors.
- :func:`ivf_topk` — the scale path: train centroids on a sample (driver-side
  mini k-means), assign each vector to its nearest centroid in a pass, then
  search only the ``nprobe`` closest clusters per query.
- :func:`corpus_topk` — the same IVF cells with a Dataset of queries: both
  sides cross a keyed exchange on the cell id, and bucket tasks matmul.

The IVF paths read their corpus once: it is materialized, and the centroid
sample comes from its blocks through one raw task per block (a Ray Data
execution costs a fixed 0.05–0.10 s, a raw task ~0.7 ms). Every
nearest-centroid step — the Lloyd assignment, the probe choice, the cell
assignment — is the single matmul of :func:`_centroid_dist`.

The keyed vector exchanges (:func:`corpus_topk`'s cells, SemDeDup's
clusters) run their per-block prep (:func:`_corpus_cell_prep`,
:func:`_query_cell_prep`, :func:`_sem_prep`) inside the exchange's split
task (``hash_exchange(..., prep=)``): no prepared copy of the vectors is
written to the object store, the exchange slices are the only one.

Both per-batch kernels are stateless module-level functions over Ray Data's
warm task-worker pool — a per-query actor pool costs ~1 s of process spawn
per call (the minhash ``_cached_hasher`` finding); the broadcast payload is
fetched from plasma once per worker process via an lru cache keyed on the
ObjectRef.
"""

from __future__ import annotations

import functools as _functools

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


def _list_matrix(col, name: str, dtype=np.float64) -> np.ndarray:
    """(n, d) *dtype* matrix from a fixed-width list column (``list``,
    ``large_list`` or ``fixed_size_list``; Array or ChunkedArray, sliced
    chunks included) via each chunk's flattened value buffer — no per-row
    Python objects. Also accepts Ray's ArrowTensorArray extension chunks
    (what ``from_pandas`` produces for ndarray cells). This is the one
    list → ndarray path of the vector and signature kernels; pass
    ``dtype=np.uint64`` for MinHash signatures (exact above 2^53).

    Raises ``ValueError`` naming *name* on a null row, a null value inside
    a row, or rows of unequal length — a flattened buffer would silently
    reshape those wrong. An empty column gives shape ``(0, 0)``."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts = []
    for ch in chunks:
        if not len(ch):
            continue
        if ch.null_count:
            raise ValueError(f"column {name!r}: {ch.null_count} null row(s)")
        if isinstance(ch, pa.ExtensionArray):  # tensor extension: already (n, d…)
            arr = np.asarray(ch.to_numpy(zero_copy_only=False))
            if arr.dtype == object:  # variable-shaped tensors
                raise ValueError(f"column {name!r}: rows of unequal length")
            parts.append(arr.reshape(len(ch), -1))
            continue
        if not (pa.types.is_list(ch.type) or pa.types.is_large_list(ch.type)
                or pa.types.is_fixed_size_list(ch.type)):
            raise ValueError(f"column {name!r}: not a list column ({ch.type})")
        flat = ch.flatten()
        if flat.null_count:
            raise ValueError(f"column {name!r}: {flat.null_count} null value(s) inside rows")
        width = len(flat) // len(ch)
        if not pa.types.is_fixed_size_list(ch.type):
            lengths = np.diff(ch.offsets.to_numpy())
            if (lengths != width).any():
                raise ValueError(f"column {name!r}: rows of unequal length "
                                 f"({int(lengths.min())}..{int(lengths.max())})")
        parts.append(flat.to_numpy(zero_copy_only=False).reshape(len(ch), width))
    if not parts:
        return np.empty((0, 0), dtype)
    if len({p.shape[1] for p in parts}) > 1:
        raise ValueError(f"column {name!r}: rows of unequal length across chunks")
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    out = out.astype(dtype, copy=False)
    # a same-dtype single chunk is a read-only view of the Arrow buffer;
    # callers normalize in place
    return out if out.flags.writeable else out.copy()


def _collect_arrow(ds: ray.data.Dataset) -> pa.Table:
    """A small Dataset (a training sample, seed rows) as ONE driver-side
    Arrow table, so its vector column reaches :func:`_list_matrix` as list
    buffers rather than as per-row ndarray cells of a pandas frame. A
    Dataset without rows gives a table without columns."""
    from ray.data.block import BlockAccessor

    from pipeflow_ray.stages.core import block_refs

    tables = [t for t in (BlockAccessor.for_block(b).to_arrow()
                          for b in ray.get(block_refs(ds))) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def _empty_topk(id_col: str) -> ray.data.Dataset:
    """The top-k result of a search that found nothing (an empty corpus),
    with its declared schema."""
    return ray.data.from_arrow(pa.schema([
        ("query_id", pa.int64()), (id_col, pa.int64()),
        ("cosine", pa.float64()), ("rank", pa.int64()),
    ]).empty_table())


@_functools.lru_cache(maxsize=8)
def _cached_broadcast(ref: ray.ObjectRef):
    """One plasma fetch per worker process per broadcast object (refs are
    hashable; the cache pins at most 8 small query/centroid payloads)."""
    return ray.get(ref)


def _bf_partial(t: pa.Table, *, qref, k: int, vec_col: str, id_col: str) -> pa.Table:
    q = _cached_broadcast(qref)
    vecs = _list_matrix(t[vec_col], vec_col)
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True).clip(min=1e-12)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    sims = q @ vecs.T  # (Q, B)
    kk = min(k, sims.shape[1])
    top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    qid = np.repeat(np.arange(len(q)), kk)
    vid = ids[top.ravel()]
    sc = np.take_along_axis(sims, top, axis=1).ravel()
    return pa.table(
        {
            "query_id": pa.array(qid, pa.int64()),
            id_col: pa.array(vid),
            "cosine": pa.array(sc, pa.float64()),
        }
    )


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Exact cosine top-k for each row of *queries* (Q×D).

    Output: (query_id, vec_id, cosine, rank), rank 1..k per query, ties broken
    by vec_id ascending (deterministic).
    """
    qn = queries.astype(np.float64)
    qn = qn / np.linalg.norm(qn, axis=1, keepdims=True).clip(min=1e-12)
    qref = ray.put(qn)
    partials = ds.map_batches(
        _bf_partial,
        fn_kwargs=dict(qref=qref, k=k, vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow",
    )
    return _merge_partial_topk(partials, k, id_col)


def _merge_partial_topk(partials: ray.data.Dataset, k: int, id_col: str) -> ray.data.Dataset:
    """Merge per-block top-k partials. The partial set is tiny by
    construction (≤ Q × k rows per block), so one driver-side pandas merge
    replaces a whole sort-based ``groupby(query_id)`` shuffle (measured ~2 s
    of pure overhead at sf0.1) — this is NOT a corpus materialization."""
    df = partials.to_pandas()
    if not len(df):
        return _empty_topk(id_col)
    df = df.sort_values(["query_id", "cosine", id_col],
                        ascending=[True, False, True], kind="mergesort")
    df = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount().to_numpy() + 1
    df["rank"] = df["rank"].astype(np.int64)
    return ray.data.from_pandas(df)


def _centroid_dist(x: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from each row of *x* to each centroid, less
    the per-row constant |x|²: ``|c|² − 2·x·cᵀ``. A row's argmin, argsort
    and argpartition are those of the full squared distance; one matmul,
    no (n, k, d) broadcast temporary. The one nearest-centroid expression of
    the IVF kernels."""
    return (cent * cent).sum(1) - 2.0 * (x @ cent.T)


@ray.remote
def _sample_block(block, frac: float, seed: int, vec_col: str) -> pa.Table:
    """*vec_col* of one block's rows kept under a Bernoulli(*frac*) mask
    seeded by *seed* (every row at ``frac >= 1``)."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow().select([vec_col])
    if frac >= 1.0:
        return t
    return t.filter(pa.array(np.random.default_rng(seed).random(t.num_rows) < frac))


def train_centroids(
    ds: ray.data.Dataset,
    n_clusters: int = 16,
    vec_col: str = "embedding",
    sample_rows: int = 4096,
    iters: int = 10,
    seed: int = 42,
) -> np.ndarray:
    """Mini k-means on a driver-side sample (the classic IVF training step —
    sample is small by construction; the full corpus never leaves the tasks).

    *ds* is materialized unless it already is (callers that go on to
    search it pass the copy they search, so they read it once); the row
    count comes from block metadata. One raw task per block keeps its rows
    under a Bernoulli mask seeded by ``seed + block index`` and returns only
    *vec_col* — no Ray Data execution. The sample is uniform over every
    block (``limit()`` would take only the head blocks, a biased sample)
    and, for a given block layout, deterministic; an over-full draw is cut
    to *sample_rows* by a uniform subset. Each Lloyd step assigns with one
    matmul (:func:`_centroid_dist`). An empty Dataset gives a (0, 0)
    matrix."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    blocks = [(ref, md.num_rows) for bundle in ds.iter_internal_ref_bundles()
              for ref, md in bundle.blocks]
    n = sum(rows for _, rows in blocks)
    if n == 0:
        return np.empty((0, 0))
    frac = min(1.0, (sample_rows * 1.25) / n)
    sample = pa.concat_tables(ray.get([
        _sample_block.remote(ref, frac, seed + i, vec_col)
        for i, (ref, rows) in enumerate(blocks) if rows]))
    if sample.num_rows < min(sample_rows // 2, n // 2):  # pathological under-sample
        sample = _collect_arrow(ds.limit(sample_rows))
    x = _list_matrix(sample[vec_col], vec_col)
    rng = np.random.default_rng(seed)
    if len(x) > sample_rows:
        x = x[np.sort(rng.choice(len(x), size=sample_rows, replace=False))]
    cent = x[rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)]
    for _ in range(iters):
        assign = _centroid_dist(x, cent).argmin(1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(0)
    return cent


def _ivf_partial(t: pa.Table, *, cref, k: int, vec_col: str, id_col: str) -> pa.Table:
    cent, q, probe_sets = _cached_broadcast(cref)
    vecs = _list_matrix(t[vec_col], vec_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    cluster = _centroid_dist(vecs, cent).argmin(1)
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True).clip(min=1e-12)
    sims = q @ vn.T
    out_q, out_i, out_s = [], [], []
    for qi, pset in enumerate(probe_sets):
        mask = np.isin(cluster, list(pset))
        if not mask.any():
            continue
        s = sims[qi][mask]
        vid = ids[mask]
        kk = min(k, len(s))
        top = np.argpartition(-s, kk - 1)[:kk]
        out_q.append(np.full(kk, qi, np.int64))
        out_i.append(vid[top])
        out_s.append(s[top])
    if not out_q:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_i)),
            "cosine": pa.array(np.concatenate(out_s), pa.float64()),
        }
    )


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """IVF-style ANN: search only the *nprobe* nearest clusters per query.

    Approximate: recall < 1 when a true neighbor lands in an unprobed
    cluster — the standard IVF tradeoff; brute_force_topk is the oracle.
    *ds* is read once: it is materialized, and centroid training and the
    search pass both read that copy.
    """
    ds = ds.materialize()
    cent = train_centroids(ds, n_clusters, vec_col)
    if not len(cent):
        return _empty_topk(id_col)
    qn = queries.astype(np.float64)
    qn = qn / np.linalg.norm(qn, axis=1, keepdims=True).clip(min=1e-12)
    probed = np.argsort(_centroid_dist(qn, cent), axis=1)[:, :nprobe]  # (Q, nprobe)
    probe_sets = [set(row) for row in probed]
    cref = ray.put((cent, qn, probe_sets))
    partials = ds.map_batches(
        _ivf_partial,
        fn_kwargs=dict(cref=cref, k=k, vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow",
    )
    return _merge_partial_topk(partials, k, id_col)


# ---------------------------------------------------------------------------
# Distributed large-Q ANN: the query side is a DATASET routed to IVF cells
# (round-4 VERDICT #3). brute_force_topk/ivf_topk broadcast the query matrix
# and merge ≤ Q×k rows on the driver — right for interactive Q, wrong when
# the queries ARE the corpus (all-corpus neighbor search at 100 TB). Here
# both sides flow through the engine's hash exchange keyed on the cell id
# (co-partitioned by construction: same int64 values, same bucket count),
# each bucket task matmuls its cells, and the per-query merge is a second
# keyed exchange — the driver only ever sees final rows.
# ---------------------------------------------------------------------------


def _corpus_cell_prep(t: pa.Table, *, cref, vec_col: str, id_col: str) -> pa.Table:
    """Assign each corpus vector to its nearest centroid; ship (cell, id,
    RAW float32 vector) — normalization happens in float64 inside the cell
    kernel, so the exchange stays at input width with no precision loss."""
    if not t.num_rows:
        return pa.table({"__cell": pa.array([], pa.int64()),
                         "__id": t[id_col], "__vec": t[vec_col]})
    cent = _cached_broadcast(cref)
    cell = _centroid_dist(_list_matrix(t[vec_col], vec_col), cent).argmin(1)
    return pa.table({
        "__cell": pa.array(cell.astype(np.int64)),
        "__id": t[id_col],
        "__vec": t[vec_col],
    })


def _query_cell_prep(t: pa.Table, *, cref, nprobe: int, vec_col: str,
                     id_col: str) -> pa.Table:
    """Replicate each query row to its *nprobe* nearest cells."""
    if not t.num_rows:
        return pa.table({"__cell": pa.array([], pa.int64()),
                         "__qid": t[id_col], "__qvec": t[vec_col]})
    cent = _cached_broadcast(cref)
    q = _list_matrix(t[vec_col], vec_col)
    d = _centroid_dist(q, cent)
    npb = min(nprobe, d.shape[1])
    probed = np.argpartition(d, npb - 1, axis=1)[:, :npb]  # (Q, npb)
    idx = np.repeat(np.arange(len(q)), npb)
    return pa.table({
        "__cell": pa.array(probed.ravel().astype(np.int64)),
        "__qid": t[id_col].take(pa.array(idx)),
        "__qvec": t[vec_col].take(pa.array(idx)),
    })


def _cell_topk(ct, qt, *, k: int, exclude_self: bool):
    """One bucket: matmul every cell's queries against its corpus vectors,
    emit each query's LOCAL top-k (≤ probes(bucket) × k rows)."""
    if ct is None or qt is None or not ct.num_rows or not qt.num_rows:
        return None
    c_cell = ct["__cell"].to_numpy(zero_copy_only=False)
    q_cell = qt["__cell"].to_numpy(zero_copy_only=False)
    V = _list_matrix(ct["__vec"], "__vec")
    V /= np.linalg.norm(V, axis=1, keepdims=True).clip(min=1e-12)
    Q = _list_matrix(qt["__qvec"], "__qvec")
    Q /= np.linalg.norm(Q, axis=1, keepdims=True).clip(min=1e-12)
    ids = ct["__id"].to_numpy(zero_copy_only=False)
    qids = qt["__qid"].to_numpy(zero_copy_only=False)
    out_q, out_i, out_s = [], [], []
    for cell in np.intersect1d(np.unique(c_cell), np.unique(q_cell)):
        cm = c_cell == cell
        qm = q_cell == cell
        sims = Q[qm] @ V[cm].T  # (q_cell, v_cell)
        vid = ids[cm]
        qid = qids[qm]
        if exclude_self:
            sims = np.where(qid[:, None] == vid[None, :], -np.inf, sims)
        kk = min(k, sims.shape[1])
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        out_q.append(np.repeat(qid, kk))
        out_i.append(vid[top.ravel()])
        out_s.append(np.take_along_axis(sims, top, axis=1).ravel())
    if not out_q:
        return None
    q_all = np.concatenate(out_q)
    i_all = np.concatenate(out_i)
    s_all = np.concatenate(out_s)
    keep = np.isfinite(s_all)  # drop masked self rows from thin cells
    return pa.table({
        "query_id": pa.array(q_all[keep]),
        "__id": pa.array(i_all[keep]),
        "cosine": pa.array(s_all[keep], pa.float64()),
    })


def corpus_topk(
    corpus: ray.data.Dataset,
    queries: ray.data.Dataset,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_vec_col: str | None = None,
    query_id_col: str | None = None,
    exclude_self: bool = False,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Dataset-vs-Dataset ANN top-k: every row of *queries* searches the
    *nprobe* nearest IVF cells of *corpus*; exact when
    ``nprobe == n_clusters`` (every cell probed — the oracle configuration,
    like :func:`ivf_topk`). ``exclude_self`` drops candidates whose id
    equals the query id (corpus-vs-itself neighbor search).

    Output: ``(query_id, <id_col>, cosine, rank)``, rank 1..k per query,
    ties broken by id ascending. Both sides exchange on ``hash(cell)`` with
    one bucket count, so they co-partition; the per-query merge is a second
    keyed exchange over ≤ Q × nprobe × k partial rows and reuses that count.
    The count is *num_buckets* when given, else ``min(n_clusters,``
    :func:`~pipeflow_ray.stages.core.merge_buckets` ``)`` over both
    materialized sides: neither exchange's output is kept as a partitioning.
    The query side's bytes count *nprobe* times in that count: its split
    emits one row per probed cell. The driver holds only centroids (trained
    on a bounded sample) — never vectors or results. *corpus* and *queries*
    are each read once: both are materialized, centroid training samples the
    corpus copy, and the cell assignments run as the exchanges' split-task
    preps, so no prepared copy of either side is kept."""
    from pipeflow_ray.stages.core import (grouped_by_bucket, hash_exchange, merge_buckets,
                                          reduce_buckets)

    query_vec_col = query_vec_col or vec_col
    query_id_col = query_id_col or id_col
    corpus = corpus.materialize()
    cent = train_centroids(corpus, n_clusters, vec_col)
    if not len(cent):
        return _empty_topk(id_col)
    cref = ray.put(cent)
    queries = queries.materialize()
    # the query prep emits one row per probed cell: size on what the split emits
    nb = num_buckets or min(len(cent), merge_buckets(
        corpus, (queries, min(nprobe, len(cent)))))
    c_buckets = hash_exchange(corpus, ["__cell"], nb, prep=_functools.partial(
        _corpus_cell_prep, cref=cref, vec_col=vec_col, id_col=id_col))
    q_buckets = hash_exchange(queries, ["__cell"], nb, prep=_functools.partial(
        _query_cell_prep, cref=cref, nprobe=nprobe, vec_col=query_vec_col,
        id_col=query_id_col))
    partials = reduce_buckets(_functools.partial(
        _cell_topk, k=k, exclude_self=exclude_self), c_buckets, q_buckets)
    if not partials.num_blocks():
        return _empty_topk(id_col)

    def _final(df):
        df = df.sort_values(["query_id", "cosine", "__id"],
                            ascending=[True, False, True], kind="mergesort")
        out = df.groupby("query_id", sort=False).head(k).copy()
        out["rank"] = (out.groupby("query_id").cumcount() + 1).astype(np.int64)
        return out.rename(columns={"__id": id_col})

    return grouped_by_bucket(partials, ["query_id"], _final, nb, batch_format="pandas")


# ---------------------------------------------------------------------------
# Distributed k-means over the embedding column — INTEGER-EXACT Lloyd's.
# The semantic-clustering primitive (bucket a corpus by embedding for
# semantic dedup / mixture balancing). Floats never accumulate: vectors are
# quantized ONCE to int64 (floor(v * scale)), every distance is an exact
# int64 sum of squares, and each new centroid is the element-wise FLOOR
# DIVISION of exact integer sums — so assignments are bit-reproducible
# across engines, block layouts, summation orders, and retries, and the
# whole algorithm is SQL-replicable for the oracle gate.
# ---------------------------------------------------------------------------


def _quantize(t: pa.Table, vec_col: str, scale: int) -> np.ndarray:
    return np.floor(_list_matrix(t[vec_col], vec_col) * float(scale)).astype(np.int64)


def _assign_int(x: np.ndarray, cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 squared distances; argmin ties → lowest cluster id (numpy
    first-occurrence, same as SQL ``ORDER BY dist2, cluster``)."""
    n, k = len(x), len(cent)
    d = np.empty((n, k), dtype=np.int64)
    for j in range(k):  # k is small; avoids the (n, k, d) broadcast temp
        diff = x - cent[j]
        d[:, j] = np.einsum("ij,ij->i", diff, diff)
    best = d.argmin(axis=1)
    return best, d[np.arange(n), best]


def _kmeans_partial(t: pa.Table, *, cref, scale: int, vec_col: str) -> pa.Table:
    """Per-batch partial sums for one Lloyd iteration: (cluster, dim, s, n)
    rows — k×d ints per batch, merged by partial_aggregate's combiner tree."""
    cent = _cached_broadcast(cref)
    k, dd = cent.shape
    if not t.num_rows:
        return pa.table({"cluster": pa.array([], pa.int64()),
                         "dim": pa.array([], pa.int64()),
                         "s": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    x = _quantize(t, vec_col, scale)
    best, _ = _assign_int(x, cent)
    sums = np.zeros((k, dd), dtype=np.int64)
    np.add.at(sums, best, x)
    counts = np.bincount(best, minlength=k).astype(np.int64)
    cl = np.repeat(np.arange(k, dtype=np.int64), dd)
    dim = np.tile(np.arange(1, dd + 1, dtype=np.int64), k)  # 1-based like SQL
    return pa.table({"cluster": pa.array(cl), "dim": pa.array(dim),
                     "s": pa.array(sums.ravel()),
                     "n": pa.array(np.repeat(counts, dd))})


def _kmeans_assign(t: pa.Table, *, cref, scale: int, vec_col: str,
                   id_col: str) -> pa.Table:
    cent = _cached_broadcast(cref)
    if not t.num_rows:
        return pa.table({id_col: t[id_col].cast(pa.int64()),
                         "cluster": pa.array([], pa.int64()),
                         "dist2": pa.array([], pa.int64())})
    x = _quantize(t, vec_col, scale)
    best, d2 = _assign_int(x, cent)
    return pa.table({id_col: t[id_col].cast(pa.int64()),
                     "cluster": pa.array(best.astype(np.int64)),
                     "dist2": pa.array(d2)})


def kmeans_assignments(
    ds: ray.data.Dataset,
    k: int = 8,
    iters: int = 3,
    scale: int = 1_000_000,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    init: np.ndarray | None = None,
    cache: bool = True,
) -> ray.data.Dataset:
    """Lloyd's k-means over an embedding Dataset → ``(id, cluster, dist2)``.

    *init*: (k, d) float matrix of seed centroids; default = the vectors with
    ``id_col < k`` (deterministic). Each iteration is one ``map_batches``
    pass emitting k×d integer partial rows per batch + a
    :func:`partial_aggregate` tree merge; the driver holds only the k×d
    centroid matrix (broadcast per iteration via ``ray.put``). An empty
    cluster keeps its previous centroid. ``cache=True`` materializes the
    input once so the iters+1 passes skip re-reading/decoding parquet —
    at cluster scale the object store spills it; set False to re-read.

    dist2 = Σ_dim (floor(v·scale) − centroid)² — exact int64 (unit-norm-ish
    embeddings at scale 1e6 need d ≤ ~500 for headroom; values up to ±100
    still fit at d = 64)."""
    from pipeflow_ray.stages.window import partial_aggregate

    ds, cent = _kmeans_train(ds, k, iters, scale, vec_col, id_col, init, cache)
    if cent is None:
        return ray.data.from_arrow(pa.schema([
            (id_col, pa.int64()), ("cluster", pa.int64()), ("dist2", pa.int64()),
        ]).empty_table())
    cref = ray.put(cent)
    return ds.map_batches(
        _kmeans_assign,
        fn_kwargs=dict(cref=cref, scale=scale, vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow")


def _kmeans_train(ds, k, iters, scale, vec_col, id_col, init, cache):
    """Run the Lloyd iterations; return (possibly-materialized ds, final
    int64 centroid matrix), or (ds, None) when *init* is not given and the
    corpus has no rows."""
    from pipeflow_ray.stages.window import partial_aggregate

    if cache:
        ds = ds.materialize()
    if init is None:
        def _seed_rows(t: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc
            return t.filter(_pc.less(t[id_col], k))

        seeds = _collect_arrow(ds.map_batches(_seed_rows, batch_format="pyarrow"))
        if not seeds.num_rows:
            if ds.count():
                raise ValueError(f"no seed rows with {id_col} < {k}; pass init=")
            return ds, None
        init = _list_matrix(seeds.sort_by(id_col)[vec_col], vec_col)
    cent = np.floor(init.astype(np.float64) * float(scale)).astype(np.int64)

    for _ in range(iters):
        cref = ray.put(cent)
        partials = ds.map_batches(
            _kmeans_partial, fn_kwargs=dict(cref=cref, scale=scale, vec_col=vec_col),
            batch_format="pyarrow")
        agg = partial_aggregate(
            partials, ["cluster", "dim"], {"s": ("sum", "s"), "n": ("sum", "n")}
        ).to_pandas()  # exactly k×d tiny rows
        nxt = cent.copy()
        agg = agg.sort_values(["cluster", "dim"])
        cl = agg.cluster.to_numpy(np.int64)
        dim = agg.dim.to_numpy(np.int64) - 1
        s = agg.s.to_numpy(np.int64)
        n = agg.n.to_numpy(np.int64)
        nz = n > 0
        nxt[cl[nz], dim[nz]] = np.floor_divide(s[nz], n[nz])
        cent = nxt
    return ds, cent


# ---------------------------------------------------------------------------
# SemDeDup-style semantic dedup (Abbas et al. 2023): k-means buckets the
# corpus by embedding, then EXACT pair search runs within each cluster only —
# the cluster structure is the candidate filter (vs. hyperplane-LSH
# bucketing in dedup.embedding_neardup_pairs). Pair identity is the exact
# int64 squared distance on the quantized vectors, so results are
# bit-reproducible and SQL-replayable; by design pairs split across
# clusters are not candidates (the published method's recall tradeoff).
# ---------------------------------------------------------------------------


def _sem_prep(t: pa.Table, *, cref, scale: int, vec_col: str, id_col: str) -> pa.Table:
    cent = _cached_broadcast(cref)
    if not t.num_rows:
        return pa.table({"__cluster": pa.array([], pa.int64()),
                         "__id": t[id_col].cast(pa.int64()), "__vec": t[vec_col]})
    x = _quantize(t, vec_col, scale)
    best, _ = _assign_int(x, cent)
    return pa.table({"__cluster": pa.array(best.astype(np.int64)),
                     "__id": t[id_col].cast(pa.int64()), "__vec": t[vec_col]})


def _sem_pairs(tau2: int, scale: int):
    """Per-bucket kernel: for each cluster in the bucket, exact pairwise
    int64 distances via the dot identity |a|²+|b|²−2a·b (all terms bounded:
    |x| ≤ scale ⇒ a·b ≤ d·scale² ≈ 6.4e13 at d=64). O(n_c²·d) per cluster —
    the k choice bounds n_c (SemDeDup's contract: k grows with the corpus)."""

    def _fn(t: pa.Table) -> pa.Table:
        cl = t["__cluster"].to_numpy(zero_copy_only=False)
        ids = t["__id"].to_numpy(zero_copy_only=False)
        out_a, out_b, out_d = [], [], []
        for c in np.unique(cl):
            m = cl == c
            if m.sum() < 2:
                continue
            x = np.floor(_list_matrix(t.filter(pa.array(m))["__vec"], "__vec")
                         * float(scale)).astype(np.int64)
            cid = ids[m]
            g = x @ x.T
            nn = np.diag(g)
            d2 = nn[:, None] + nn[None, :] - 2 * g
            iu = np.triu_indices(len(cid), 1)
            keep = d2[iu] <= tau2
            a, b = cid[iu[0][keep]], cid[iu[1][keep]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            out_a.append(lo)
            out_b.append(hi)
            out_d.append(d2[iu][keep])
        if not out_a:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "dist2": pa.array([], pa.int64())})
        return pa.table({"id_a": pa.array(np.concatenate(out_a)),
                         "id_b": pa.array(np.concatenate(out_b)),
                         "dist2": pa.array(np.concatenate(out_d))})

    return _fn


def _knn_partial(t: pa.Table, *, qref, k: int, scale: int, vec_col: str,
                 id_col: str) -> pa.Table:
    """Per-batch partial k-NN under EXACT int64 squared distance: this
    batch's vectors are candidate neighbors for every (broadcast) query;
    emit each query's local top-k. Self-pairs are dropped (classification
    must not vote with the query's own label)."""
    qids, qx = _cached_broadcast(qref)  # (Q,), (Q, d) int64
    if not t.num_rows:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "nbr_id": pa.array([], pa.int64()),
                         "dist2": pa.array([], pa.int64())})
    x = _quantize(t, vec_col, scale)
    ids = t[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    # candidate columns ascending by id, so the STABLE argsort below breaks
    # distance ties by id — the partial is layout-invariant (a tie at the
    # local k-th boundary must keep the lowest id, same as the merge rule)
    o = np.argsort(ids, kind="stable")
    x, ids = x[o], ids[o]
    # (Q, B) exact distances via the dot identity
    g = qx @ x.T
    qn = np.einsum("ij,ij->i", qx, qx)
    xn = np.einsum("ij,ij->i", x, x)
    d2 = qn[:, None] + xn[None, :] - 2 * g
    self_mask = qids[:, None] == ids[None, :]
    d2 = np.where(self_mask, np.iinfo(np.int64).max, d2)
    kk = min(k, d2.shape[1])
    top = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    out_q = np.repeat(qids, kk)
    out_i = ids[top.ravel()]
    out_d = np.take_along_axis(d2, top, axis=1).ravel()
    keep = out_d != np.iinfo(np.int64).max  # masked self rows in thin batches
    return pa.table({"query_id": pa.array(out_q[keep]),
                     "nbr_id": pa.array(out_i[keep]),
                     "dist2": pa.array(out_d[keep])})


def knn_classify(
    ds: ray.data.Dataset,
    k: int = 5,
    scale: int = 1_000_000,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    label_col: str = "label",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Leave-one-out k-NN classification over an embedding table: each
    vector is labeled by the majority label of its k nearest OTHER vectors
    under the EXACT integer squared distance (quantized, like
    :func:`kmeans_assignments` — bit-reproducible, no float ties). Neighbor
    ties at the k-th distance break by id ascending; vote ties break by
    smallest label.

    Shape: the (id, quantized-vector) query matrix is broadcast once; each
    corpus batch emits its local top-k per query (≤ Q×k int rows); a
    query-keyed exchange merges partials and votes. The broadcast is O(n·d)
    ints — the brute-force baseline; for corpus-scale n route both sides
    through IVF cells (:func:`corpus_topk`) instead."""
    from pipeflow_ray.functions.dedup import _stable_empty
    from pipeflow_ray.stages.core import grouped_by_bucket

    side = _collect_arrow(ds.map_batches(
        lambda t: t.select([id_col, vec_col, label_col]), batch_format="pyarrow"
    ))
    schema = pa.schema([
        (id_col, pa.int64()), ("pred_label", pa.int64()), ("n_votes", pa.int64()),
    ])
    if not side.num_rows:
        return ray.data.from_arrow(schema.empty_table())
    side = side.sort_by(id_col)
    qids = side[id_col].to_numpy().astype(np.int64)
    qx = np.floor(_list_matrix(side[vec_col], vec_col) * float(scale)).astype(np.int64)
    labels = dict(zip(side[id_col].to_pylist(), side[label_col].to_pylist()))
    qref = ray.put((qids, qx))
    lref = ray.put(labels)

    partials = ds.map_batches(
        _knn_partial,
        fn_kwargs=dict(qref=qref, k=k, scale=scale, vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow")

    def _vote(df: pd.DataFrame) -> pd.DataFrame:
        lab = _cached_broadcast(lref)
        df = df.sort_values(["query_id", "dist2", "nbr_id"], kind="mergesort")
        top = df.groupby("query_id", sort=False).head(k).copy()
        top["nbr_label"] = top.nbr_id.map(lab)
        votes = (top.groupby(["query_id", "nbr_label"], sort=False).size()
                 .reset_index(name="n_votes"))
        votes = votes.sort_values(["query_id", "n_votes", "nbr_label"],
                                  ascending=[True, False, True], kind="mergesort")
        best = votes.groupby("query_id", sort=False).head(1)
        return pd.DataFrame({
            id_col: best.query_id.to_numpy(np.int64),
            "pred_label": best.nbr_label.to_numpy(np.int64),
            "n_votes": best.n_votes.to_numpy(np.int64),
        })

    out = grouped_by_bucket(partials, ["query_id"], _vote, num_buckets,
                            batch_format="pandas")
    return _stable_empty(out, schema)


def semantic_dedup_pairs(
    ds: ray.data.Dataset,
    k: int = 8,
    iters: int = 3,
    tau2: int = 10**12,
    scale: int = 1_000_000,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    init: np.ndarray | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Semantic near-dup pairs: ``(id_a, id_b, dist2)`` with ``id_a < id_b``,
    both vectors in the same k-means cluster and exact quantized squared
    distance ≤ *tau2*. One kmeans train (iters passes of tiny int partials),
    one cluster-keyed exchange of (cluster, id, raw vector), per-bucket exact
    pair search. The driver holds only the k×d centroid matrix."""
    from pipeflow_ray.functions.dedup import _stable_empty
    from pipeflow_ray.stages.core import grouped_by_bucket

    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("dist2", pa.int64())])
    ds, cent = _kmeans_train(ds, k, iters, scale, vec_col, id_col, init, True)
    if cent is None:
        return ray.data.from_arrow(schema.empty_table())
    cref = ray.put(cent)
    out = grouped_by_bucket(ds, ["__cluster"], _sem_pairs(tau2, scale),
                            num_buckets, batch_format="pyarrow",
                            prep=_functools.partial(_sem_prep, cref=cref, scale=scale,
                                                    vec_col=vec_col, id_col=id_col))
    return _stable_empty(out, schema)
