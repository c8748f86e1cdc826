"""Core stateless batch-level operators.

The reference implements these as lazy ``IEnumerable`` closures applied per
row (``PipeFlow/Pipeline.cs:25-102``). Here every operator is a vectorized
Arrow-batch transform used inside ``Dataset.map_batches(...,
batch_format="pyarrow")`` — no Python-per-row work on the hot path.
"""

from __future__ import annotations

import bisect
import functools as _functools
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray


PredicateLike = "pads.Expression | Callable[[pa.Table], pa.ChunkedArray | pa.Array | np.ndarray]"


@_functools.lru_cache(maxsize=16)
def cached_broadcast(ref: "ray.ObjectRef"):
    """One plasma fetch per worker process per broadcast object. Lets a
    light-state stage stay a STATELESS map_batches fn over Ray Data's warm
    task pool instead of spawning a per-query actor pool (~1 s of process
    spawn per call); ObjectRefs are hashable, and the cache pins at most 16
    small payloads (lookup tables, query matrices) per worker."""
    return ray.get(ref)


def filter_batches(predicate) -> Callable[[pa.Table], pa.Table]:
    """Batch filter (reference ``Filter``/``Where``, ``Pipeline.cs:25-37``).

    *predicate* is either a ``pyarrow.dataset`` expression
    (``pc.field("Age") > 25`` — pushdown-friendly) or a callable
    ``table → boolean mask``.
    """
    if isinstance(predicate, pads.Expression):
        return lambda t: t.filter(predicate)

    def _apply(t: pa.Table) -> pa.Table:
        mask = predicate(t)
        return t.filter(mask)

    return _apply


def content_hash_column(
    table: pa.Table, cols: list[str] | None = None, out: str = "__h"
) -> pa.Table:
    """Append a vectorized 64-bit content hash of *cols* (default: all columns).

    Used to turn whole-row identity (the reference's ``Distinct()`` over
    ``IEquatable`` rows, ``Pipeline.cs:80-84``) into a single cheap shuffle
    key.
    """
    cols = cols or table.column_names
    df = table.select(cols).to_pandas(types_mapper=None)
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()  # uint64, vectorized
    return table.append_column(out, pa.array(h.view(np.int64), type=pa.int64()))


def local_distinct(cols: list[str] | None = None) -> Callable[[pa.Table], pa.Table]:
    """Per-batch pre-dedup (combiner) that shrinks the shuffle before the
    global dedup — the partial-aggregation pattern."""

    def _apply(t: pa.Table) -> pa.Table:
        keys = cols or t.column_names
        return t.group_by(keys, use_threads=False).aggregate([])

    return _apply


def first_rows_per_group(
    table: pa.Table, key_cols: list[str], order_cols: list[str]
) -> pa.Table:
    """Within one Arrow table, keep the first row per *key_cols* under
    *order_cols* ordering — vectorized (sort + unique-index take).

    Ray blocks are unordered, so "first occurrence" must be anchored to an
    explicit sort key (vs the reference's encounter-order ``HashSet`` closure,
    ``PipeFlow/PipeFlow.cs:218-232``, which is racy under PLINQ).
    """
    sort_keys = [(c, "ascending") for c in order_cols + [k for k in key_cols if k not in order_cols]]
    idx = pc.sort_indices(table, sort_keys=sort_keys)
    t = table.take(idx)
    df = t.select(key_cols).to_pandas()
    keep = ~df.duplicated(keep="first").to_numpy()
    return t.filter(pa.array(keep))


DEFAULT_BUCKETS = 64  # floor; see default_buckets()


def default_buckets() -> int:
    """Bucket count for keyed exchanges: ~2× total cluster cores with a floor
    of DEFAULT_BUCKETS. The floor keeps the PLAN identical across small
    parallelism levels (the scaling bench compares 2- vs 8-cpu sessions on the
    same 64-bucket plan); on a real 256-node cluster (1000s of cores) the
    2×-cores term takes over so reduce tasks keep all workers busy."""
    return max(DEFAULT_BUCKETS, 2 * _session_cpus())


def _session_cpus() -> int:
    try:
        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 0))
    except Exception:  # pragma: no cover - resource query race at shutdown
        pass
    return 0


def merge_buckets(*datasets) -> int:
    """Bucket count for a keyed exchange whose output is only merged, never
    kept as a partitioning: ``max(2 × session CPUs, ⌈emitted bytes /
    DataContext.target_max_block_size⌉)``.

    Every bucket costs fixed work whatever its size (split slices, a reduce
    task, a row count, block metadata): about 5 ms per bucket per exchange
    at 4 slots, so :func:`default_buckets`' floor of 64 dominates small
    inputs. 2 × CPUs keeps every worker busy; the byte term keeps each
    reduce input at Ray Data's own block target on large inputs. Each
    argument is a materialized dataset, or a ``(dataset, copies)`` pair for
    an exchange whose split ``prep`` emits *copies* rows per input row (the
    near-dup LSH tables, the query probes): the byte term counts what the
    split emits, not what it reads. Sizes come from block metadata, nothing
    is fetched or executed."""
    from ray.data import DataContext
    from ray.data.dataset import MaterializedDataset

    nbytes = 0
    for arg in datasets:
        ds, copies = arg if isinstance(arg, tuple) else (arg, 1)
        if not isinstance(ds, MaterializedDataset):
            raise TypeError("merge_buckets sizes materialized datasets only; "
                            f"got {type(ds).__name__}")
        nbytes += copies * (ds.size_bytes() or 0)
    target = DataContext.get_current().target_max_block_size
    by_bytes = -(-nbytes // target) if target else 0
    return max(1, 2 * _session_cpus(), by_bytes)


def bucket_ids(t: pa.Table, key_cols: list[str], num_buckets: int) -> np.ndarray:
    """The bucket of each row of *t*: ``hash(key) % num_buckets`` over the
    VALUES of *key_cols* (``pd.util.hash_pandas_object``, names ignored).
    The one key→bucket rule: the exchange's split tasks route by it, and the
    exactly-once sink's partition ids are these bucket ids.

    A single string key column is hashed once per DISTINCT value: Arrow
    dictionary-encodes it, the dictionary plus one null row goes through the
    same one-column ``hash_pandas_object`` call, and the rows gather their
    hash by index (a null row gathers the null row's). The hash is
    elementwise, so the ids are bit-identical to hashing every row."""
    if len(key_cols) == 1:
        col = t.column(key_cols[0])
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            return _string_hashes(col) % num_buckets
    df = t.select(key_cols).to_pandas()
    return pd.util.hash_pandas_object(df, index=False).to_numpy() % num_buckets


def _string_hashes(col: pa.ChunkedArray) -> np.ndarray:
    if not len(col):
        return np.empty(0, np.uint64)
    enc = pc.dictionary_encode(col).unify_dictionaries()
    d = enc.chunk(0).dictionary
    values = np.empty(len(d) + 1, dtype=object)
    values[:-1] = d.to_numpy(zero_copy_only=False)
    values[-1] = None
    h = pd.util.hash_pandas_object(pd.DataFrame({"k": values}), index=False).to_numpy()
    idx = pa.chunked_array([c.indices for c in enc.chunks]).fill_null(len(d))
    return h[idx.to_numpy()]


def reduce_group_edges(num_buckets: int) -> tuple:
    """The bucket edges of a *num_buckets* exchange's reduce groups:
    G = min(num_buckets, 2 × session CPUs) contiguous bucket ranges, group
    ``g`` holding buckets ``edges[g] <= b < edges[g + 1]``. The CPU term is
    :func:`merge_buckets`' own, so G reduce tasks keep every worker busy,
    and every bucket beyond G costs a slice and a function call inside a
    task instead of a task, an object per split task and a row count. At
    cluster scale (2 × CPUs ≥ buckets) every group is one bucket. Two
    exchanges reduced together must see the same CPU count: a cluster that
    resizes between them gives them different groups, and
    :func:`reduce_buckets` refuses the pair."""
    g = max(1, min(num_buckets, 2 * _session_cpus()))
    return tuple(i * num_buckets // g for i in range(g + 1))


# ---------------------------------------------------------------------------
# Module-level remote tasks for the exchange. These MUST be defined once at
# import time, never per invocation: a fresh ``@ray.remote`` closure per call
# re-exports a same-qualname function dozens of times in a long session, and a
# worker that resolves the export against a stale cached version runs the UDF
# with the WRONG captured key_cols (observed as the round-1 driver-only
# ``KeyError: 'user_id'`` in asof_join_events, CORRECTNESS_r01). All per-call
# parameters travel as explicit task arguments instead.
# ---------------------------------------------------------------------------


def _block_table(b) -> pa.Table:
    """A block as an Arrow table. Ray's pandas ``to_arrow`` turns every
    all-null column into ``null`` type, and every column of a zero-row frame
    is all-null, so a zero-row frame converts here with its dtypes kept."""
    if isinstance(b, pd.DataFrame) and not len(b):
        return pa.Table.from_pandas(b, preserve_index=False)
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(b).to_arrow()


@ray.remote
def _split_level_task(key_cols: list[str], num_buckets: int, fanout: int,
                      edges: tuple | None, prep, *blocks):
    """Split one or more blocks by key hash. The final bucket of a row is
    ``b = hash(key) % num_buckets``. With *edges* (the final level), the
    rows are sorted by ``b`` and the task returns one object per reduce
    group ``edges[g] <= b < edges[g + 1]`` (num_returns = len(edges) − 1):
    ``(rows, offsets)``, the group's rows as one zero-copy slice and the
    row offsets of each of its buckets (``offsets[j]:offsets[j + 1]`` is
    bucket ``edges[g] + j``, see :func:`_bucket_slices`). Without *edges*
    (level 0 of the two-level exchange) it returns plain slices by
    ``b // fanout`` (num_returns = ⌈num_buckets/fanout⌉), which a final-level
    task per range then splits on the SAME full hash, so the two rounds
    compose into the flat partition.

    Accepts SEVERAL upstream blocks so tiny-block datasets (default reads,
    post-materialize splits) cost one split task per ~num_buckets blocks, not
    one per block — 190 blocks × 64 slices of per-object overhead measured
    ~2× the whole exchange wall at sf0.1. Blocks come in whatever format
    their producer made (pandas from ``from_pandas_refs`` or a pandas UDF)
    and turn into Arrow here (:func:`_block_table`), a no-op for Arrow
    blocks.

    *prep* (``pa.Table -> pa.Table`` or None) runs once over the task's
    blocks before the hash, so a per-block preparation crosses the object
    store only as the exchange's own slices (see :func:`hash_exchange`)."""
    tbls = [_block_table(b) for b in blocks]
    nonempty = [t for t in tbls if t.num_rows]
    if nonempty:
        tbl = nonempty[0] if len(nonempty) == 1 else pa.concat_tables(
            nonempty, promote_options="default")
    else:
        # empty blocks can carry an unstable schema (e.g. after a built-in
        # join); never try to select key columns from them
        tbl = max(tbls, key=lambda t: t.num_columns)
    if prep is not None:
        tbl = prep(tbl)
    b = (bucket_ids(tbl, key_cols, num_buckets).astype(np.int64) if tbl.num_rows
         else np.empty(0, np.int64))
    key = b if edges is not None else b // fanout
    order = np.argsort(key, kind="stable")
    t = tbl.take(pa.array(order))
    xs = key[order]
    if edges is None:
        bounds = np.searchsorted(xs, np.arange(-(-num_buckets // fanout) + 1))
        out = tuple(t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:]))
    else:
        bounds = np.searchsorted(xs, np.arange(edges[0], edges[-1] + 1))
        out = tuple(
            (t.slice(o[0], o[-1] - o[0]), o - o[0])
            for o in (bounds[lo - edges[0]:hi - edges[0] + 1]
                      for lo, hi in zip(edges[:-1], edges[1:])))
    return out if len(out) > 1 else out[0]


def _bucket_slices(objs, j: int) -> list:
    """Bucket ``j`` of a reduce group (``j`` counted from the group's first
    bucket) as one zero-copy slice per group object: the rows one split
    task routed there, a zero-row slice with the full schema if none."""
    return [t.slice(o[j], o[j + 1] - o[j]) for t, o in objs]


def _side_table(slices):
    """One side of a bucket for *fn*: the concat of its non-empty slices,
    else its widest zero-row slice (an empty slice keeps the side's
    schema), else None for a side with no blocks."""
    rows = [t for t in slices if t.num_rows]
    if rows:
        return pa.concat_tables(rows, promote_options="default")
    return max(slices, key=lambda t: t.num_columns) if slices else None


@ray.remote
def _reduce_task(fn, sizes: tuple, *slices):
    """Reduce one group of buckets of one or more co-partitioned exchanges.
    *slices* holds each side's ``sizes[i]`` group objects in turn (refs must
    be top-level task arguments for Ray to resolve them). *fn* runs once per
    bucket of the group, with one table per side (:func:`_side_table`); a
    bucket with no rows on any side is skipped. Returns one output per
    bucket (a ``pa.Table`` or None), so a reduce output block stays one
    bucket, and then the list of their row counts.

    The task holds its whole group's slices at once: about
    ``num_buckets / G`` buckets (:func:`reduce_group_edges`)."""
    sides, at = [], 0
    for n in sizes:
        sides.append(slices[at:at + n])
        at += n
    n_buckets = len(next(o for side in sides for _, o in side)) - 1
    outs = []
    for j in range(n_buckets):
        tables = [_side_table(_bucket_slices(side, j)) for side in sides]
        if any(t is not None and t.num_rows for t in tables):
            outs.append(fn(*tables))
        else:
            outs.append(None)
    return (*outs, [0 if t is None else t.num_rows for t in outs])


def reduce_buckets(fn, *sides):
    """Reduce the buckets of one or more :func:`hash_exchange` results with
    the same reduce groups (else ``ValueError``): one :func:`_reduce_task`
    per group calls *fn* once per bucket with one Arrow table per side (or
    None, see there), each call returning a ``pa.Table`` or None. *fn* is
    shipped once (``ray.put``).

    The one place a bucket reduce starts. The result is a lazy Dataset over
    the non-empty outputs, one block per bucket (the row counts come back
    with the outputs, nothing else is fetched to the driver), or
    ``from_items([])`` when no bucket emits rows."""
    import ray.data as _rd

    edges = sides[0].edges
    if any(s.edges != edges for s in sides):
        raise ValueError("reduce_buckets needs co-partitioned sides with the same "
                         f"reduce groups; got edges {[s.edges for s in sides]}")
    fn_ref = ray.put(fn)
    outs = []
    for g, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        objs = [s.groups[g] for s in sides]
        if any(objs):
            outs.append(_reduce_task.options(num_returns=hi - lo + 1).remote(
                fn_ref, tuple(len(o) for o in objs), *[r for o in objs for r in o]))
    counts = ray.get([o[-1] for o in outs])
    refs = [r for o, c in zip(outs, counts) for r, n in zip(o, c) if n > 0]
    return _rd.from_arrow_refs(refs) if refs else _rd.from_items([])


def _on_pandas(fn, t: pa.Table) -> pa.Table:
    return pa.Table.from_pandas(fn(t.to_pandas()), preserve_index=False)


def grouped_by_bucket(
    ds,
    key_cols: list[str],
    fn,
    num_buckets: int | None = None,
    batch_format: str = "pandas",
    prep=None,
):
    """Keyed grouped processing WITHOUT per-key Python overhead.

    ``groupby(key).map_groups`` invokes the UDF once per key — death by a
    thousand calls when keys are numerous and small (3.7k conversations ≈
    3.7k pandas constructions). Instead we co-locate keys by hash bucket and
    hand the UDF a whole bucket: *fn* must be key-aware (vectorized over
    multiple keys — sort by key, segment by boundaries), and in exchange runs
    ~B times total. B = :func:`default_buckets` unless overridden.

    The all-to-all is :func:`hash_exchange` (raw-Ray map-side split — no
    sort barrier), reduced by :func:`reduce_buckets`. The upstream plan
    executes at this point (a shuffle is a stage barrier); the result is a
    new lazy Dataset over the reduce outputs, with empty buckets left out.

    *prep* (``pa.Table -> pa.Table``) prepares the rows before they are
    keyed, inside the exchange's split tasks (see :func:`hash_exchange`).
    """
    if num_buckets is None:
        num_buckets = default_buckets()
    if batch_format == "pandas":
        fn = _functools.partial(_on_pandas, fn)
    return reduce_buckets(fn, hash_exchange(ds, key_cols, num_buckets, prep=prep))


MAX_FLAT_BUCKETS = 4096  # beyond this, slice-object count (tasks × buckets)
# outgrows Ray's comfortable range — switch to the two-level exchange


class KeyedBuckets:
    """A completed :func:`hash_exchange`: ``groups[g]`` holds the refs of
    reduce group ``g``'s objects, one per final split task, for the buckets
    ``edges[g] <= b < edges[g + 1]`` (:func:`reduce_group_edges`; an input
    with no blocks leaves every group empty). :func:`reduce_buckets` and
    the exactly-once sink consume the groups; :meth:`bucket` reads one
    bucket.

    A chained stage keyed on the SAME values may pass this handle instead
    of a Dataset and consume the existing refs — the re-exchange disappears
    (round-3 VERDICT #5). Co-partitioning depends only on
    ``hash(values) % num_buckets`` (``pd.util.hash_pandas_object`` hashes
    values, not column names), so the consuming stage may address the key
    under a different column name; dtype and bucket count must match."""

    __slots__ = ("groups", "edges", "key_cols", "num_buckets")

    def __init__(self, groups: list, edges: tuple, key_cols: list[str]):
        self.groups = groups
        self.edges = tuple(edges)
        self.key_cols = list(key_cols)
        self.num_buckets = self.edges[-1]

    def bucket(self, j: int) -> list:
        """Bucket ``j`` as one ``pa.Table`` slice per split task that fed its
        group (empty slices included; ``[]`` for an input with no blocks).
        Fetches the whole group to the caller: for tests and small reads."""
        g = bisect.bisect_right(self.edges, j) - 1
        return _bucket_slices(ray.get(self.groups[g]), j - self.edges[g])


def block_refs(ds) -> list:
    """The block refs of *ds* from ONE run of its plan; a
    ``MaterializedDataset`` already holds its blocks and runs nothing. A
    block keeps the format its producer gave it (pandas from
    ``from_pandas_refs`` or a pandas UDF): read it through
    :func:`_block_table` where Arrow is needed.

    Not ``Dataset.to_arrow_refs``: in Ray 2.49 that call runs the plan,
    then asks for the schema, and a lazy plan ending in a UDF has none
    cached, so the schema call runs the plan a SECOND time up to its first
    block and then cancels that run's in-flight tasks."""
    return [ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs]


def hash_exchange(ds, key_cols: list[str], num_buckets: int | None = None,
                  max_flat_buckets: int = MAX_FLAT_BUCKETS, prep=None) -> KeyedBuckets:
    """Explicit map-side hash exchange built on raw Ray tasks: each split
    task sorts its rows once by key hash (stable argsort) and returns one
    object per reduce group, its rows plus each bucket's row offsets; the
    caller reduces each group from its scattered objects. The upstream
    plan runs exactly once, here (:func:`block_refs`); its blocks may be
    Arrow or pandas, and the split task turns them into Arrow, so every
    bucket slice is a ``pa.Table``.

    This is the engine's keyed all-to-all when no sort order is needed —
    measured ~2× faster end-to-end than ``groupby(bucket).map_groups`` (Ray's
    sort-based shuffle) on the flagship, and it scales with workers because
    there is no global sort barrier: splits are embarrassingly parallel and
    each reduce starts as soon as its group's objects exist. Grouping the
    buckets (:func:`reduce_group_edges`) keeps the object count at split
    tasks × G, not × buckets: per-bucket slices of a small input fall under
    Ray's 100 KB inline threshold and travel through the driver. Dataset-API
    escape hatch per SURVEY §2 custom-operator rule (c): the Dataset API
    cannot express a keyed exchange without its sort machinery.

    Returns a :class:`KeyedBuckets`, for :func:`reduce_buckets` or the
    exactly-once sink. Two exchanges with the same *num_buckets* in one
    session get the same reduce groups.

    *prep* (``pa.Table -> pa.Table``, shipped once with ``ray.put``) runs
    inside each split task over its blocks before they are hashed, so
    *key_cols* may be columns that *prep* adds; it must accept an empty
    table and keep its output schema there. Running a per-block vector prep
    here instead of as a ``map_batches(prep).materialize()`` stage writes no
    prepared copy to the object store: the slices are the only copy. In
    the two-level exchange it runs at level 0 only.

    A :class:`KeyedBuckets` handle passes straight through (same-key reuse):
    it is returned with NO new exchange, after a bucket count check; its
    rows are already split, so a *prep* raises.
    """
    if isinstance(ds, KeyedBuckets):
        if prep is not None:
            raise ValueError("a KeyedBuckets handle is already split; "
                             "it cannot take a split-task prep")
        if num_buckets is not None and num_buckets != ds.num_buckets:
            raise ValueError(
                f"KeyedBuckets has {ds.num_buckets} buckets; stage wants {num_buckets}"
            )
        if len(key_cols) != len(ds.key_cols):
            raise ValueError(
                f"KeyedBuckets was partitioned on {len(ds.key_cols)} key "
                f"column(s) {ds.key_cols}; stage keys on {len(key_cols)} "
                f"({key_cols}). Co-partitioning holds only for the same "
                "number of key columns hashing the same VALUES."
            )
        # NOTE (documented contract, ADVICE r4): beyond arity, value/dtype
        # identity is the CALLER's responsibility — the handle is valid for a
        # consumer keying the same values under a different column name
        # (hash_pandas_object hashes values, not names), but different values
        # or a different dtype would silently mis-partition.
        return ds
    if num_buckets is None:
        num_buckets = default_buckets()
    refs = block_refs(ds)  # runs the plan, so Ray is up before its CPUs are read
    edges = reduce_group_edges(num_buckets)
    n_groups = len(edges) - 1
    groups: list[list] = [[] for _ in range(n_groups)]
    if not refs:
        return KeyedBuckets(groups, edges, key_cols)
    # coalesce tiny upstream blocks: bounded split-task count, each task
    # handling a contiguous run of blocks (refs resolve to values inside
    # the task; top-level varargs, per the Ray ref-resolution rule)
    n_tasks = min(len(refs), min(num_buckets, max_flat_buckets))
    runs = [list(r) for r in np.array_split(np.array(refs, dtype=object), n_tasks)]
    prep_ref = None if prep is None else ray.put(prep)  # once, not once per task

    if num_buckets <= max_flat_buckets:
        for run in runs:
            objs = _split_level_task.options(num_returns=n_groups).remote(
                key_cols, num_buckets, 0, edges, prep_ref, *run)
            for g, ref in enumerate(objs if n_groups > 1 else [objs]):
                groups[g].append(ref)
        return KeyedBuckets(groups, edges, key_cols)

    # hierarchical two-level exchange (the >4k-bucket cluster path): route by
    # bucket range first, then one final-level task per range emits the group
    # objects of the reduce groups it overlaps — object count drops from
    # tasks × groups to tasks × √buckets + ranges × groups per range.
    import math

    fanout = max(2, int(math.isqrt(num_buckets)))
    n_ranges = (num_buckets + fanout - 1) // fanout
    level0 = [
        _split_level_task.options(num_returns=n_ranges).remote(
            key_cols, num_buckets, fanout, None, prep_ref, *run)
        for run in runs
    ]
    level0 = [p if n_ranges > 1 else [p] for p in level0]
    for r in range(n_ranges):
        lo, hi = r * fanout, min((r + 1) * fanout, num_buckets)
        g0, g1 = bisect.bisect_right(edges, lo) - 1, bisect.bisect_left(edges, hi)
        objs = _split_level_task.options(num_returns=g1 - g0).remote(
            key_cols, num_buckets, 0, edges[g0:g1 + 1], None, *[p[r] for p in level0])
        for g, ref in zip(range(g0, g1), objs if g1 - g0 > 1 else [objs]):
            groups[g].append(ref)
    return KeyedBuckets(groups, edges, key_cols)
