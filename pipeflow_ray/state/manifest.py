"""Exactly-once Parquet sink with per-partition commit manifests +
checkpoint/resume (SURVEY §2.6 Parquet row, §2.10).

Ray re-executes failed tasks automatically (lineage), which makes a naive
``write_parquet`` at-least-once: a retried write task appends a second copy of
its rows (observed directly — see ``.claude/skills/verify/SKILL.md`` gotchas).
The reference's idempotency surface is upsert-by-key
(``PipeFlow/PostgreSQL/PostgreSqlWriter.cs:220-247`` ``ON CONFLICT``); our
sink generalizes that to files:

1. rows are hash-partitioned by a deterministic key → partition id ``pid``
   (one :func:`~pipeflow_ray.stages.core.hash_exchange`: the pid is the
   key's bucket);
2. one task per reduce group of buckets writes each of its partitions to a
   temp file, fsyncs, atomically renames it to the final deterministic path
   ``part-{pid}.parquet``;
3. the single atomic commit point is the rename of the per-partition
   **manifest** (JSON: pid, file, rows, bytes, ts bounds/watermark, input
   lineage, wall time) into ``_manifests/``;
4. a re-executed task (retry or resume) sees the committed manifests and
   commits only the rest — re-running the whole job skips finished
   partitions.

Output is a directory of per-partition files (never one giant file), so a
failed 100 TB run resumes by skipping committed partitions.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from pipeflow_ray.stages.core import KeyedBuckets, _bucket_slices, bucket_ids, hash_exchange

_STATS_COLUMNS = ["partition_id", "rows", "bytes", "skipped", "wall_s"]


def _manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "_manifests", f"part-{pid:05d}.json")


def completed_partitions(out_dir: str) -> dict[int, dict]:
    """Scan committed manifests → {pid: manifest}. The driver-side resume check."""
    mdir = os.path.join(out_dir, "_manifests")
    if not os.path.isdir(mdir):
        return {}
    out = {}
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                m = json.load(f)
            out[int(m["partition_id"])] = m
    return out


def filter_completed(
    ds: ray.data.Dataset, out_dir: str, part_by: str | list[str], num_partitions: int
) -> ray.data.Dataset:
    """Resume path: drop input rows belonging to already-committed partitions
    BEFORE any expensive compute (prune at the start, not at the sink)."""
    done = completed_partitions(out_dir)
    if not done:
        return ds
    cols = [part_by] if isinstance(part_by, str) else list(part_by)
    done_ids = np.array(sorted(done))

    def _prune(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(~np.isin(bucket_ids(t, cols, num_partitions), done_ids)))

    return ds.map_batches(_prune, batch_format="pyarrow")


def _skipped(pid: int, manifest: dict) -> dict:
    return {"partition_id": pid, "rows": manifest["rows"], "bytes": manifest["bytes"],
            "skipped": True, "wall_s": 0.0}


def _committed(out_dir: str, pid: int) -> dict | None:
    """The stats row of an already-committed partition, else None."""
    mpath = _manifest_path(out_dir, pid)
    if not os.path.exists(mpath):
        return None
    with open(mpath) as f:
        return _skipped(pid, json.load(f))


def commit_partition(
    body: pa.Table,
    out_dir: str,
    pid: int,
    ts_col: str | None = None,
    lineage: dict | None = None,
) -> dict:
    """Commit one partition exactly-once: temp write → fsync → atomic data
    rename → atomic manifest rename (THE commit point). Idempotent: an
    existing manifest makes this a no-op. Usable from any task; the
    streaming checkpoint commits call it directly."""
    t0 = time.perf_counter()
    done = _committed(out_dir, pid)
    if done is not None:
        return done
    mpath = _manifest_path(out_dir, pid)
    final = os.path.join(out_dir, f"part-{pid:05d}.parquet")
    tmp = os.path.join(out_dir, "_tmp", f"part-{pid:05d}.{uuid.uuid4().hex}.parquet")
    pq.write_table(body, tmp)
    with open(tmp, "rb") as f:
        os.fsync(f.fileno())
    os.replace(tmp, final)  # deterministic final path: retries overwrite, never duplicate
    nbytes = os.path.getsize(final)
    manifest = {
        "partition_id": pid,
        "file": os.path.basename(final),
        "rows": body.num_rows,
        "bytes": nbytes,
        "lineage": lineage or {},
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    if ts_col and ts_col in body.column_names and body.num_rows:
        import pyarrow.compute as pc

        manifest["min_ts"] = str(pc.min(body[ts_col]).as_py())
        manifest["max_ts"] = str(pc.max(body[ts_col]).as_py())
    mtmp = mpath + "." + uuid.uuid4().hex
    with open(mtmp, "w") as f:
        json.dump(manifest, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(mtmp, mpath)  # ← the atomic commit point
    return {"partition_id": pid, "rows": body.num_rows, "bytes": nbytes,
            "skipped": False, "wall_s": manifest["wall_s"]}


def prepare_sink(out_dir: str) -> None:
    os.makedirs(os.path.join(out_dir, "_manifests"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "_tmp"), exist_ok=True)


# The name says what the flagship runs in it (window aggregate + commit);
# perfbench's trace finds the reduce phase by task name. retry_exceptions: a
# crashed or failed commit re-executes, and the atomic manifest commit makes
# the retry exactly-once (no-op if committed, clean overwrite of a partial
# data file otherwise).
@ray.remote(max_retries=3, retry_exceptions=True)
def _agg_commit_task(fn, first_pid: int, pids: tuple, out_dir: str, ts_col: str | None,
                     lineage: dict | None, *slices) -> list[dict]:
    """Commit the partitions *pids* of one reduce group whose first bucket
    is *first_pid*; *slices* are the group's objects, one per split task.
    A pid committed meanwhile (a retry of this task) is reported from its
    manifest without calling *fn*."""
    return [_committed(out_dir, pid) or commit_partition(
                fn(_bucket_slices(slices, pid - first_pid)), out_dir, pid, ts_col, lineage)
            for pid in pids]


def _concat(slices) -> pa.Table:
    """A bucket's rows as they are; an all-empty bucket keeps its schema."""
    nonempty = [t for t in slices if t.num_rows]
    return pa.concat_tables(nonempty or slices[:1], promote_options="default")


def _commit_buckets(buckets: KeyedBuckets, fn, out_dir: str, ts_col: str | None,
                    lineage: dict | None) -> pd.DataFrame:
    """Commit each bucket of a :func:`~pipeflow_ray.stages.core.hash_exchange`
    as one partition, pid = bucket index, through one retried commit task
    per reduce group that calls :func:`commit_partition` on *fn* of each
    bucket's slices (``list[pa.Table] -> pa.Table``). The task holds its
    whole group's slices at once.

    Partitions already in :func:`completed_partitions` are reported from
    their manifests and get no commit; a group with no other partition gets
    no task. Every other bucket is committed, an empty one as a zero-row
    partition; an input with no blocks (no schema) commits nothing.
    Returns the stats frame ``partition_id, rows, bytes, skipped, wall_s``
    by pid."""
    prepare_sink(out_dir)
    done = completed_partitions(out_dir)
    futures = []
    for objs, lo, hi in zip(buckets.groups, buckets.edges[:-1], buckets.edges[1:]):
        pids = tuple(p for p in range(lo, hi) if p not in done)
        if objs and pids:
            futures.append(_agg_commit_task.remote(fn, lo, pids, out_dir, ts_col,
                                                   lineage, *objs))
    rows = [r for rs in ray.get(futures) for r in rs]
    rows += [_skipped(pid, m) for pid, m in done.items()]
    stats = pd.DataFrame(rows, columns=_STATS_COLUMNS)
    return stats.sort_values("partition_id").reset_index(drop=True)


def write_exactly_once(
    ds: ray.data.Dataset,
    out_dir: str,
    part_by: str | list[str] = "conv_id",
    num_partitions: int = 32,
    ts_col: str | None = "ts",
    lineage: dict | None = None,
) -> pd.DataFrame:
    """Write *ds* as partitioned Parquet with exactly-once commit semantics:
    one hash exchange on *part_by*, then :func:`_commit_buckets`.

    Returns a small per-partition stats frame (partition_id, rows, bytes,
    skipped, wall_s). Safe to call repeatedly: committed partitions are
    skipped, a crashed/partial write is atomically overwritten on retry.
    Every partition 0..num_partitions−1 is committed, an empty bucket as a
    zero-row partition; an input with no blocks carries no schema and
    commits nothing.
    """
    cols = [part_by] if isinstance(part_by, str) else list(part_by)
    return _commit_buckets(hash_exchange(ds, cols, num_partitions), _concat, out_dir,
                          ts_col, lineage)


def read_committed(out_dir: str) -> pa.Table:
    """Read back only committed partitions (files referenced by a manifest)
    as ONE driver-side Arrow table — small results only; at scale use
    :func:`read_committed_dataset`."""
    done = completed_partitions(out_dir)
    files = [os.path.join(out_dir, m["file"]) for m in done.values() if m["rows"] > 0]
    if not files:
        return pa.table({})
    return pa.concat_tables([pq.read_table(f) for f in sorted(files)])


def read_committed_dataset(out_dir: str) -> ray.data.Dataset:
    """Distributed read-back of committed partitions: a lazy
    ``ray.data.read_parquet`` over the manifest-listed files (one read task
    per partition file; nothing materializes on the driver)."""
    done = completed_partitions(out_dir)
    files = sorted(os.path.join(out_dir, m["file"]) for m in done.values() if m["rows"] > 0)
    if not files:
        return ray.data.from_items([])
    return ray.data.read_parquet(files)
