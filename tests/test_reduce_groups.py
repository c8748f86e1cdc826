"""Reduce groups: a keyed exchange ships one object per (split task, reduce
group), and each group reduces or commits in one task that still calls the
per-bucket kernel once per bucket and commits each bucket as its own
partition. The results are checked against a pure model built from
``bucket_ids`` and the per-bucket kernel alone."""

from __future__ import annotations

import glob
import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from pipeflow_ray.stages import core
from pipeflow_ray.state import manifest


def _keyed(n: int, n_keys: int = 300, seed: int = 3) -> pa.Table:
    rng = np.random.default_rng(seed)
    keys = np.array([f"conv-{i:04d}" for i in range(n_keys)], dtype=object)
    return pa.table({
        "k": pa.array(keys[rng.integers(0, n_keys, n)]),
        "v": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(rng.integers(0, 1 << 40, n), pa.int64()),
    })


def _groups(num_buckets: int) -> int:
    return len(core.reduce_group_edges(num_buckets)) - 1


class _Launches:
    """Counts the launches of a remote task and passes them through."""

    def __init__(self, task):
        self.task, self.n = task, 0

    def options(self, **kw):
        self.n += 1
        return self.task.options(**kw)

    def remote(self, *args, **kw):
        self.n += 1
        return self.task.remote(*args, **kw)


def _sorted(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    return df.sort_values(list(df.columns), ignore_index=True)


# --- bucket_ids: one hash per distinct string key ---------------------------

@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_bucket_ids_string_key_matches_hash_pandas_object(typ):
    values = [None, "", "a", "ß", "日本語", "conv-1", "", None, "a", "emoji 🙂"]
    chunks = [pa.array(values[:4], typ), pa.array([], typ), pa.array(values[4:], typ)]
    for col in (pa.chunked_array(chunks), pa.chunked_array([], typ),
                pa.chunked_array([pa.array([None, None], typ)])):
        t = pa.table({"k": col, "x": pa.array(np.arange(len(col)))})
        want = pd.util.hash_pandas_object(t.select(["k"]).to_pandas(), index=False).to_numpy()
        got = core._string_hashes(t.column("k"))
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        for nb in (1, 7, 64):
            assert np.array_equal(core.bucket_ids(t, ["k"], nb), want % nb)


# --- the exchange and bucket reduce -----------------------------------------

def test_group_edges_cover_buckets_contiguously():
    for nb in (1, 3, 8, 50, 64, 5000):
        e = core.reduce_group_edges(nb)
        assert e[0] == 0 and e[-1] == nb and all(a < b for a, b in zip(e, e[1:]))
        assert len(e) - 1 == min(nb, 2 * core._session_cpus())


def test_reduce_sides_need_the_same_groups():
    ds = ray.data.from_arrow(_keyed(200)).materialize()
    with pytest.raises(ValueError, match="same reduce groups"):
        core.reduce_buckets(lambda a, b: a, core.hash_exchange(ds, ["k"], 8),
                            core.hash_exchange(ds, ["k"], 16))


def _model_bucket_tables(ds, key_cols: list[str], num_buckets: int) -> dict:
    """Bucket ``j``'s table as the per-bucket exchange delivered it: per
    split task (a contiguous run of blocks) its rows in stable bucket order,
    the tasks' rows concatenated in task order."""
    refs = core.block_refs(ds)
    runs = np.array_split(np.arange(len(refs)), min(len(refs), num_buckets))
    parts: dict[int, list] = {}
    for run in runs:
        t = pa.concat_tables([ray.get(refs[i]) for i in run])
        b = core.bucket_ids(t, key_cols, num_buckets)
        order = np.argsort(b, kind="stable")
        t, b = t.take(pa.array(order)), b[order]
        for j in np.unique(b):
            lo, hi = np.searchsorted(b, [j, j + 1])
            parts.setdefault(int(j), []).append(t.slice(lo, hi - lo))
    return {j: pa.concat_tables(ts) for j, ts in parts.items()}


def test_reduce_calls_fn_once_per_nonempty_bucket_on_the_same_tables(tmp_path, monkeypatch):
    """A spy on *fn* sees one call per non-empty bucket, each with the
    table the per-bucket exchange gave that bucket (rows and order), and
    at most G reduce tasks start."""
    nb = 32
    assert _groups(nb) < nb
    ds = ray.data.from_arrow(_keyed(3000, n_keys=40)).repartition(5).materialize()
    calls = tmp_path / "calls"
    calls.mkdir()

    def spy(t: pa.Table) -> pa.Table:
        pq.write_table(t, str(calls / f"{uuid.uuid4().hex}.parquet"))
        return t.slice(0, 1)

    launches = _Launches(core._reduce_task)
    monkeypatch.setattr(core, "_reduce_task", launches)
    out = core.grouped_by_bucket(ds, ["k"], spy, nb, batch_format="pyarrow")
    assert 0 < launches.n <= _groups(nb)
    model = _model_bucket_tables(ds, ["k"], nb)
    seen = {}
    for f in calls.iterdir():
        t = pq.read_table(str(f))
        (j,) = set(core.bucket_ids(t, ["k"], nb).tolist())
        assert j not in seen
        seen[j] = t
    assert sorted(seen) == sorted(model)
    for j, t in seen.items():
        assert t.equals(model[j]), j
    # one output block per bucket, in bucket order
    blocks = [ray.get(r) for r in core.block_refs(out)]
    assert [int(core.bucket_ids(b, ["k"], nb)[0]) for b in blocks] == sorted(model)


def test_two_side_reduce_keeps_empty_side_rules():
    """Per bucket: a side with rows passes their concat, a side with only
    empty slices its zero-row schema, a side with no blocks None."""
    left = ray.data.from_arrow(_keyed(500, n_keys=30)).materialize()
    right = ray.data.from_arrow(_keyed(0)).materialize()
    nothing = ray.data.from_items([])

    def seen(a, b):
        return pa.table({"rows": [a.num_rows], "b": ["none" if b is None else
                                                     f"{b.num_rows}:{b.schema.names}"]})

    nb = 16
    got = core.reduce_buckets(seen, core.hash_exchange(left, ["k"], nb),
                              core.hash_exchange(right, ["k"], nb)).to_pandas()
    assert got.rows.sum() == 500 and set(got.b) == {"0:['k', 'v', 'ts']"}
    got = core.reduce_buckets(seen, core.hash_exchange(left, ["k"], nb),
                              core.hash_exchange(nothing, ["k"], nb)).to_pandas()
    assert got.rows.sum() == 500 and set(got.b) == {"none"}
    assert len(got) == len(np.unique(core.bucket_ids(_keyed(500, n_keys=30), ["k"], nb)))


# --- the exactly-once sink --------------------------------------------------

def test_write_exactly_once_partitions_match_model(tmp_path, monkeypatch):
    """At G < partitions every partition p holds exactly the rows whose
    bucket is p, and at most G commit tasks start."""
    t = _keyed(4000)
    nb = 32
    assert _groups(nb) < nb
    launches = _Launches(manifest._agg_commit_task)
    monkeypatch.setattr(manifest, "_agg_commit_task", launches)
    out = str(tmp_path / "out")
    stats = manifest.write_exactly_once(
        ray.data.from_arrow(t).repartition(4), out, part_by="k", num_partitions=nb,
        ts_col="ts")
    assert launches.n == _groups(nb)
    assert stats.partition_id.tolist() == list(range(nb)) and not stats.skipped.any()
    b = core.bucket_ids(t, ["k"], nb)
    for pid in range(nb):
        got = pq.read_table(os.path.join(out, f"part-{pid:05d}.parquet"))
        assert stats.rows[pid] == got.num_rows
        pd.testing.assert_frame_equal(_sorted(got), _sorted(t.filter(pa.array(b == pid))))


def test_precommitted_pids_of_a_group_are_skipped(tmp_path, monkeypatch):
    """Some pids of one group already committed: they come back skipped
    with their files untouched, the group's other pids commit, and no
    other group starts a task."""
    t = _keyed(3000)
    nb = 32
    edges = core.reduce_group_edges(nb)
    out = str(tmp_path / "out")
    ds = ray.data.from_arrow(t).materialize()
    manifest.write_exactly_once(ds, out, part_by="k", num_partitions=nb, ts_col="ts")
    redo = list(range(edges[0], edges[1], 2))  # every other pid of group 0
    kept = [p for p in range(nb) if p not in redo]
    for pid in redo:
        os.remove(os.path.join(out, "_manifests", f"part-{pid:05d}.json"))
        os.remove(os.path.join(out, f"part-{pid:05d}.parquet"))
    mtimes = {p: os.stat(os.path.join(out, f"part-{p:05d}.parquet")).st_mtime_ns
              for p in kept}

    launches = _Launches(manifest._agg_commit_task)
    monkeypatch.setattr(manifest, "_agg_commit_task", launches)
    stats = manifest.write_exactly_once(ds, out, part_by="k", num_partitions=nb, ts_col="ts")
    assert launches.n == 1
    assert stats.partition_id.tolist() == list(range(nb))
    assert stats.skipped.tolist() == [p not in redo for p in range(nb)]
    assert mtimes == {p: os.stat(os.path.join(out, f"part-{p:05d}.parquet")).st_mtime_ns
                      for p in kept}
    b = core.bucket_ids(t, ["k"], nb)
    for pid in redo:
        got = pq.read_table(os.path.join(out, f"part-{pid:05d}.parquet"))
        pd.testing.assert_frame_equal(_sorted(got), _sorted(t.filter(pa.array(b == pid))))


def test_retried_group_commit_skips_what_it_committed(tmp_path, monkeypatch):
    """A group task that crashes after committing two of its pids is
    retried by Ray; the retry reports those two from their manifests
    without calling *fn* again and commits the rest."""
    t = _keyed(3000)
    nb = 16
    calls, flag = tmp_path / "calls", str(tmp_path / "crashed")
    calls.mkdir()

    def flaky(slices):
        n = len(os.listdir(calls))
        open(calls / f"{n:03d}", "w").close()
        if n == 2 and not os.path.exists(flag):
            open(flag, "w").close()
            raise RuntimeError("injected crash after two commits")
        return manifest._concat(slices)

    # one group, so the crash lands in the task holding every pid
    monkeypatch.setattr(core, "reduce_group_edges", lambda n: (0, n))
    buckets = core.hash_exchange(ray.data.from_arrow(t), ["k"], nb)
    out = str(tmp_path / "out")
    stats = manifest._commit_buckets(buckets, flaky, out, "ts", None)
    assert os.path.exists(flag)
    assert len(os.listdir(calls)) == nb + 1  # the crashed call, then one per pid
    assert stats.skipped.tolist() == [True, True] + [False] * (nb - 2)
    assert stats.rows.sum() == t.num_rows
    assert manifest.read_committed(out).num_rows == t.num_rows


def test_flagship_partitions_match_model(transcripts_path, tmp_path):
    """The flagship at G < partitions: partition p is the per-bucket
    kernel (pair → window aggregate) over exactly the rows of bucket p."""
    from pipeflow_ray.pipelines import flagship

    nb = 16
    assert _groups(nb) < nb
    out = str(tmp_path / "flag")
    _, stats = flagship.flagship_pipeline(transcripts_path, out_dir=out, num_partitions=nb,
                                          return_windowed=False)
    assert stats.partition_id.tolist() == list(range(nb))
    slim = flagship._slim(flagship.normalize(
        pq.read_table(transcripts_path, columns=flagship.FLAGSHIP_COLUMNS)))
    b = core.bucket_ids(slim, ["conv_id"], nb)
    for pid in range(nb):
        want = flagship._reduce_table([slim.filter(pa.array(b == pid))], 3600.0)
        got = pq.read_table(os.path.join(out, f"part-{pid:05d}.parquet"))
        assert set(got["conv_id"].to_pylist()) <= set(
            slim.filter(pa.array(b == pid))["conv_id"].to_pylist())
        pd.testing.assert_frame_equal(_sorted(got), _sorted(want))
    assert sum(pq.read_metadata(f).num_rows
               for f in glob.glob(os.path.join(out, "part-*.parquet"))) > 0
