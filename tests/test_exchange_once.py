"""The keyed exchange runs its upstream plan once and takes blocks of any
format.

``hash_exchange`` gets its input blocks from one pass over the plan
(``stages.core.block_refs``). Ray 2.49's ``Dataset.to_arrow_refs`` runs a
lazy UDF plan a second time (its schema probe) and cancels that run's
in-flight tasks, so no engine module may call it.
"""

from __future__ import annotations

import pathlib
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

REPO = pathlib.Path(__file__).resolve().parent.parent


def _write_shards(d: pathlib.Path, files: int = 4, rows: int = 2000) -> str:
    rng = np.random.default_rng(7)
    d.mkdir()
    for i in range(files):
        pq.write_table(pa.table({
            "k": pa.array([f"c{int(x):03d}" for x in rng.integers(0, 200, rows)]),
            "v": pa.array(rng.integers(0, 1 << 40, rows), pa.int64()),
        }), d / f"part-{i}.parquet")
    return str(d)


def _marked_plan(path: str, marker_dir: pathlib.Path):
    """A lazy read → UDF plan whose UDF leaves one file per call."""
    marker_dir.mkdir()
    where = str(marker_dir)

    def _mark(t: pa.Table) -> pa.Table:
        (pathlib.Path(where) / uuid.uuid4().hex).touch()
        return t

    return ray.data.read_parquet(path).map_batches(
        _mark, batch_format="pyarrow", batch_size=500)


def test_exchange_runs_upstream_plan_once(tmp_path):
    """``grouped_by_bucket`` calls the upstream UDF exactly as often as one
    ``materialize()`` of the same plan: the plan runs once."""
    from pipeflow_ray.stages.core import grouped_by_bucket

    path = _write_shards(tmp_path / "in")
    once, exchanged = tmp_path / "once", tmp_path / "exchanged"
    ref = _marked_plan(path, once).materialize()
    out = grouped_by_bucket(_marked_plan(path, exchanged), ["k"],
                            lambda t: t, num_buckets=4, batch_format="pyarrow")
    calls = len(list(once.iterdir()))
    assert calls >= 16  # 4 files × 2000 rows in batches of 500
    assert len(list(exchanged.iterdir())) == calls
    assert out.count() == ref.count() == 8000


def _bucket_frames(buckets) -> list:
    frames = []
    for j in range(buckets.num_buckets):
        tables = buckets.bucket(j)
        assert all(isinstance(t, pa.Table) for t in tables)
        frames.append(pa.concat_tables(tables).to_pandas()
                      .sort_values(["k", "v"], ignore_index=True))
    return frames


def test_exchange_of_pandas_blocks_equals_arrow_blocks(tmp_path):
    """Pandas blocks (a ``batch_format="pandas"`` UDF's output) land in the
    same buckets as the Arrow blocks they came from, as Arrow slices."""
    from pipeflow_ray.stages.core import block_refs, hash_exchange

    base = ray.data.read_parquet(_write_shards(tmp_path / "in"))
    as_arrow = base.map_batches(lambda t: t, batch_format="pyarrow")
    as_pandas = base.map_batches(lambda df: df, batch_format="pandas").materialize()
    assert all(isinstance(b, pd.DataFrame) for b in ray.get(block_refs(as_pandas)))
    nb = 8
    want = _bucket_frames(hash_exchange(as_arrow, ["k"], nb))
    got = _bucket_frames(hash_exchange(as_pandas, ["k"], nb))
    assert sum(len(f) for f in want) == 8000
    for w, g in zip(want, got):
        pd.testing.assert_frame_equal(g, w)


def test_no_engine_module_calls_to_arrow_refs():
    """``Dataset.to_arrow_refs`` runs a lazy UDF plan twice in Ray 2.49;
    engine code takes block refs from ``stages.core.block_refs``."""
    hits = [
        f"{p.relative_to(REPO)}:{i}"
        for p in sorted((REPO / "pipeflow_ray").rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if ".to_arrow_refs(" in line
    ]
    assert not hits, (
        "Dataset.to_arrow_refs() runs a lazy UDF plan a second time (its "
        "schema probe) and cancels that run's in-flight tasks; use "
        f"stages.core.block_refs instead: {hits}"
    )


def test_no_engine_module_forks_a_sort_shuffle():
    """``stages.core.hash_exchange`` is the one keyed all-to-all.
    ``groupby().map_groups`` and ``Dataset.join`` run Ray Data's sort-based
    shuffle (1.93 s against 0.08 s for the exchange on a 500k-row grouped
    sum at 8 partitions, no finish in 150 s at 64); only the fluent
    ``Pipeline.group_by`` in ``pipeline.py`` keeps one."""
    allowed = {pathlib.Path("pipeflow_ray/pipeline.py")}
    hits = [
        f"{p.relative_to(REPO)}:{i}"
        for p in sorted((REPO / "pipeflow_ray").rglob("*.py"))
        if p.relative_to(REPO) not in allowed
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if ".map_groups(" in line or "join_type=" in line
    ]
    assert not hits, f"a sort-based shuffle fork came back; use hash_exchange: {hits}"


def test_one_bucket_reduce_task():
    """Every bucket reduce starts in ``stages.core.reduce_buckets`` and runs
    in its ``_reduce_task``; the exactly-once sink's retried
    ``_agg_commit_task`` is the one other remote task that takes a bucket's
    slices. A per-operator bucket task would fork the reduce's launch code
    and its empty-side rules."""
    import ast

    def remote(dec) -> bool:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return isinstance(dec, ast.Attribute) and dec.attr == "remote"

    found = {
        f"{p.relative_to(REPO)}::{node.name}"
        for p in sorted((REPO / "pipeflow_ray").rglob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(remote(d) for d in node.decorator_list)
        and node.args.vararg is not None and node.args.vararg.arg == "slices"
    }
    assert found == {"pipeflow_ray/stages/core.py::_reduce_task",
                     "pipeflow_ray/state/manifest.py::_agg_commit_task"}, (
        f"bucket reduces go through stages.core.reduce_buckets: {sorted(found)}")
