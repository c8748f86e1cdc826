"""Connector-surface parity tests (round-1 VERDICT #6/#7): SQL pushdown
builder with paged parallel reads, parameterized/scalar SQL, Mongo fluent
pipeline compilation, typed API reader, cloud listing/read wrappers, and
formatted CSV/JSON sinks — all against injected transports / sqlite /
local files (no network)."""

from __future__ import annotations

import json
import os
import sqlite3

import pyarrow as pa
import pytest

import ray.data

from pipeflow_ray.sources.api import TypedApiReader, rows_to_table
from pipeflow_ray.sources.cloud import list_objects, read_cloud, write_cloud
from pipeflow_ray.sources.optional import MongoQuery
from pipeflow_ray.sources.sql import (
    SqlQueryBuilder,
    read_scalar,
    read_sql_params,
    write_sql,
)
from pipeflow_ray.sources.writers import (
    CsvWriteOptions,
    JsonWriteOptions,
    camel_case,
    to_csv_file,
    to_json_file,
    write_csv,
)

# --- SQL -------------------------------------------------------------------


def _db(tmp_path) -> str:
    path = str(tmp_path / "t.db")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE users (id INTEGER, name TEXT, age INTEGER)")
    conn.executemany(
        "INSERT INTO users VALUES (?, ?, ?)",
        [(i, f"user{i:03d}", 18 + (i * 7) % 60) for i in range(500)],
    )
    conn.commit()
    conn.close()
    return path


def test_sql_builder_pushes_operators_into_sql(tmp_path):
    q = (
        SqlQueryBuilder("users")
        .where("age > ?", 30)
        .where("name LIKE ?", "user0%")
        .select("id", "name")
        .order_by("id", descending=True)
        .take(5)
        .skip(2)
    )
    sql, params = q.to_sql()
    assert sql == (
        "SELECT id, name FROM users WHERE (age > ?) AND (name LIKE ?) "
        "ORDER BY id DESC LIMIT 5 OFFSET 2"
    )
    assert params == (30, "user0%")


def test_sql_builder_paged_parallel_read(tmp_path):
    path = _db(tmp_path)
    factory = lambda: sqlite3.connect(path)  # noqa: E731
    q = SqlQueryBuilder("users").where("age >= ?", 20).order_by("id")
    expect = [
        r[0] for r in sqlite3.connect(path).execute(
            "SELECT id FROM users WHERE age >= 20 ORDER BY id"
        )
    ]
    got = q.read(factory, page_size=64).to_pandas()
    assert sorted(got.id.tolist()) == expect
    assert len(got.columns) == 3
    # pushdown count without transfer
    assert q.count(factory) == len(expect)


def test_sql_builder_paged_read_take_overshoot(tmp_path):
    """take(n) with a tiny page_size and capped parallel pages: the per-page
    LIMIT must clamp at the remaining rows — the unclamped form rendered
    LIMIT -1 (unbounded in SQLite) on tail pages and returned hundreds of
    extra rows (ADVICE r2)."""
    path = _db(tmp_path)
    factory = lambda: sqlite3.connect(path)  # noqa: E731
    q = SqlQueryBuilder("users").order_by("id").take(65)
    got = q.read(factory, page_size=1, max_parallel_pages=64).to_pandas()
    assert sorted(got.id.tolist()) == list(range(65))


def test_sql_params_and_scalar(tmp_path):
    path = _db(tmp_path)
    factory = lambda: sqlite3.connect(path)  # noqa: E731
    ds = read_sql_params("SELECT id, name FROM users WHERE id < ? ORDER BY id", factory, (3,))
    assert ds.to_pandas().name.tolist() == ["user000", "user001", "user002"]
    assert read_scalar("SELECT COUNT(*) FROM users WHERE id < ?", factory, (10,)) == 10
    assert read_scalar("SELECT name FROM users WHERE id = ?", factory, (7,)) == "user007"
    assert read_scalar("SELECT name FROM users WHERE id = ?", factory, (-1,)) is None
    assert read_scalar("SELECT COUNT(*) FROM users", factory, cast=float) == 500.0


def test_sql_roundtrip_through_builder(tmp_path):
    path = _db(tmp_path)
    factory = lambda: sqlite3.connect(path)  # noqa: E731
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE adults (id INTEGER, name TEXT, age INTEGER)")
    conn.commit()
    conn.close()
    ds = SqlQueryBuilder("users").where("age >= ?", 40).read(factory, page_size=100)
    n = write_sql(ds, "adults", factory)
    back = read_scalar("SELECT COUNT(*) FROM adults", factory)
    assert n == back > 0


# --- Mongo fluent builder (compilation only; client lib absent) ------------


def test_mongo_query_compiles_to_pipeline():
    q = (
        MongoQuery("mongodb://h", "db", "coll")
        .where("status", "active")
        .where_json('{"score": {"$gt": 5}}')
        .sort("ts", ascending=False)
        .skip(10)
        .limit(20)
        .project("name", "score")
    )
    assert q.to_pipeline() == [
        {"$match": {"status": "active", "score": {"$gt": 5}}},
        {"$sort": {"ts": -1}},
        {"$skip": 10},
        {"$limit": 20},
        {"$project": {"name": 1, "score": 1, "_id": 0}},
    ]
    # explicit aggregate stages take precedence (MongoReader.Read contract)
    q2 = MongoQuery("mongodb://h", "db", "coll").aggregate('{"$group": {"_id": "$k"}}')
    assert q2.to_pipeline() == [{"$group": {"_id": "$k"}}]
    # execution is import-gated in this runtime
    with pytest.raises(ImportError):
        q.read()


# --- typed API reader ------------------------------------------------------

_SCHEMA = pa.schema([("id", pa.int64()), ("name", pa.string()), ("score", pa.float64())])


def _transport(pages):
    def fetch(url, headers):
        if "page=" in url:
            page = int(url.split("page=")[1].split("&")[0])
            body = pages[page - 1] if page <= len(pages) else []
        else:
            body = pages[0]
        return 200, json.dumps({"data": body})

    return fetch


def test_typed_api_reader_deserializes_case_insensitively():
    rows = [
        {"Id": 1, "NAME": "a", "Score": "3.5"},   # case-insensitive + coercible
        {"id": 2, "name": "b"},                    # missing field → null
        {"id": "7", "name": None, "score": 1, "extra": "ignored"},
    ]
    t = rows_to_table(rows, _SCHEMA)
    assert t.schema == _SCHEMA
    assert t["id"].to_pylist() == [1, 2, 7]
    assert t["score"].to_pylist() == [3.5, None, 1.0]

    reader = TypedApiReader("http://x/api", _SCHEMA, fetch=_transport([rows]))
    assert reader.read_table().num_rows == 3


def test_typed_api_reader_parallel_pages():
    pages = [[{"id": i * 10 + j, "name": f"n{j}", "score": j} for j in range(10)] for i in range(3)]
    reader = TypedApiReader("http://x/api", _SCHEMA, fetch=_transport(pages))
    ds = reader.to_dataset(num_pages=3, page_size=10)
    df = ds.to_pandas()
    assert len(df) == 30 and df.id.nunique() == 30
    assert list(df.columns) == ["id", "name", "score"]


# --- cloud wrappers (Arrow filesystem over local paths) --------------------


def test_cloud_list_read_write_roundtrip(tmp_path):
    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    out = str(tmp_path / "bucket" / "data")
    write_cloud(ray.data.from_arrow(t), out, format="parquet")
    objs = list_objects(str(tmp_path / "bucket"), suffix=".parquet")
    assert len(objs) >= 1 and all(o["size"] > 0 for o in objs)
    back = read_cloud(out, format="parquet").to_pandas().sort_values("a")
    assert back.a.tolist() == [1, 2, 3]
    # extension dispatch
    single = objs[0]["path"]
    assert read_cloud(single).count() == 3


# --- formatted writers -----------------------------------------------------


def test_csv_formatting_options(tmp_path):
    import datetime

    t = pa.table(
        {
            "when": pa.array([datetime.datetime(2024, 1, 5, 12, 30)], pa.timestamp("us")),
            "ok": [True],
            "n": [7],
        }
    )
    out = str(tmp_path / "csvdir")
    write_csv(
        ray.data.from_arrow(t), out,
        CsvWriteOptions(delimiter=";", date_format="%d/%m/%Y", bool_true="YES", bool_false="NO"),
    )
    body = "".join(
        open(os.path.join(out, f)).read() for f in sorted(os.listdir(out))
    )
    assert "05/01/2024;YES;7" in body.replace('"', "")
    # append=False guard against Ray's append-into-dir duplication
    with pytest.raises(FileExistsError):
        write_csv(ray.data.from_arrow(t), out)


def test_csv_single_file_append_skips_header(tmp_path):
    t = pa.table({"a": [1], "b": ["x"]})
    f = str(tmp_path / "one.csv")
    to_csv_file(t, f)
    to_csv_file(t, f, CsvWriteOptions(append=True))
    lines = open(f).read().strip().splitlines()
    assert lines[0].replace('"', "") == "a,b"
    assert len(lines) == 3  # header + 2 rows, header not repeated


def test_json_file_camel_case_indent_append(tmp_path):
    t = pa.table({"user_id": [1], "FirstName": ["Ada"]})
    f = str(tmp_path / "o.json")
    n = to_json_file(t, f)
    assert n == 1
    doc = json.load(open(f))
    assert doc == [{"userId": 1, "firstName": "Ada"}]
    assert "\n" in open(f).read()  # indented
    n2 = to_json_file(t, f, JsonWriteOptions(append=True))
    assert n2 == 2 and len(json.load(open(f))) == 2
    assert camel_case("already") == "already"
    assert camel_case("two_words_here") == "twoWordsHere"


def test_sql_read_single_and_keyed_upsert(tmp_path):
    from pipeflow_ray.sources.sql import read_single

    path = str(tmp_path / "u.db")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE kv (k INTEGER PRIMARY KEY, name TEXT, score INTEGER)")
    conn.executemany("INSERT INTO kv VALUES (?,?,?)", [(1, "a", 10), (2, "b", 20)])
    conn.commit()
    conn.close()
    factory = lambda: sqlite3.connect(path)  # noqa: E731

    assert read_single("SELECT * FROM kv WHERE k = ?", factory, (2,)) == {
        "k": 2, "name": "b", "score": 20}
    assert read_single("SELECT * FROM kv WHERE k = ?", factory, (99,)) is None

    # ON CONFLICT (k) DO UPDATE: existing row updated, new row inserted
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array([2, 3], pa.int64()), "name": ["B2", "c"],
                  "score": pa.array([99, 30], pa.int64())})
    )
    n = write_sql(ds, "kv", factory, upsert_keys=["k"])
    assert n == 2
    rows = sorted(sqlite3.connect(path).execute("SELECT k, name, score FROM kv"))
    assert rows == [(1, "a", 10), (2, "B2", 99), (3, "c", 30)]


def test_hash_exchange_partition_property():
    """Property: hash_exchange is a PARTITION — every row lands in exactly
    one bucket, same-key rows land in the same bucket, and the multiset of
    rows is preserved — regardless of upstream block layout."""
    import numpy as np

    from pipeflow_ray.stages.core import hash_exchange

    rng = np.random.default_rng(11)
    n = 5000
    t = pa.table({
        "k": pa.array([f"key{int(x):03d}" for x in rng.integers(0, 97, n)]),
        "v": pa.array(rng.integers(0, 1 << 40, n), pa.int64()),
    })
    for blocks in (1, 7, 64):
        ds = ray.data.from_arrow(t).repartition(blocks)
        buckets = hash_exchange(ds, ["k"], 16)
        assert buckets.num_buckets == 16
        per_bucket = [
            pa.concat_tables([x for x in buckets.bucket(j) if x.num_rows])
            if any(x.num_rows for x in buckets.bucket(j)) else None
            for j in range(16)
        ]
        tables = [b for b in per_bucket if b is not None]
        total = sum(b.num_rows for b in tables)
        assert total == n
        # same key never appears in two buckets
        seen = {}
        for i, b in enumerate(tables):
            for k in set(b["k"].to_pylist()):
                assert seen.setdefault(k, i) == i
        # multiset preserved
        import pandas as pd

        got = pa.concat_tables(tables).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        exp = t.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)


# ---------------------------------------------------------------------------
# Excel / Mongo execution with injected fakes (round-2 VERDICT #8): the client
# libraries are absent in this runtime, so inject stub modules through the
# import gate and fake the library boundary — everything the connector itself
# owns (gating, argument plumbing, Dataset conversion) executes for real.
# ---------------------------------------------------------------------------


def test_excel_roundtrip_with_injected_engine(monkeypatch):
    import sys
    import types

    import pandas as pd

    from pipeflow_ray.sources.optional import read_excel, write_excel

    monkeypatch.setitem(sys.modules, "openpyxl", types.ModuleType("openpyxl"))
    store = {}

    def fake_read_excel(path, sheet_name=0, **kw):
        assert path == "/tmp/book.xlsx" and sheet_name == "Data"
        return pd.DataFrame({"Name": ["Ann", "Bo", "Cy"], "Age": [34, 28, 41]})

    def fake_to_excel(self, path, sheet_name="Sheet1", index=True):
        store["written"] = (path, sheet_name, index, self.copy())

    monkeypatch.setattr(pd, "read_excel", fake_read_excel)
    monkeypatch.setattr(pd.DataFrame, "to_excel", fake_to_excel)

    ds = read_excel("/tmp/book.xlsx", sheet="Data")
    assert sorted(ds.to_pandas().Name) == ["Ann", "Bo", "Cy"]

    filtered = ds.filter(expr="Age > 30")
    write_excel(filtered, "/tmp/out.xlsx", sheet="Grown")
    path, sheet, index, df = store["written"]
    assert path == "/tmp/out.xlsx" and sheet == "Grown" and index is False
    assert sorted(df.Name) == ["Ann", "Cy"]


def test_excel_import_gate_raises_without_lib():
    import importlib.util

    import pytest as _pytest

    from pipeflow_ray.sources.optional import read_excel

    if importlib.util.find_spec("openpyxl") is not None:  # pragma: no cover
        _pytest.skip("openpyxl present in this runtime")
    with _pytest.raises(ImportError, match="openpyxl"):
        read_excel("/tmp/book.xlsx")


def test_mongo_execution_with_injected_client(monkeypatch):
    import sys
    import types

    import ray.data as rd

    from pipeflow_ray.sources.optional import MongoQuery, write_mongo

    monkeypatch.setitem(sys.modules, "pymongo", types.ModuleType("pymongo"))
    captured = {}

    def fake_read_mongo(uri, database, collection, pipeline=None, **kw):
        captured["read"] = (uri, database, collection, pipeline)
        return rd.from_items([{"name": "a", "age": 30}, {"name": "b", "age": 30}])

    monkeypatch.setattr(rd, "read_mongo", fake_read_mongo)

    q = (MongoQuery("mongodb://h:27017", "db", "users")
         .where("age", 30).sort("name").limit(5).project("name", "age"))
    ds = q.read()
    assert captured["read"][:3] == ("mongodb://h:27017", "db", "users")
    assert captured["read"][3] == [
        {"$match": {"age": 30}},
        {"$sort": {"name": 1}},
        {"$limit": 5},
        {"$project": {"name": 1, "age": 1, "_id": 0}},
    ]
    assert ds.count() == 2

    def fake_write_mongo(self, uri, database, collection):
        captured["write"] = (uri, database, collection, self.count())

    monkeypatch.setattr(rd.Dataset, "write_mongo", fake_write_mongo)
    write_mongo(ds, "mongodb://h:27017", "db", "out")
    assert captured["write"] == ("mongodb://h:27017", "db", "out", 2)
