"""Query registry: one entry per implemented operator/pipeline (SURVEY §2),
each with a Ray-Data implementation and (where SQL-expressible) a DuckDB
oracle over the same parquet tables.

Cross-engine float discipline: aggregates avoid cross-engine floating-point
summation differences by integer-izing per row BEFORE accumulating —
``floor(x * scale)`` on identical IEEE doubles is bit-deterministic in both
engines, and integer sums are exact in any order. Derived ratios are a single
float division of exact integers (identical in both engines). Window starts
are int64 epoch seconds/micros, never engine-local timestamps.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data

from pipeflow_ray.fixtures import ensure_transcripts
from pipeflow_ray.pipeline import Pipeline
from pipeflow_ray.stages.join import broadcast_join, hash_join, turn_response_join
from pipeflow_ray.stages.validate import DataValidator, apply_validation
from pipeflow_ray.stages.watermark import compute_watermark
from pipeflow_ray.stages.window import (
    assign_sliding,
    partial_aggregate,
    session_aggregate,
)

QUERIES: dict = {}
ORACLES: dict[str, str] = {}

_TRIM = "' ' || chr(10) || chr(9) || chr(13)"  # match Arrow utf8_trim_whitespace on this corpus


def q(name: str, sql: str | None = None):
    def _reg(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLES[name] = sql
        return fn

    return _reg


def _floor_cents(col, scale=100):
    return pc.floor(pc.multiply(col, float(scale))).cast(pa.int64())


def _lineitem(sf_dir, cols):
    return ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)


# ---------------------------------------------------------------------------
# core relational operators (reference §2.1/§2.3 parity)
# ---------------------------------------------------------------------------

@q(
    "filter_project",
    """SELECT l_orderkey, l_linenumber, l_quantity,
              CAST(floor(l_extendedprice * (1 - l_discount) * 100) AS BIGINT) AS revenue_cents
       FROM lineitem
       WHERE l_shipdate < TIMESTAMP '1996-01-01' AND l_discount > 0.05""",
)
def filter_project(sf_dir):
    def _tx(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.less(t["l_shipdate"], pa.scalar(_dt.datetime(1996, 1, 1))),
            pc.greater(t["l_discount"], 0.05),
        )
        t = t.filter(mask)
        rev = _floor_cents(pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])))
        t = t.append_column("revenue_cents", rev)
        return t.select(["l_orderkey", "l_linenumber", "l_quantity", "revenue_cents"])

    return _lineitem(
        sf_dir, ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(_tx, batch_format="pyarrow")


@q(
    "q1_pricing_summary",
    """SELECT l_returnflag, l_linestatus,
              CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
              CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
              CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT)
                  AS sum_disc_cents,
              CAST(count(*) AS BIGINT) AS n,
              CAST(sum(CAST(l_quantity AS BIGINT)) AS DOUBLE) / count(*) AS avg_qty
       FROM lineitem GROUP BY l_returnflag, l_linestatus""",
)
def q1_pricing_summary(sf_dir):
    ds = _lineitem(sf_dir, ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def _cents(t: pa.Table) -> pa.Table:
        t = t.append_column("qty_i", t["l_quantity"].cast(pa.int64()))
        t = t.append_column("base_c", _floor_cents(t["l_extendedprice"]))
        t = t.append_column(
            "disc_c", _floor_cents(pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])))
        )
        return t.select(["l_returnflag", "l_linestatus", "qty_i", "base_c", "disc_c"])

    ds = ds.map_batches(_cents, batch_format="pyarrow")
    agg = partial_aggregate(
        ds,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("sum", "qty_i"),
            "sum_base_cents": ("sum", "base_c"),
            "sum_disc_cents": ("sum", "disc_c"),
            "n": ("count", None),
        },
    )

    def _avg(t: pa.Table) -> pa.Table:
        return t.append_column(
            "avg_qty", pc.divide(t["sum_qty"].cast(pa.float64()), t["n"].cast(pa.float64()))
        )

    return agg.map_batches(_avg, batch_format="pyarrow")


@q(
    "topk_orders",
    """SELECT o_orderkey, o_custkey, o_totalprice FROM orders
       ORDER BY o_totalprice DESC, o_orderkey LIMIT 10""",
)
def topk_orders(sf_dir):
    return (
        Pipeline.from_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"])
        .order_by(["o_totalprice", "o_orderkey"], descending=[True, False])
        .take_n(10)
        .dataset
    )


@q("distinct_flags", "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem")
def distinct_flags(sf_dir):
    return (
        Pipeline.from_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_linestatus"])
        .distinct()
        .dataset
    )


@q(
    "dedup_first_order",
    """SELECT o_custkey, o_orderkey, o_totalprice FROM (
         SELECT o_custkey, o_orderkey, o_totalprice,
                row_number() OVER (PARTITION BY o_custkey ORDER BY o_orderkey) AS rn
         FROM orders) WHERE rn = 1""",
)
def dedup_first_order(sf_dir):
    return (
        Pipeline.from_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"])
        .remove_duplicates("o_custkey", order_by="o_orderkey")
        .dataset
    )


@q(
    "skip_take",
    """SELECT event_id, event_type, user_id FROM events
       ORDER BY event_id LIMIT 50 OFFSET 100""",
)
def skip_take(sf_dir):
    return (
        Pipeline.from_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "user_id"])
        .skip(100, by="event_id")
        .take_n(50)
        .dataset
    )


@q(
    "add_remove_rename",
    """SELECT p_partkey, p_name AS part_name,
              CAST(floor(p_retailprice * 100) AS BIGINT) AS retail_cents
       FROM part""",
)
def add_remove_rename(sf_dir):
    return (
        Pipeline.from_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_retailprice"])
        .add_column("retail_cents", lambda t: _floor_cents(t["p_retailprice"]))
        .rename_column("p_name", "part_name")
        .remove_column("p_retailprice")
        .dataset
    )


@q(
    "unpivot_lineitem",
    """SELECT l_orderkey, l_linenumber, 'qty_c' AS measure,
              CAST(floor(l_quantity * 100) AS BIGINT) AS value FROM lineitem
       UNION ALL
       SELECT l_orderkey, l_linenumber, 'price_c',
              CAST(floor(l_extendedprice * 100) AS BIGINT) FROM lineitem
       UNION ALL
       SELECT l_orderkey, l_linenumber, 'disc_c',
              CAST(floor(l_discount * 100) AS BIGINT) FROM lineitem""",
)
def unpivot_lineitem(sf_dir):
    """Wide→long reshape (SQL UNPIVOT): three lineitem measures melted into
    (id, measure, value) rows — a stateless per-batch column-slice concat,
    no shuffle, rows×3 out (stages/columns.unpivot)."""
    from pipeflow_ray.stages.columns import unpivot

    ds = _lineitem(sf_dir, ["l_orderkey", "l_linenumber", "l_quantity",
                            "l_extendedprice", "l_discount"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "qty_c": _floor_cents(t["l_quantity"]),
                "price_c": _floor_cents(t["l_extendedprice"]),
                "disc_c": _floor_cents(t["l_discount"]),
            }
        )

    melt = unpivot(["l_orderkey", "l_linenumber"], ["qty_c", "price_c", "disc_c"],
                   name_col="measure", value_col="value")
    return ds.map_batches(_prep, batch_format="pyarrow").map_batches(
        melt, batch_format="pyarrow")


@q(
    "fill_missing_value",
    """SELECT event_id, CASE WHEN value < 0.1 THEN 0.0 ELSE value END AS value_filled
       FROM events""",
)
def fill_missing_value(sf_dir):
    def _nullify(t: pa.Table) -> pa.Table:
        v = pc.if_else(pc.less(t["value"], 0.1), pa.scalar(None, pa.float64()), t["value"])
        return pa.table({"event_id": t["event_id"], "value_filled": v})

    return (
        Pipeline.from_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
        .map(_nullify)
        .fill_missing("value_filled", 0.0)
        .dataset
    )


@q(
    "explode_embeddings",
    """SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS emb_val
       FROM embeddings WHERE vec_id < 50""",
)
def explode_embeddings(sf_dir):
    def _cast(t: pa.Table) -> pa.Table:
        return pa.table({"vec_id": t["vec_id"], "emb_val": t["embedding"].cast(pa.float64())})

    return (
        Pipeline.from_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .filter(lambda t: pc.less(t["vec_id"], 50))
        .explode("embedding")
        .map(_cast)
        .dataset
    )


@q(
    "union_names",
    """SELECT r_name AS name FROM region UNION ALL SELECT n_name AS name FROM nation""",
)
def union_names(sf_dir):
    a = Pipeline.from_parquet(f"{sf_dir}/region.parquet", columns=["r_name"]).rename_column("r_name", "name")
    b = Pipeline.from_parquet(f"{sf_dir}/nation.parquet", columns=["n_name"]).rename_column("n_name", "name")
    return a.union(b).dataset


# ---------------------------------------------------------------------------
# joins + grouped aggregation (§2.7/§2.8)
# ---------------------------------------------------------------------------

@q(
    "broadcast_join_brand_revenue",
    """SELECT p.p_brand,
              CAST(count(*) AS BIGINT) AS n,
              CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT)
                  AS revenue_cents
       FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
       GROUP BY p.p_brand""",
)
def broadcast_join_brand_revenue(sf_dir):
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]).to_pandas()
    part = part.rename(columns={"p_partkey": "l_partkey"})
    li = _lineitem(sf_dir, ["l_partkey", "l_extendedprice", "l_discount"])

    def _cents(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rev_c", _floor_cents(pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])))
        )

    li = li.map_batches(_cents, batch_format="pyarrow")
    joined = broadcast_join(li, part, on="l_partkey")
    return partial_aggregate(joined, ["p_brand"], {"n": ("count", None), "revenue_cents": ("sum", "rev_c")})


@q(
    "hash_join_segment",
    """SELECT c.c_mktsegment,
              CAST(count(*) AS BIGINT) AS n_orders,
              CAST(sum(CAST(floor(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
       FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
       GROUP BY c.c_mktsegment""",
)
def hash_join_segment(sf_dir):
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])

    def _cents(t: pa.Table) -> pa.Table:
        return t.append_column("total_c", _floor_cents(t["o_totalprice"]))

    orders = orders.map_batches(_cents, batch_format="pyarrow").map_batches(
        lambda t: t.rename_columns(["c_custkey", "o_totalprice", "total_c"]), batch_format="pyarrow"
    )
    joined = hash_join(orders, cust, on="c_custkey", num_partitions=8)
    return partial_aggregate(joined, ["c_mktsegment"], {"n_orders": ("count", None), "total_cents": ("sum", "total_c")})


@q(
    "group_top_order",
    """SELECT o_custkey, o_orderkey, o_totalprice FROM (
         SELECT o_custkey, o_orderkey, o_totalprice,
                row_number() OVER (PARTITION BY o_custkey
                                   ORDER BY o_totalprice DESC, o_orderkey) AS rn
         FROM orders) WHERE rn = 1""",
)
def group_top_order(sf_dir):
    from pipeflow_ray.stages.dedup import keep_first

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )
    return keep_first(
        ds, ["o_custkey"], [("o_totalprice", "descending"), ("o_orderkey", "ascending")]
    )


@q(
    "validate_documents",
    f"""SELECT doc_id, lang FROM documents
        WHERE text IS NOT NULL AND trim(text, {_TRIM}) != ''
          AND length(text) >= 20 AND lang IN ('en', 'de', 'fr')""",
)
def validate_documents(sf_dir):
    v = DataValidator()
    v.column("text").required().min_length(20)
    v.column("lang").is_in(["en", "de", "fr"])
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    valid = apply_validation(docs, v, "skip")
    return valid.select_columns(["doc_id", "lang"])


# ---------------------------------------------------------------------------
# event-time windows + watermark (§2.10) over the events stream table
# ---------------------------------------------------------------------------

_HOUR_US = 3_600_000_000


@q(
    "tumbling_events",
    """SELECT event_type,
              CAST(epoch_us(ts) // 3600000000 AS BIGINT) * 3600 AS window_start_s,
              CAST(count(*) AS BIGINT) AS n,
              CAST(sum(CAST(floor(value * 1000000) AS BIGINT)) AS BIGINT) AS sum_value_micro
       FROM events GROUP BY event_type, window_start_s""",
)
def tumbling_events(sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def _prep(t: pa.Table) -> pa.Table:
        ws = pc.multiply(pc.divide(t["ts"].cast(pa.int64()), _HOUR_US), 3600)
        vmu = _floor_cents(t["value"], 1_000_000)
        return pa.table({"event_type": t["event_type"], "window_start_s": ws, "v_mu": vmu})

    ds = ds.map_batches(_prep, batch_format="pyarrow")
    return partial_aggregate(
        ds, ["event_type", "window_start_s"], {"n": ("count", None), "sum_value_micro": ("sum", "v_mu")}
    )


@q(
    "sliding_events",
    """WITH b AS (SELECT event_type,
                         CAST(epoch_us(ts) // 3600000000 AS BIGINT) * 3600 AS w
                  FROM events),
          x AS (SELECT event_type, w AS window_start_s FROM b
                UNION ALL
                SELECT event_type, w - 3600 AS window_start_s FROM b)
       SELECT event_type, window_start_s, CAST(count(*) AS BIGINT) AS n
       FROM x GROUP BY event_type, window_start_s""",
)
def sliding_events(sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    ds = ds.map_batches(assign_sliding(7200.0, 3600.0), batch_format="pyarrow")

    def _to_s(t: pa.Table) -> pa.Table:
        ws = pc.divide(t["window_start"].cast(pa.int64()), 1_000_000)
        return pa.table({"event_type": t["event_type"], "window_start_s": ws})

    ds = ds.map_batches(_to_s, batch_format="pyarrow")
    return partial_aggregate(ds, ["event_type", "window_start_s"], {"n": ("count", None)})


@q(
    "session_events",
    """WITH o AS (SELECT user_id, epoch_us(ts) AS tus FROM events),
          m AS (SELECT user_id, tus,
                       CASE WHEN tus - lag(tus) OVER (PARTITION BY user_id ORDER BY tus)
                                 > 1800000000 THEN 1 ELSE 0 END AS brk
                FROM o),
          s AS (SELECT user_id, tus,
                       SUM(brk) OVER (PARTITION BY user_id ORDER BY tus
                                      ROWS UNBOUNDED PRECEDING) AS sid
                FROM m)
       SELECT user_id, CAST(sid AS INT) AS session_id,
              CAST(min(tus) AS BIGINT) AS start_us, CAST(max(tus) AS BIGINT) AS end_us,
              CAST(count(*) AS BIGINT) AS n
       FROM s GROUP BY user_id, sid""",
)
def session_events(sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    agg = session_aggregate(ds, "user_id", gap_s=1800.0, specs={"n": ("count", None)})

    def _to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "session_id": t["session_id"],
                "start_us": t["session_start"].cast(pa.int64()),
                "end_us": t["session_end"].cast(pa.int64()),
                "n": t["n"],
            }
        )

    return agg.map_batches(_to_us, batch_format="pyarrow")


@q(
    "watermark_late",
    """WITH w AS (SELECT max(epoch_us(ts)) - 3600000000 AS wm FROM events)
       SELECT CAST((SELECT wm FROM w) AS BIGINT) AS watermark_us,
              CAST((SELECT count(*) FROM events WHERE epoch_us(ts) >= (SELECT wm FROM w)) AS BIGINT)
                  AS on_time,
              CAST((SELECT count(*) FROM events WHERE epoch_us(ts) < (SELECT wm FROM w)) AS BIGINT)
                  AS late""",
)
def watermark_late(sf_dir):
    from pipeflow_ray.stages.watermark import split_late

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    wm = compute_watermark(ds, lateness_s=3600.0)
    on_time, late = split_late(ds, wm)
    wm_us = int(pd.Timestamp(wm).value // 1000)
    return pa.table(
        {
            "watermark_us": pa.array([wm_us], pa.int64()),
            "on_time": pa.array([on_time.count()], pa.int64()),
            "late": pa.array([late.count()], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# transcripts (flagship input; fixture synthesized deterministically at /tmp —
# the oracle SQL reads the same parquet via read_parquet())
# ---------------------------------------------------------------------------

def _tp(sf_dir: str) -> str:
    return ensure_transcripts(sf_dir)


# the driver runs oracles at sf0.01; fixture path is deterministic
_TP001 = "/tmp/pipeflow_fixtures/sf0.01/transcripts/*.parquet"


@q(
    "transcripts_normalize",
    f"""SELECT conv_id, turn_idx, role,
               CAST(length(trim(coalesce(text, ''), {_TRIM})) AS BIGINT) AS n_chars
        FROM read_parquet('{_TP001}')""",
)
def transcripts_normalize(sf_dir):
    from pipeflow_ray.pipelines.flagship import normalize

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "role", "text"])

    def _tx(t: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(pc.fill_null(t["text"], ""))
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "role": t["role"],
                "n_chars": pc.utf8_length(text).cast(pa.int64()),
            }
        )

    return ds.map_batches(_tx, batch_format="pyarrow")


@q(
    "transcripts_turn_join",
    f"""SELECT u.conv_id, u.turn_idx, r.role AS response_role,
               CAST(epoch_us(r.ts) - epoch_us(u.ts) AS BIGINT) AS latency_us
        FROM read_parquet('{_TP001}') u
        JOIN read_parquet('{_TP001}') r
          ON r.conv_id = u.conv_id AND r.turn_idx = u.turn_idx + 1
        WHERE u.role = 'user' AND r.role IN ('assistant', 'tool')""",
)
def transcripts_turn_join(sf_dir):
    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "role", "tool", "ts"])
    joined = turn_response_join(ds, carry_cols=[])

    def _tx(t: pa.Table) -> pa.Table:
        lat_us = pc.subtract(t["response_ts"].cast(pa.int64()), t["user_ts"].cast(pa.int64()))
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "response_role": t["response_role"],
                "latency_us": lat_us,
            }
        )

    return joined.map_batches(_tx, batch_format="pyarrow")


@q(
    "transcripts_window_pairs",
    f"""WITH pairs AS (
          SELECT u.conv_id, u.ts AS user_ts,
                 epoch_us(r.ts) - epoch_us(u.ts) AS lat_us,
                 length(trim(coalesce(u.text, ''), {_TRIM})) AS uc,
                 length(trim(coalesce(r.text, ''), {_TRIM})) AS rc
          FROM read_parquet('{_TP001}') u
          JOIN read_parquet('{_TP001}') r
            ON r.conv_id = u.conv_id AND r.turn_idx = u.turn_idx + 1
          WHERE u.role = 'user' AND r.role IN ('assistant', 'tool'))
        SELECT conv_id,
               CAST(epoch_us(user_ts) // 3600000000 AS BIGINT) * 3600 AS window_start_s,
               CAST(count(*) AS BIGINT) AS n_pairs,
               CAST(sum(lat_us) AS BIGINT) AS sum_latency_us,
               CAST(sum(uc) AS BIGINT) AS user_chars,
               CAST(sum(rc) AS BIGINT) AS resp_chars
        FROM pairs GROUP BY conv_id, window_start_s""",
)
def transcripts_window_pairs(sf_dir):
    from pipeflow_ray.pipelines.flagship import normalize

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"])
    ds = ds.map_batches(normalize, batch_format="pyarrow")
    joined = turn_response_join(ds, carry_cols=["n_chars"])

    def _prep(t: pa.Table) -> pa.Table:
        ws = pc.multiply(pc.divide(t["user_ts"].cast(pa.int64()), _HOUR_US), 3600)
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "window_start_s": ws,
                "lat_us": pc.subtract(t["response_ts"].cast(pa.int64()), t["user_ts"].cast(pa.int64())),
                "uc": t["user_n_chars"].cast(pa.int64()),
                "rc": t["response_n_chars"].cast(pa.int64()),
            }
        )

    prepped = joined.map_batches(_prep, batch_format="pyarrow")
    return partial_aggregate(
        prepped,
        ["conv_id", "window_start_s"],
        {
            "n_pairs": ("count", None),
            "sum_latency_us": ("sum", "lat_us"),
            "user_chars": ("sum", "uc"),
            "resp_chars": ("sum", "rc"),
        },
    )


@q(
    "transcripts_sessions",
    f"""WITH o AS (SELECT conv_id, epoch_us(ts) AS tus, length(coalesce(text, '')) AS nc
                   FROM read_parquet('{_TP001}')),
           m AS (SELECT conv_id, tus, nc,
                        CASE WHEN tus - lag(tus) OVER (PARTITION BY conv_id ORDER BY tus)
                                  > 1800000000 THEN 1 ELSE 0 END AS brk
                 FROM o),
           s AS (SELECT conv_id, tus, nc,
                        SUM(brk) OVER (PARTITION BY conv_id ORDER BY tus
                                       ROWS UNBOUNDED PRECEDING) AS sid
                 FROM m)
        SELECT conv_id, CAST(sid AS INT) AS session_id,
               CAST(min(tus) AS BIGINT) AS start_us, CAST(max(tus) AS BIGINT) AS end_us,
               CAST(count(*) AS BIGINT) AS n_turns, CAST(sum(nc) AS BIGINT) AS n_chars
        FROM s GROUP BY conv_id, sid""",
)
def transcripts_sessions(sf_dir):
    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "text", "ts"])

    def _nc(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "ts": t["ts"],
                "nc": pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64()),
            }
        )

    ds = ds.map_batches(_nc, batch_format="pyarrow")
    agg = session_aggregate(ds, "conv_id", gap_s=1800.0, specs={"n_turns": ("count", None), "n_chars": ("sum", "nc")})

    def _to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "session_id": t["session_id"],
                "start_us": t["session_start"].cast(pa.int64()),
                "end_us": t["session_end"].cast(pa.int64()),
                "n_turns": t["n_turns"],
                "n_chars": t["n_chars"],
            }
        )

    return agg.map_batches(_to_us, batch_format="pyarrow")


@q(
    "session_interval_join",
    f"""WITH o AS (SELECT conv_id, turn_idx, epoch_us(ts) AS tus
                   FROM read_parquet('{_TP001}')),
           m AS (SELECT conv_id, tus, turn_idx,
                        CASE WHEN tus - lag(tus) OVER (PARTITION BY conv_id ORDER BY tus)
                                  > 1800000000 THEN 1 ELSE 0 END AS brk
                 FROM o),
           s AS (SELECT conv_id, tus, turn_idx,
                        SUM(brk) OVER (PARTITION BY conv_id ORDER BY tus
                                       ROWS UNBOUNDED PRECEDING) AS sid
                 FROM m),
           sess AS (SELECT conv_id, sid, CAST(min(tus) AS BIGINT) AS start_us,
                           CAST(max(tus) AS BIGINT) AS end_us
                    FROM s GROUP BY conv_id, sid)
        SELECT o.conv_id, CAST(o.turn_idx AS BIGINT) AS turn_idx,
               CAST(sess.sid AS BIGINT) AS session_id, sess.start_us
        FROM o JOIN sess ON sess.conv_id = o.conv_id
                        AND o.tus BETWEEN sess.start_us AND sess.end_us""",
)
def session_interval_join(sf_dir):
    """INTERVAL JOIN (point-in-interval): every turn matched to the session
    window containing its event time — non-overlapping intervals per key, so
    the operator composes as co-partitioned as-of (backward on start) + an
    end-bound filter (stages/join.interval_join). 50k turns → 50k matches
    at sf0.01 (every turn lies in exactly one session)."""
    from pipeflow_ray.stages.join import interval_join

    turns = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "ts"])

    def _l(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"].cast(pa.int64()),
                "ts_us": t["ts"].cast(pa.int64()),
            }
        )

    left = turns.map_batches(_l, batch_format="pyarrow")

    base = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "ts"])
    sess = session_aggregate(base, "conv_id", gap_s=1800.0, specs={"n": ("count", None)})

    def _r(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "session_id": t["session_id"].cast(pa.int64()),
                "start_us": t["session_start"].cast(pa.int64()),
                "end_us": t["session_end"].cast(pa.int64()),
            }
        )

    right = sess.map_batches(_r, batch_format="pyarrow")
    joined = interval_join(left, right, "conv_id")

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "session_id": t["session_id"].cast(pa.int64()),
                "start_us": t["start_us"].cast(pa.int64()),
            }
        )

    return joined.map_batches(_fmt, batch_format="pyarrow")


@q(
    "streaming_sessions",
    f"""WITH o AS (SELECT conv_id, epoch_us(ts) AS tus, length(coalesce(text, '')) AS nc
                   FROM read_parquet('{_TP001}')),
           m AS (SELECT conv_id, tus, nc,
                        CASE WHEN tus - lag(tus) OVER (PARTITION BY conv_id ORDER BY tus)
                                  > 1800000000 THEN 1 ELSE 0 END AS brk
                 FROM o),
           s AS (SELECT conv_id, tus, nc,
                        SUM(brk) OVER (PARTITION BY conv_id ORDER BY tus
                                       ROWS UNBOUNDED PRECEDING) AS sid
                 FROM m)
        SELECT conv_id,
               CAST(min(tus) AS BIGINT) AS start_us, CAST(max(tus) AS BIGINT) AS end_us,
               CAST(count(*) AS BIGINT) AS n_turns, CAST(sum(nc) AS BIGINT) AS n_chars
        FROM s GROUP BY conv_id, sid""",
)
def streaming_sessions(sf_dir):
    """Micro-batch streaming runtime (parallel shard replay + global
    min-watermark + actor state — every byte decodes in replayer actors, the
    driver only coordinates epochs); with lateness covering the fixture's
    injected 2h disorder the result equals event-time sessionization, which
    is what the SQL oracle states."""
    from pipeflow_ray.pipelines.streaming import ParallelStreamingRunner

    runner = ParallelStreamingRunner(gap_s=1800.0, lateness_s=3 * 3600.0, num_buckets=8)
    sessions, _metrics = runner.run(_tp(sf_dir))
    out = pd.DataFrame(
        {
            "conv_id": sessions.conv_id,
            "start_us": sessions.session_start.astype("datetime64[us]").astype(np.int64),
            "end_us": sessions.session_end.astype("datetime64[us]").astype(np.int64),
            "n_turns": sessions.n_turns.astype(np.int64),
            "n_chars": sessions.n_chars.astype(np.int64),
        }
    )
    return out


@q(
    "top3_orders_per_customer",
    """SELECT o_custkey, o_orderkey, price_cents, rn FROM (
         SELECT o_custkey, o_orderkey,
                CAST(floor(o_totalprice * 100) AS BIGINT) AS price_cents,
                CAST(row_number() OVER (PARTITION BY o_custkey
                     ORDER BY floor(o_totalprice * 100) DESC, o_orderkey) AS BIGINT) AS rn
         FROM orders) WHERE rn <= 3""",
)
def top3_orders_per_customer(sf_dir):
    """Top-N per key (row_number() <= n): each customer's 3 highest-price
    orders with a deterministic orderkey tiebreak. Per-batch combiner caps
    shuffle at N rows per key per batch (stages/dedup.top_n_per_key)."""
    from pipeflow_ray.stages.dedup import top_n_per_key

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "o_orderkey": t["o_orderkey"],
                "price_cents": _floor_cents(t["o_totalprice"]),
            }
        )

    ds = ds.map_batches(_prep, batch_format="pyarrow")
    out = top_n_per_key(
        ds, ["o_custkey"],
        [("price_cents", "descending"), ("o_orderkey", "ascending")], n=3,
    )

    def _cast(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index("rn"), "rn",
                            t["rn"].cast(pa.int64()))

    return out.map_batches(_cast, batch_format="pyarrow")


@q(
    "role_sequence_transcripts",
    f"""SELECT conv_id, string_agg(role, ',' ORDER BY turn_idx) AS roles
        FROM read_parquet('{_TP001}') GROUP BY conv_id""",
)
def role_sequence_transcripts(sf_dir):
    """Ordered group concatenation (string_agg ... ORDER BY): the full role
    sequence of every conversation (stages/dedup.group_concat)."""
    from pipeflow_ray.stages.dedup import group_concat

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "role"])
    return group_concat(ds, ["conv_id"], "role", "turn_idx", sep=",", out="roles")


_CONV_DEDUP_SQL = f"""WITH sig AS (SELECT conv_id,
             string_agg(coalesce(role, chr(29)) || chr(31) || coalesce(tool, chr(29)),
                        chr(30) ORDER BY turn_idx) AS s
         FROM read_parquet('{_TP001}') GROUP BY conv_id),
     g AS (SELECT s, min(conv_id) AS canonical_conv_id,
                  CAST(count(*) AS BIGINT) AS group_size FROM sig GROUP BY s)
    SELECT sig.conv_id, g.canonical_conv_id,
           CAST(CASE WHEN sig.conv_id <> g.canonical_conv_id THEN 1 ELSE 0 END AS BIGINT)
               AS is_dup,
           g.group_size
    FROM sig JOIN g USING (s)"""


@q("conv_dedup_transcripts", _CONV_DEDUP_SQL)
def conv_dedup_transcripts(sf_dir):
    """Conversation template dedup (round 5): conversations with an identical
    ordered (role, tool) turn sequence form one group; the smallest conv_id
    is canonical (functions/dedup.conv_template_dedup — conv-keyed exchange
    for the signature scan, then an int-only signature exchange for the
    group-min; NULL tool maps to chr(29) in both engines so NULL ≠ '').
    The agent-trajectory shape-balancing primitive."""
    from pipeflow_ray.functions.dedup import conv_template_dedup

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "role", "tool"])
    return conv_template_dedup(ds)


@q("streaming_conv_dedup", _CONV_DEDUP_SQL)
def streaming_conv_dedup(sf_dir):
    """Conversation template dedup ON INGEST (round 5): parallel shard
    replayers pre-reduce each micro-batch to per-conv partial signatures and
    route them to bucketed state actors; the wrapping-sum combine is
    commutative, so turns split across shards/replayers/batches in any
    interleaving give the batch-identical result — the SAME SQL oracle as
    conv_dedup_transcripts (pipelines/streaming.StreamingConvDedupRunner)."""
    from pipeflow_ray.pipelines.streaming import StreamingConvDedupRunner

    out, _metrics = StreamingConvDedupRunner().run(_tp(sf_dir))
    return out


@q(
    "tool_sequence_transcripts",
    f"""SELECT conv_id, string_agg(tool, ',' ORDER BY turn_idx) AS tools
        FROM read_parquet('{_TP001}') GROUP BY conv_id""",
)
def tool_sequence_transcripts(sf_dir):
    """string_agg over a NULLABLE column: tool is null on non-tool turns, so
    conversations with no tool calls are ALL-NULL groups — SQL emits them
    with a NULL aggregate, and so does group_concat (round-4 VERDICT #5)."""
    from pipeflow_ray.stages.dedup import group_concat

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "tool"])
    return group_concat(ds, ["conv_id"], "tool", "turn_idx", sep=",", out="tools")


@q(
    "role_pivot_transcripts",
    f"""SELECT conv_id,
               CAST(sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT) AS n_user,
               CAST(sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT) AS n_assistant,
               CAST(sum(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT) AS n_tool
        FROM read_parquet('{_TP001}') GROUP BY conv_id""",
)
def role_pivot_transcripts(sf_dir):
    """Pivot-by-category as conditional aggregation: per-conversation turn
    counts by role, via indicator columns + the partial-aggregate combiner
    (no new operator needed — the pivot is a projection)."""
    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "role"])

    def _ind(t: pa.Table) -> pa.Table:
        role = t["role"]
        one = pa.scalar(1, pa.int64())
        zero = pa.scalar(0, pa.int64())
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "iu": pc.if_else(pc.equal(role, "user"), one, zero),
                "ia": pc.if_else(pc.equal(role, "assistant"), one, zero),
                "it": pc.if_else(pc.equal(role, "tool"), one, zero),
            }
        )

    ds = ds.map_batches(_ind, batch_format="pyarrow")
    return partial_aggregate(
        ds, ["conv_id"],
        {"n_user": ("sum", "iu"), "n_assistant": ("sum", "ia"), "n_tool": ("sum", "it")},
    )


@q(
    "pivot_wider_transcripts",
    f"""SELECT conv_id,
               CAST(sum(CASE WHEN role = 'assistant'
                             THEN length(coalesce(text, '')) ELSE 0 END) AS BIGINT)
                   AS chars_assistant,
               CAST(sum(CASE WHEN role = 'tool'
                             THEN length(coalesce(text, '')) ELSE 0 END) AS BIGINT)
                   AS chars_tool,
               CAST(sum(CASE WHEN role = 'user'
                             THEN length(coalesce(text, '')) ELSE 0 END) AS BIGINT)
                   AS chars_user
        FROM read_parquet('{_TP001}') GROUP BY conv_id""",
)
def pivot_wider_transcripts(sf_dir):
    """GENERIC long→wide pivot (the unpivot inverse, subsuming the
    hand-rolled role_pivot): per-conversation character totals split by
    role, with the category set DISCOVERED from the data (a tiny distinct
    pass), then one indicator projection into the partial-aggregate
    combiner (stages/columns.pivot_wider)."""
    from pipeflow_ray.stages.columns import pivot_wider

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "role", "text"])

    def _nc(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "role": t["role"],
                "nc": pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64()),
            }
        )

    return pivot_wider(ds.map_batches(_nc, batch_format="pyarrow"),
                       ["conv_id"], "role", "nc", agg="sum", prefix="chars_")


@q(
    "bloom_join_orders",
    """SELECT o.o_orderkey, o.o_custkey,
              CAST(floor(o.o_totalprice * 100) AS BIGINT) AS price_c,
              c.c_nationkey
       FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
       WHERE c.c_nationkey = 7""",
)
def bloom_join_orders(sf_dir):
    """Low-selectivity join behind a BLOOM PREFILTER: orders joined to the
    ~1/25 of customers in one nation — the probe side is pruned to
    matching + ~0.2% FP rows BEFORE its exchange (no false negatives, so
    the inner-join result is exactly the unfiltered one; the SQL oracle
    states that equality). The shuffle-volume story for sparse joins at
    100 TB (stages/join.bloom_prefilter)."""
    from pipeflow_ray.stages.join import bloom_prefilter, hash_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"],
        filter=pads.field("c_nationkey") == 7,
    )

    def _ckey(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t["c_custkey"],
                         "c_nationkey": t["c_nationkey"].cast(pa.int32())})

    build = cust.map_batches(_ckey, batch_format="pyarrow")
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def _price(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "price_c": _floor_cents(t["o_totalprice"])})

    probe = bloom_prefilter(orders.map_batches(_price, batch_format="pyarrow"),
                            build, "o_custkey")
    return hash_join(probe, build, on="o_custkey", how="inner")


@q(
    "semi_join_customers",
    """SELECT c_custkey, c_mktsegment FROM customer c
       WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)""",
)
def semi_join_customers(sf_dir):
    """Distributed semi-join (SQL EXISTS): customers that placed at least one
    order — co-partitioned is_in keep-matches, the complement of anti_join;
    the orders side ships only bucket-local distinct keys."""
    from pipeflow_ray.stages.join import semi_join

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_mktsegment"])
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return semi_join(cust, orders, "c_custkey", "o_custkey")


@q(
    "quantiles_lineitem",
    """SELECT l_returnflag,
              CAST(count(*) AS BIGINT) AS n,
              CAST(quantile_disc(CAST(l_quantity AS BIGINT), 0.25) AS BIGINT) AS p25,
              CAST(quantile_disc(CAST(l_quantity AS BIGINT), 0.50) AS BIGINT) AS p50,
              CAST(quantile_disc(CAST(l_quantity AS BIGINT), 0.75) AS BIGINT) AS p75
       FROM lineitem GROUP BY l_returnflag""",
)
def quantiles_lineitem(sf_dir):
    """Distributed EXACT grouped quantiles (percentile_disc semantics) via
    per-batch value-histogram combiners — shuffle carries O(keys × distinct
    values) partials, never rows (stages/window.grouped_quantiles)."""
    from pipeflow_ray.stages.window import grouped_quantiles

    ds = _lineitem(sf_dir, ["l_returnflag", "l_quantity"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {"l_returnflag": t["l_returnflag"], "qty": t["l_quantity"].cast(pa.int64())}
        )

    ds = ds.map_batches(_prep, batch_format="pyarrow")
    # output columns: l_returnflag, n, p25, p50, p75 — named as in the SQL
    return grouped_quantiles(ds, ["l_returnflag"], "qty", qs=(0.25, 0.5, 0.75))


@q(
    "turn_analytics_transcripts",
    f"""SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
               CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER w AS BIGINT) AS delta_us,
               CAST(sum(length(coalesce(text, ''))) OVER (
                    PARTITION BY conv_id ORDER BY turn_idx
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_chars,
               CAST(sum(length(coalesce(text, ''))) OVER (
                    PARTITION BY conv_id ORDER BY turn_idx
                    ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll3_chars,
               CAST(row_number() OVER w AS BIGINT) AS rn
        FROM read_parquet('{_TP001}')
        WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)""",
)
def turn_analytics_transcripts(sf_dir):
    """SQL window-function family as a distributed operator: per-conversation
    inter-turn latency (diff of event time), running char total (cumsum) and
    row_number, ordered by turn_idx (stages/window.keyed_window_functions).
    Text is reduced to n_chars BEFORE the exchange (shuffle carries 4 int
    columns, never text)."""
    from pipeflow_ray.stages.window import keyed_window_functions

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "text", "ts"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"].cast(pa.int64()),
                "nc": pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64()),
                "ts_us": t["ts"].cast(pa.int64()),
            }
        )

    pruned = ds.map_batches(_prep, batch_format="pyarrow")
    out = keyed_window_functions(
        pruned, "conv_id", "turn_idx",
        {"delta_us": ("diff", "ts_us"), "cum_chars": ("cumsum", "nc"),
         "roll3_chars": ("rolling_sum", "nc", 3), "rn": ("row_number",)},
    )

    def _project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "delta_us": t["delta_us"].cast(pa.int64()),
                "cum_chars": t["cum_chars"].cast(pa.int64()),
                "roll3_chars": t["roll3_chars"].cast(pa.int64()),
                "rn": t["rn"].cast(pa.int64()),
            }
        )

    return out.map_batches(_project, batch_format="pyarrow")


_CEP_SQL = f"""WITH s AS (
      SELECT conv_id, turn_idx, role, tool, epoch_us(ts) AS ts_us,
             lead(role, 1) OVER w AS role1, lead(role, 2) OVER w AS role2,
             lead(tool, 1) OVER w AS tool1,
             lead(turn_idx, 2) OVER w AS ti2, lead(epoch_us(ts), 2) OVER w AS ts2
      FROM read_parquet('{_TP001}')
      WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
    SELECT conv_id, CAST(turn_idx AS BIGINT) AS start_turn_idx,
           CAST(ti2 AS BIGINT) AS end_turn_idx,
           CAST(ts_us AS BIGINT) AS start_ts_us, CAST(ts2 AS BIGINT) AS end_ts_us,
           tool1 AS tool
    FROM s WHERE role = 'user' AND role1 = 'tool' AND role2 = 'user'
      AND ti2 = turn_idx + 2 AND ts2 - ts_us BETWEEN 0 AND 600000000"""

# the user→tool→user pattern: a user request answered by a tool invocation
# then handed back to the user, all within 10 minutes — emits the tool name
# of the middle step
_CEP_STEPS = [{"role": "user"}, {"role": "tool"}, {"role": "user"}]
_CEP_EMIT = ((1, "tool", "tool"),)
_CEP_WITHIN_US = 600_000_000


@q("cep_pattern_turns", _CEP_SQL)
def cep_pattern_turns(sf_dir):
    """Batch CEP sequence matching (MATCH_RECOGNIZE-lite): every consecutive
    user→tool→user turn triple per conversation within 10 minutes. Step
    bitmasks + column pruning before the single conv_id exchange; one
    vectorized shifted-AND scan per bucket (stages/cep.py)."""
    from pipeflow_ray.stages.cep import match_pattern, pattern_columns

    ds = ray.data.read_parquet(
        _tp(sf_dir), columns=pattern_columns(_CEP_STEPS, _CEP_EMIT)
    )
    return match_pattern(ds, _CEP_STEPS, within_us=_CEP_WITHIN_US, emit=_CEP_EMIT)


@q("streaming_cep_pattern", _CEP_SQL)
def streaming_cep_pattern(sf_dir):
    """STREAMING CEP: the same pattern matched by the parallel-replay runtime
    (partial-match tails in bucket actors, exactly-once emission when the
    global min-watermark seals a match's last row). With lateness covering
    the fixture's injected 2h disorder the emissions equal the batch scan,
    which is what the shared SQL oracle states."""
    from pipeflow_ray.pipelines.streaming import ParallelCepRunner

    runner = ParallelCepRunner(
        _CEP_STEPS, within_us=_CEP_WITHIN_US, emit=_CEP_EMIT,
        lateness_s=3 * 3600.0, num_buckets=8,
    )
    matches, _metrics = runner.run(_tp(sf_dir))
    return matches


def _derive_nc_value(t: pa.Table) -> pa.Table:
    """Replayer-side derivation for the streaming quantile runner."""
    return t.append_column(
        "value", pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64())
    )


@q(
    "streaming_quantiles_transcripts",
    f"""SELECT role,
               CAST(count(*) AS BIGINT) AS n,
               CAST(quantile_disc(length(coalesce(text, '')), 0.25) AS BIGINT) AS p25,
               CAST(quantile_disc(length(coalesce(text, '')), 0.50) AS BIGINT) AS p50,
               CAST(quantile_disc(length(coalesce(text, '')), 0.75) AS BIGINT) AS p75
        FROM read_parquet('{_TP001}') GROUP BY role""",
)
def streaming_quantiles_transcripts(sf_dir):
    """STREAMING exact grouped quantiles (aggregate-on-ingest): per-role
    turn-length quartiles in ONE pass — per-batch (key, value)→count
    combiners in the replayers, commutative histogram merge in bucket
    actors, per-bucket percentile_disc readout at flush
    (pipelines/streaming.StreamingQuantileRunner)."""
    from pipeflow_ray.pipelines.streaming import StreamingQuantileRunner

    runner = StreamingQuantileRunner(
        "role", qs=(0.25, 0.5, 0.75), value_fn=_derive_nc_value,
        columns=["role", "text"], num_buckets=4,
    )
    result, _metrics = runner.run(_tp(sf_dir))
    return result


# --------------------------------------------------------------------------
# deterministic data mixing (functions/sampling): the keep/repeat decision is
# splitmix64(doc_id + seed) — replayed bit-exactly in SQL, so the sampled /
# upsampled OUTPUT ROWS are value-hash verified, not just count-checked
# --------------------------------------------------------------------------

_MIX_SEED = 1234
_MIX_FRACTIONS = {"en": 0.5, "fr": 0.25, "es": 0.75, "de": 0.125, "zh": 1.0}
_MIX_WEIGHTS = {"en": 0.5, "fr": 2.25, "es": 1.0, "de": 3.5, "zh": 1.75}


def _mix_threshold(f: float) -> int:
    """The uint64 threshold the Ray side computes — same float64 rounding.
    f ≥ 1 rows short-circuit on keep_all in the SQL (and on the full-keep
    mask Ray-side), so return 0 instead of evaluating the out-of-range cast
    ``uint64(1.0 * 2^64)`` (undefined; raises RuntimeWarning at import)."""
    if f >= 1.0:
        return 0
    return int((np.float64(f) * np.float64(1 << 64)).astype(np.uint64))


def _mix_sql(kind: str) -> str:
    from pipeflow_ray.functions.sampling import splitmix64_sql

    hcols = splitmix64_sql("doc_id", _MIX_SEED)
    if kind == "sample":
        vals = ", ".join(
            f"('{k}', CAST('{_mix_threshold(f)}' AS UBIGINT), {int(f >= 1.0)})"
            for k, f in _MIX_FRACTIONS.items()
        )
        return f"""WITH h AS (SELECT doc_id, lang, n_chars, {hcols} FROM documents),
            thr(lang, t, keep_all) AS (VALUES {vals})
            SELECT doc_id, lang, CAST(n_chars AS BIGINT) AS n_chars
            FROM h JOIN thr USING (lang)
            WHERE keep_all = 1 OR __h < t"""
    vals = ", ".join(
        f"('{k}', {int(np.floor(w))}, CAST('{_mix_threshold(w - np.floor(w))}' AS UBIGINT))"
        for k, w in _MIX_WEIGHTS.items()
    )
    return f"""WITH h AS (SELECT doc_id, lang, n_chars, {hcols} FROM documents),
        w(lang, base, t) AS (VALUES {vals}),
        r AS (SELECT doc_id, lang, n_chars,
                     base + CASE WHEN __h < t THEN 1 ELSE 0 END AS reps
              FROM h JOIN w USING (lang))
        SELECT doc_id, lang, CAST(n_chars AS BIGINT) AS n_chars,
               CAST(unnest(range(reps)) AS BIGINT) AS copy_idx
        FROM r"""


@q("stratified_sample_docs", _mix_sql("sample"))
def stratified_sample_docs(sf_dir):
    """Deterministic source mixing (DOWN-sampling): per-language Bernoulli
    keep driven by splitmix64(doc_id + seed) — shuffle-free, reproducible
    under any partitioning/retry, and value-hash verified row-for-row (the
    oracle replays the same hash in SQL via HUGEINT split-multiply)."""
    from pipeflow_ray.functions.sampling import stratified_sample

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])
    return stratified_sample(ds, "lang", _MIX_FRACTIONS, id_col="doc_id",
                             seed=_MIX_SEED)


@q("upsample_docs", _mix_sql("upsample"))
def upsample_docs(sf_dir):
    """Deterministic source mixing (UP-sampling): per-language weighted
    repetition — floor(w) copies plus one more iff the id hash lands under
    frac(w)·2^64; expected multiplicity exactly w, copy_idx keeps output
    rows distinct. Same bit-exact SQL replay as stratified_sample_docs."""
    from pipeflow_ray.functions.sampling import upsample

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])
    return upsample(ds, "lang", _MIX_WEIGHTS, id_col="doc_id", seed=_MIX_SEED)


_SKETCH_QS = (0.25, 0.5, 0.75)
_SKETCH_EPS = 0.02  # tolerated normalized rank error; KLL k=400 delivers ~0.3%


def _sketch_within(ds, key_col, value_col, est, qs=_SKETCH_QS, eps=_SKETCH_EPS):
    """Distributed tolerance audit for sketch quantile estimates: exact
    ``count(x ≤ est_q)`` per (key, q) via per-batch vectorized counts + the
    partial-aggregate combiner (a second streaming pass — the estimates
    table is 3 rows, broadcast by closure capture), then the per-key
    percentile_disc rank-error readout: the estimate passes when its true
    rank is within ``eps·n`` of ``q·n`` (the rank DuckDB ``quantile_disc``
    selects). Returns (key, n, n_within) — n exact, n_within = #quantiles
    inside tolerance."""
    import numpy as _np

    qcols = [f"p{int(round(q * 100)):02d}" for q in qs]
    thresholds = {
        row[key_col]: _np.array([row[c] for c in qcols], _np.float64)
        for _, row in est.iterrows()
    }

    def _counts(df):
        vals = df[value_col].to_numpy(_np.float64)
        out = {key_col: [], "n_part": []}
        for i in range(len(qs)):
            out[f"c{i}"] = []
        for kv, idx in df.groupby(key_col, sort=False).indices.items():
            th = thresholds.get(kv)
            if th is None:
                continue
            v = vals[idx]
            out[key_col].append(kv)
            out["n_part"].append(len(v))
            for i, t in enumerate(th):
                out[f"c{i}"].append(int((v <= t).sum()))
        return pd.DataFrame(out)

    specs = {"n": ("sum", "n_part")}
    for i in range(len(qs)):
        specs[f"r{i}"] = ("sum", f"c{i}")
    agg = partial_aggregate(
        ds.map_batches(_counts, batch_format="pandas"), [key_col], specs
    ).to_pandas()

    n = agg["n"].to_numpy(_np.float64)
    within = _np.zeros(len(agg), _np.int64)
    for i, q in enumerate(qs):
        within += (
            _np.abs(agg[f"r{i}"].to_numpy(_np.float64) - q * n) <= eps * n
        ).astype(_np.int64)
    return pd.DataFrame(
        {key_col: agg[key_col], "n": agg["n"].astype("int64"), "n_within": within}
    )


@q(
    "sketch_quantiles_price",
    """SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
              CAST(3 AS BIGINT) AS n_within
       FROM lineitem GROUP BY l_returnflag""",
)
def sketch_quantiles_price(sf_dir):
    """APPROXIMATE grouped quantiles over an unbounded CONTINUOUS domain
    (l_extendedprice: ~99.7% distinct — the case where exact value
    histograms degrade toward O(rows) state): mergeable KLL sketches, one
    per (batch, key), merged commutatively after one key exchange
    (stages/window.grouped_quantiles_sketch; round-3 VERDICT #2). The gate
    is a rank-error audit against the percentile_disc rank DuckDB
    quantile_disc would select: a second distributed pass counts each
    estimate's exact rank; n_within = quantiles within ±2% normalized rank
    (KLL k=400 measures ~0.3%); n is exact."""
    from pipeflow_ray.stages.window import grouped_quantiles_sketch

    cols = ["l_returnflag", "l_extendedprice"]
    est = grouped_quantiles_sketch(
        _lineitem(sf_dir, cols), ["l_returnflag"], "l_extendedprice",
        qs=_SKETCH_QS,
    ).to_pandas()
    return _sketch_within(_lineitem(sf_dir, cols), "l_returnflag",
                          "l_extendedprice", est)


@q(
    "streaming_sketch_quantiles",
    """SELECT event_type, CAST(count(*) AS BIGINT) AS n,
              CAST(3 AS BIGINT) AS n_within
       FROM events GROUP BY event_type""",
)
def streaming_sketch_quantiles(sf_dir):
    """STREAMING approximate grouped quantiles on ingest over a continuous
    domain (events.value, ~90% distinct): replayers shrink micro-batches to
    per-key KLL sketches, bucket actors merge them commutatively, quantiles
    read at flush — state O(keys · k · log(n/k)) vs the exact runner's
    O(distinct values) (pipelines/streaming.StreamingSketchQuantileRunner).
    Audited like sketch_quantiles_price: exact rank counts of the sketch
    estimates within ±2% of the quantile_disc target ranks."""
    from pipeflow_ray.pipelines.streaming import StreamingSketchQuantileRunner

    runner = StreamingSketchQuantileRunner(
        "event_type", qs=_SKETCH_QS, columns=["event_type", "value"],
        num_buckets=4,
    )
    est, _metrics = runner.run(f"{sf_dir}/events.parquet")
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
    return _sketch_within(ds, "event_type", "value", est)


def _hll_audit(ds, key_col: str, value_col: str, est: pd.DataFrame,
               eps: float = 0.05) -> pd.DataFrame:
    """Distributed exact-distinct audit for HLL estimates: per-batch
    (key, hash) dedup combiner (the SAME deterministic 64-bit value hash
    the HLL folded; the exchange ships O(batch-distinct) ints, never
    values) → one key exchange → nunique per key. Returns (key, n, within)
    with n exact and within = 1 iff |estimate − exact| ≤ eps·exact."""
    from pipeflow_ray.stages.core import grouped_by_bucket

    def _fp(df):
        h = pd.util.hash_array(df[value_col].to_numpy())
        return pd.DataFrame({key_col: df[key_col], "h": h}).drop_duplicates()

    def _nunique(df):
        return df.groupby(key_col, sort=False)["h"].nunique() \
                 .rename("exact").reset_index()

    exact = grouped_by_bucket(
        ds.map_batches(_fp, batch_format="pandas"), [key_col], _nunique,
    ).to_pandas()
    m = est.merge(exact, on=key_col)
    within = np.abs(m.approx_distinct - m.exact) <= eps * m.exact
    return pd.DataFrame({key_col: m[key_col], "n": m.n.astype("int64"),
                         "within": within.astype("int64")})


@q(
    "streaming_hll_distinct",
    f"""SELECT role, CAST(count(*) AS BIGINT) AS n, CAST(1 AS BIGINT) AS within
        FROM read_parquet('{_TP001}') GROUP BY role""",
)
def streaming_hll_distinct(sf_dir):
    """STREAMING approximate distinct on ingest (HLL): per-role distinct
    turn texts, replayers folding each micro-batch into one 4 KiB register
    array per key, bucket actors merging by element-wise max — state
    O(keys · 2^p) bytes vs dedup-on-ingest's O(distinct) ints
    (pipelines/streaming.StreamingHLLRunner). Audited like the sketch
    quantiles (`_hll_audit`): a distributed exact-distinct pass checks the
    estimate within ±5% (p=12 standard error ~1.6%); n is exact."""
    from pipeflow_ray.pipelines.streaming import StreamingHLLRunner

    est, _metrics = StreamingHLLRunner("role", "text", num_buckets=2).run(
        _tp(sf_dir))
    ds = ray.data.read_parquet(_tp(sf_dir), columns=["role", "text"])
    return _hll_audit(ds, "role", "text", est)


@q(
    "hll_distinct_orders",
    """SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n,
              CAST(1 AS BIGINT) AS within
       FROM orders GROUP BY o_orderpriority""",
)
def hll_distinct_orders(sf_dir):
    """BATCH per-key approximate distinct (the StreamingHLLRunner twin):
    distinct customers per order priority via per-(batch, key) HLL register
    combiners merged after one key exchange — raw values never shuffle
    (functions/sketches.grouped_approx_distinct). Same ±5% distributed
    exact-distinct audit; n exact."""
    from pipeflow_ray.functions.sketches import grouped_approx_distinct

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderpriority", "o_custkey"])
    est = grouped_approx_distinct(ds, ["o_orderpriority"], "o_custkey") \
        .to_pandas()
    return _hll_audit(ds, "o_orderpriority", "o_custkey", est)


@q(
    "streaming_topk_convs",
    f"""SELECT conv_id, n FROM (
          SELECT conv_id, CAST(count(*) AS BIGINT) AS n,
                 row_number() OVER (ORDER BY count(*) DESC, conv_id) AS rn
          FROM read_parquet('{_TP001}') GROUP BY conv_id) WHERE rn <= 3""",
)
def streaming_topk_convs(sf_dir):
    """STREAMING heavy hitters on ingest: the 3 hottest conversations found
    with BOUNDED state (space-saving summaries, ≤ num_buckets × m entries
    total regardless of distinct-conversation count —
    pipelines/streaming.StreamingTopKRunner), then an exact recount of just
    the ≤64 sketch candidates (broadcast id list, one combiner pass) makes
    the emitted counts exact. Sizing rule: a key is guaranteed retained
    when its count exceeds bucket_rows / m, so m must exceed
    bucket_rows / (target count) — the fixture's rank-2+ conversations sit
    near 500 turns at every sf, so m = 1024 covers the bench scales
    (sf0.1: 125k rows/bucket → threshold ≈ 122 ≪ 502) while state stays
    ≤ 4096 entries regardless of conversation count."""
    from pipeflow_ray.pipelines.streaming import StreamingTopKRunner
    from pipeflow_ray.stages.window import partial_aggregate

    res, _metrics = StreamingTopKRunner("conv_id", m=1024, num_buckets=4).run(
        _tp(sf_dir))
    # Sound candidate rule (tie-safe): anything that could still be top-3
    # has est ≥ L, the 3rd-largest guaranteed lower bound (est − err); keys
    # never retained have true ≤ bucket_rows/m < L under the sizing rule
    # above, so the candidate set provably contains every top-3 contender —
    # including ALL members of a tie at the boundary, whichever shard
    # interleaving the sketch saw.
    lower = (res.est - res.err).nlargest(3).iloc[-1]
    cand = pa.array(res.loc[res.est >= lower, "conv_id"].tolist())

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id"])

    def _flt(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["conv_id"], value_set=cand))

    agg = partial_aggregate(ds.map_batches(_flt, batch_format="pyarrow"),
                            ["conv_id"], {"n": ("count", None)}).to_pandas()
    top = agg.sort_values(["n", "conv_id"], ascending=[False, True]).head(3)
    return pd.DataFrame({"conv_id": top.conv_id,
                         "n": top.n.astype("int64")}).reset_index(drop=True)


# >32-step library entry (round-4 VERDICT #6): a 34-step strict alternation
# user,(assistant|tool),user,… — its oracle is a generated 33-fold lead()
# chain over the same window
_K_LONG = 34
_LONG_LEADS = ",\n             ".join(
    f"lead(role, {j}) OVER w AS lr{j}" for j in range(1, _K_LONG)
) + f""",
             lead(turn_idx, {_K_LONG - 1}) OVER w AS lti,
             lead(epoch_us(ts), {_K_LONG - 1}) OVER w AS lts"""
_LONG_CONDS = " AND ".join(
    [f"role = 'user'"] + [
        (f"lr{j} = 'user'" if j % 2 == 0 else f"lr{j} IN ('assistant', 'tool')")
        for j in range(1, _K_LONG)
    ] + [f"lti = turn_idx + {_K_LONG - 1}"]
)

_CEP_MULTI_SQL = f"""WITH s AS (
      SELECT conv_id, turn_idx, role, tool, epoch_us(ts) AS ts_us,
             lead(role, 1) OVER w AS role1, lead(role, 2) OVER w AS role2,
             lead(tool, 1) OVER w AS tool1,
             lead(turn_idx, 2) OVER w AS ti2, lead(epoch_us(ts), 2) OVER w AS ts2
      FROM read_parquet('{_TP001}')
      WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)),
    r2 AS (
      SELECT conv_id, turn_idx, role, epoch_us(ts) AS ts_us
      FROM read_parquet('{_TP001}')),
    truns AS (
      SELECT conv_id, min(turn_idx) AS r0, max(turn_idx) AS r1,
             CAST(count(*) AS BIGINT) AS run_len
      FROM (SELECT conv_id, turn_idx,
                   turn_idx - row_number() OVER (PARTITION BY conv_id
                                                 ORDER BY turn_idx) AS isl
            FROM r2 WHERE role = 'tool')
      GROUP BY conv_id, isl)
    SELECT conv_id, 'utu' AS pattern, CAST(turn_idx AS BIGINT) AS start_turn_idx,
           CAST(ti2 AS BIGINT) AS end_turn_idx, CAST(ts_us AS BIGINT) AS start_ts_us,
           CAST(ts2 AS BIGINT) AS end_ts_us, CAST(0 AS BIGINT) AS run_len,
           tool1 AS tool
    FROM s WHERE role = 'user' AND role1 = 'tool' AND role2 = 'user'
      AND ti2 = turn_idx + 2 AND ts2 - ts_us BETWEEN 0 AND 600000000
    UNION ALL
    SELECT conv_id, 'uau', CAST(turn_idx AS BIGINT), CAST(ti2 AS BIGINT),
           CAST(ts_us AS BIGINT), CAST(ts2 AS BIGINT), CAST(0 AS BIGINT), NULL
    FROM s WHERE role = 'user' AND role1 = 'assistant' AND role2 = 'user'
      AND ti2 = turn_idx + 2 AND ts2 - ts_us BETWEEN 0 AND 300000000
    UNION ALL
    SELECT truns.conv_id, 'ut_burst', CAST(p.turn_idx AS BIGINT),
           CAST(e.turn_idx AS BIGINT), CAST(p.ts_us AS BIGINT),
           CAST(e.ts_us AS BIGINT), run_len, NULL
    FROM truns
    JOIN r2 p ON p.conv_id = truns.conv_id AND p.turn_idx = truns.r0 - 1
             AND p.role = 'user'
    JOIN r2 e ON e.conv_id = truns.conv_id AND e.turn_idx = truns.r1
    WHERE e.ts_us - p.ts_us BETWEEN 0 AND 1800000000
    UNION ALL
    SELECT conv_id, 'long_alt', CAST(turn_idx AS BIGINT), CAST(lti AS BIGINT),
           CAST(ts_us AS BIGINT), CAST(lts AS BIGINT), CAST(0 AS BIGINT), NULL
    FROM (
      SELECT conv_id, turn_idx, role, epoch_us(ts) AS ts_us,
             {_LONG_LEADS}
      FROM read_parquet('{_TP001}')
      WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
    ) WHERE {_LONG_CONDS}"""


@q("cep_multi_turns", _CEP_MULTI_SQL)
def cep_multi_turns(sf_dir):
    """Pattern LIBRARY in one pass: two fixed sequences (user→tool→user
    ≤10 min emitting the tool; user→assistant→user ≤5 min) PLUS a Kleene
    entry (user followed by a maximal run of tool turns ≤30 min, emitting
    run_len — round-3 VERDICT #8) share one prep and ONE conv_id exchange —
    N patterns cost one shuffle, not N (stages/cep.match_many)."""
    from pipeflow_ray.stages.cep import match_many, pattern_columns

    pats = {
        "utu": {"steps": [{"role": "user"}, {"role": "tool"}, {"role": "user"}],
                "within_us": 600_000_000, "emit": ((1, "tool", "tool"),)},
        "uau": {"steps": [{"role": "user"}, {"role": "assistant"}, {"role": "user"}],
                "within_us": 300_000_000},
        "ut_burst": {"steps": [{"role": "user"}, ("+", {"role": "tool"})],
                     "within_us": 1_800_000_000},
        # 34 steps > one 32-bit word: exercises the dedicated word-run path
        "long_alt": {"steps": [
            {"role": "user"} if j % 2 == 0 else {"role": ["assistant", "tool"]}
            for j in range(_K_LONG)
        ]},
    }
    cols = sorted({c for p in pats.values() for c in
                   pattern_columns(p["steps"], p.get("emit", ()))})
    ds = ray.data.read_parquet(_tp(sf_dir), columns=cols)
    return match_many(ds, pats)


_CEP_KLEENE_SQL = f"""WITH r AS (
      SELECT conv_id, turn_idx, epoch_us(ts) AS ts_us,
             length(coalesce(text, '')) AS nc
      FROM read_parquet('{_TP001}')),
    runs AS (
      SELECT conv_id, min(turn_idx) AS r0, max(turn_idx) AS r1,
             CAST(count(*) AS BIGINT) AS run_len
      FROM (SELECT conv_id, turn_idx,
                   turn_idx - row_number() OVER (PARTITION BY conv_id
                                                 ORDER BY turn_idx) AS isl
            FROM r WHERE nc < 300)
      GROUP BY conv_id, isl)
    SELECT runs.conv_id, CAST(p.turn_idx AS BIGINT) AS start_turn_idx,
           CAST(q.turn_idx AS BIGINT) AS end_turn_idx,
           CAST(p.ts_us AS BIGINT) AS start_ts_us,
           CAST(q.ts_us AS BIGINT) AS end_ts_us, run_len
    FROM runs
    JOIN r p ON p.conv_id = runs.conv_id AND p.turn_idx = runs.r0 - 1
            AND p.nc >= 1000
    JOIN r q ON q.conv_id = runs.conv_id AND q.turn_idx = runs.r1 + 1
            AND q.nc >= 1000
    WHERE q.ts_us - p.ts_us BETWEEN 0 AND 1800000000"""


@q("cep_kleene_turns", _CEP_KLEENE_SQL)
def cep_kleene_turns(sf_dir):
    """Kleene-plus CEP (MATCH_RECOGNIZE quantifier): a long turn (≥1000
    chars), then ONE-OR-MORE consecutive short turns (<300 chars, greedy
    maximal run), then a long turn, all within 30 minutes — emitting the
    run length. The oracle states the same greedy semantics via
    gaps-and-islands SQL (stages/cep.match_kleene)."""
    from pipeflow_ray.stages.cep import match_kleene

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "text", "ts"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "ts": t["ts"],
                "nc": pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64()),
            }
        )

    ds = ds.map_batches(_prep, batch_format="pyarrow")
    steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)}), {"nc": (">=", 1000)}]
    return match_kleene(ds, steps, within_us=1_800_000_000)


def _derive_nc(t: pa.Table) -> pa.Table:
    """Replayer-side derivation: n_chars from text (text never routed)."""
    return t.append_column(
        "nc", pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64())
    )


@q("streaming_cep_kleene", _CEP_KLEENE_SQL)
def streaming_cep_kleene(sf_dir):
    """STREAMING Kleene-plus: maximal-run matches emitted exactly-once when
    the global min-watermark seals the match's last row (with fixed prefix
    AND suffix steps, every piece of run-maximality evidence lives inside
    the span). The n_chars predicate column derives inside the replayer
    actors, so text never crosses the exchange."""
    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner

    steps = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)}), {"nc": (">=", 1000)}]
    runner = ParallelKleeneRunner(
        steps, within_us=1_800_000_000, lateness_s=3 * 3600.0, num_buckets=8,
        derive=_derive_nc, read_columns=["conv_id", "turn_idx", "text", "ts"],
    )
    matches, _metrics = runner.run(_tp(sf_dir))
    return matches


# suffix-free Kleene: long turn → maximal run of short turns, NO closing
# step (round-3 VERDICT #7) — the oracle is the same gaps-and-islands SQL
# with the run's own last row as the match end
_CEP_KLEENE_OPEN_SQL = f"""WITH r AS (
      SELECT conv_id, turn_idx, epoch_us(ts) AS ts_us,
             length(coalesce(text, '')) AS nc
      FROM read_parquet('{_TP001}')),
    runs AS (
      SELECT conv_id, min(turn_idx) AS r0, max(turn_idx) AS r1,
             CAST(count(*) AS BIGINT) AS run_len
      FROM (SELECT conv_id, turn_idx,
                   turn_idx - row_number() OVER (PARTITION BY conv_id
                                                 ORDER BY turn_idx) AS isl
            FROM r WHERE nc < 300)
      GROUP BY conv_id, isl)
    SELECT runs.conv_id, CAST(p.turn_idx AS BIGINT) AS start_turn_idx,
           CAST(e.turn_idx AS BIGINT) AS end_turn_idx,
           CAST(p.ts_us AS BIGINT) AS start_ts_us,
           CAST(e.ts_us AS BIGINT) AS end_ts_us, run_len
    FROM runs
    JOIN r p ON p.conv_id = runs.conv_id AND p.turn_idx = runs.r0 - 1
            AND p.nc >= 1000
    JOIN r e ON e.conv_id = runs.conv_id AND e.turn_idx = runs.r1
    WHERE e.ts_us - p.ts_us BETWEEN 0 AND 1800000000"""

_KLEENE_OPEN_STEPS = [{"nc": (">=", 1000)}, ("+", {"nc": ("<", 300)})]


@q("cep_kleene_open_turns", _CEP_KLEENE_OPEN_SQL)
def cep_kleene_open_turns(sf_dir):
    """SUFFIX-FREE Kleene-plus: a long turn (≥1000 chars) followed by a
    greedy maximal run of short turns (<300 chars) within 30 minutes — no
    closing step (run maximality comes from the next row being long, a
    conversation end, or a turn gap). Same scan kernel as cep_kleene_turns
    with n_post = 0."""
    from pipeflow_ray.stages.cep import match_kleene

    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "turn_idx", "text", "ts"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "ts": t["ts"],
                "nc": pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64()),
            }
        )

    return match_kleene(ds.map_batches(_prep, batch_format="pyarrow"),
                        _KLEENE_OPEN_STEPS, within_us=1_800_000_000)


@q("streaming_cep_kleene_open", _CEP_KLEENE_OPEN_SQL)
def streaming_cep_kleene_open(sf_dir):
    """STREAMING suffix-free Kleene with run STITCHING (round-4 VERDICT
    #8): with no closing step inside the span, maximal runs seal on
    OBSERVED EVIDENCE (the successor turn arrives non-B, or a sealed
    turn-index jump proves it never will); undecided open runs compact to
    O(1)-per-key summaries that a post-gap extension merges with. Exact
    batch parity under ANY intra-run event-time gap — no seal-gap
    contract needed."""
    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner

    runner = ParallelKleeneRunner(
        _KLEENE_OPEN_STEPS, within_us=1_800_000_000, lateness_s=3 * 3600.0,
        num_buckets=8,
        derive=_derive_nc, read_columns=["conv_id", "turn_idx", "text", "ts"],
    )
    matches, _metrics = runner.run(_tp(sf_dir))
    return matches


# Kleene emit columns (round 5): same maximal runs, plus source-column
# values copied from the span's FIXED rows — the prefix row (offset 0) and
# the run's last row (offset -1)
_CEP_KLEENE_EMIT_SQL = f"""WITH r AS (
      SELECT conv_id, turn_idx, role, epoch_us(ts) AS ts_us,
             length(coalesce(text, '')) AS nc
      FROM read_parquet('{_TP001}')),
    runs AS (
      SELECT conv_id, min(turn_idx) AS r0, max(turn_idx) AS r1,
             CAST(count(*) AS BIGINT) AS run_len
      FROM (SELECT conv_id, turn_idx,
                   turn_idx - row_number() OVER (PARTITION BY conv_id
                                                 ORDER BY turn_idx) AS isl
            FROM r WHERE nc < 300)
      GROUP BY conv_id, isl)
    SELECT runs.conv_id, CAST(p.turn_idx AS BIGINT) AS start_turn_idx,
           CAST(e.turn_idx AS BIGINT) AS end_turn_idx,
           CAST(p.ts_us AS BIGINT) AS start_ts_us,
           CAST(e.ts_us AS BIGINT) AS end_ts_us, run_len,
           p.role AS start_role, e.role AS end_role
    FROM runs
    JOIN r p ON p.conv_id = runs.conv_id AND p.turn_idx = runs.r0 - 1
            AND p.nc >= 1000
    JOIN r e ON e.conv_id = runs.conv_id AND e.turn_idx = runs.r1
    WHERE e.ts_us - p.ts_us BETWEEN 0 AND 1800000000"""

_KLEENE_EMIT = ((0, "role", "start_role"), (-1, "role", "end_role"))


@q("cep_kleene_emit_turns", _CEP_KLEENE_EMIT_SQL)
def cep_kleene_emit_turns(sf_dir):
    """Suffix-free Kleene with EMIT columns (round 5): copy the prefix
    row's role (span-start offset 0) and the run's last row's role
    (span-end offset -1) onto each maximal-run match. Offsets address only
    the span's fixed rows — the variable run interior has no stable
    address (stages/cep.check_kleene_emit)."""
    from pipeflow_ray.stages.cep import match_kleene

    ds = ray.data.read_parquet(
        _tp(sf_dir), columns=["conv_id", "turn_idx", "text", "ts", "role"])

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "ts": t["ts"],
                "role": t["role"],
                "nc": pc.utf8_length(pc.fill_null(t["text"], "")).cast(pa.int64()),
            }
        )

    return match_kleene(ds.map_batches(_prep, batch_format="pyarrow"),
                        _KLEENE_OPEN_STEPS, within_us=1_800_000_000,
                        emit=_KLEENE_EMIT)


@q("streaming_cep_kleene_emit", _CEP_KLEENE_EMIT_SQL)
def streaming_cep_kleene_emit(sf_dir):
    """STREAMING stitched Kleene with emit columns: span-start emit values
    persist inside the compacted run summaries (so a post-gap extension
    still reports the original prefix row's role) and the span-end value
    tracks the run's last row. Same oracle as the batch form."""
    from pipeflow_ray.pipelines.streaming import ParallelKleeneRunner

    runner = ParallelKleeneRunner(
        _KLEENE_OPEN_STEPS, within_us=1_800_000_000, lateness_s=3 * 3600.0,
        num_buckets=8, emit=_KLEENE_EMIT,
        derive=_derive_nc,
        read_columns=["conv_id", "turn_idx", "text", "ts", "role"],
    )
    matches, _metrics = runner.run(_tp(sf_dir))
    return matches


_CEP_ABSENCE_SQL = f"""WITH s AS (
      SELECT conv_id, turn_idx, role, epoch_us(ts) AS ts_us,
             lead(role, 1) OVER w AS role1,
             lead(turn_idx, 1) OVER w AS ti1,
             lead(epoch_us(ts), 1) OVER w AS ts1
      FROM read_parquet('{_TP001}')
      WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
    SELECT conv_id, CAST(turn_idx AS BIGINT) AS start_turn_idx,
           CAST(ts_us AS BIGINT) AS ts_us,
           CASE WHEN ti1 IS NULL OR ti1 != turn_idx + 1 THEN 'no_next'
                WHEN role1 NOT IN ('assistant', 'tool') THEN 'wrong_type'
                ELSE 'too_late' END AS reason
    FROM s
    WHERE role = 'user'
      AND NOT coalesce(ti1 = turn_idx + 1 AND role1 IN ('assistant', 'tool')
                       AND ts1 - ts_us BETWEEN 0 AND 600000000, FALSE)"""

_CEP_TRIGGER = {"role": "user"}
_CEP_RESPONSE = {"role": ["assistant", "tool"]}


@q("cep_timeout_turns", _CEP_ABSENCE_SQL)
def cep_timeout_turns(sf_dir):
    """CEP NEGATION (absence pattern / timeout detection): every user turn
    with no assistant/tool response on the next turn within 10 minutes,
    with the failure reason (no_next / wrong_type / too_late) —
    stages/cep.match_absence."""
    from pipeflow_ray.stages.cep import match_absence, pattern_columns

    ds = ray.data.read_parquet(
        _tp(sf_dir), columns=pattern_columns([_CEP_TRIGGER, _CEP_RESPONSE])
    )
    return match_absence(ds, _CEP_TRIGGER, _CEP_RESPONSE, within_us=_CEP_WITHIN_US)


@q("streaming_cep_timeout", _CEP_ABSENCE_SQL)
def streaming_cep_timeout(sf_dir):
    """STREAMING absence detection (CEP timers): a trigger's outcome is
    decided when the global min-watermark seals its successor row; undecided
    triggers wait for the successor (or the final flush's no_next) so the
    reasons match the batch scan exactly under covered disorder."""
    from pipeflow_ray.pipelines.streaming import ParallelAbsenceRunner

    runner = ParallelAbsenceRunner(
        _CEP_TRIGGER, _CEP_RESPONSE, within_us=_CEP_WITHIN_US,
        lateness_s=3 * 3600.0, num_buckets=8,
    )
    timeouts, _metrics = runner.run(_tp(sf_dir))
    return timeouts


# ---------------------------------------------------------------------------
# training-data ops (documents / embeddings)
# ---------------------------------------------------------------------------

@q(
    "dedup_exact_docs",
    """SELECT min(doc_id) AS doc_id FROM documents
       GROUP BY trim(regexp_replace(lower(coalesce(text, '')), '\\s+', ' ', 'g'))""",
)
def dedup_exact_docs(sf_dir):
    from pipeflow_ray.functions.dedup import exact_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_dedup(docs).select_columns(["doc_id"])


@q(
    "streaming_dedup_docs",
    """SELECT min(doc_id) AS doc_id FROM documents
       GROUP BY trim(regexp_replace(lower(coalesce(text, '')), '\\s+', ' ', 'g'))""",
)
def streaming_dedup_docs(sf_dir):
    """Single-pass streaming exact dedup (parallel shard replay → bucketed
    fingerprint state actors → end-of-stream flush). Min-id resolution is
    commutative, so the result equals batch exact_dedup — the same SQL
    oracle — regardless of shard interleaving."""
    from pipeflow_ray.pipelines.streaming import StreamingDedupRunner

    kept, _metrics = StreamingDedupRunner().run(f"{sf_dir}/documents.parquet")
    return pa.table({"doc_id": pa.array(np.sort(kept.doc_id.to_numpy()), pa.int64())})


@q(
    "token_counts_docs",
    """SELECT doc_id, CAST(length(regexp_extract_all(coalesce(text, ''), '\\S+')) AS BIGINT) AS n_tokens
       FROM documents""",
)
def token_counts_docs(sf_dir):
    from pipeflow_ray.functions.text import token_count

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(token_count(), batch_format="pyarrow").select_columns(["doc_id", "n_tokens"])


_PACK_BUDGET, _PACK_PARTS = 256, 16

# greedy-reset packing recomputed in SQL: the recursive CTE walks each
# partition in doc_id order carrying (seq_idx, acc) — the exact contract
# functions/packing.py implements with one searchsorted per sequence
_PACK_SQL = f"""WITH RECURSIVE t AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(length(regexp_extract_all(coalesce(text, ''), '\\S+')) AS BIGINT) AS n_tokens,
         CAST(doc_id % {_PACK_PARTS} AS BIGINT) AS part,
         row_number() OVER (PARTITION BY doc_id % {_PACK_PARTS} ORDER BY doc_id) AS rn
  FROM documents),
g AS (
  SELECT part, rn, doc_id, n_tokens, CAST(0 AS BIGINT) AS seq_idx, n_tokens AS acc
  FROM t WHERE rn = 1
  UNION ALL
  SELECT t.part, t.rn, t.doc_id, t.n_tokens,
         CASE WHEN g.acc + t.n_tokens > {_PACK_BUDGET} THEN g.seq_idx + 1 ELSE g.seq_idx END,
         CASE WHEN g.acc + t.n_tokens > {_PACK_BUDGET} THEN t.n_tokens ELSE g.acc + t.n_tokens END
  FROM g JOIN t ON t.part = g.part AND t.rn = g.rn + 1)
SELECT doc_id, n_tokens, part, seq_idx FROM g"""


_SHUF_SEED = 77


def _epoch_shuffle_sql() -> str:
    from pipeflow_ray.functions.sampling import splitmix64_sql

    hcols = splitmix64_sql("doc_id", _SHUF_SEED)
    return f"""WITH h AS (SELECT CAST(doc_id AS BIGINT) AS doc_id, {hcols} FROM documents)
        SELECT doc_id,
               CAST(row_number() OVER (ORDER BY __h, doc_id) - 1 AS BIGINT) AS shuffle_pos
        FROM h"""


@q("epoch_shuffle_docs", _epoch_shuffle_sql())
def epoch_shuffle_docs(sf_dir):
    """Deterministic epoch shuffle (round 5): every doc gets its GLOBAL
    training-order position for the epoch — rank of splitmix64(doc_id +
    seed) — via a radix-bucket two-pass rank (per-batch bincount of the
    hash's top bits folded into global offsets, then one int-pair exchange
    + per-bucket sort), never a full-width all-to-all sort. Oracle: the
    same hash replayed bit-exactly in SQL, row_number over it."""
    from pipeflow_ray.functions.shuffle import epoch_shuffle

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return epoch_shuffle(docs, seed=_SHUF_SEED)


@q("pack_sequences_docs", _PACK_SQL)
def pack_sequences_docs(sf_dir):
    """Sequence packing for training batches (round 5): assign every doc
    to a fixed token-budget training sequence — partition by doc_id %
    parts (deterministic under any shard layout / retry / resume), then
    greedy-reset packing in doc_id order; an over-budget doc packs alone.
    Token counting stays a vectorized RE2 kernel in the map stage, so only
    (id, count) int pairs cross the exchange. Oracle: recursive-CTE SQL
    carrying (seq_idx, acc) through each partition."""
    from pipeflow_ray.functions.packing import pack_sequences

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return pack_sequences(docs, budget=_PACK_BUDGET, num_parts=_PACK_PARTS)


_DUPSPAN_K = 25

_DUPSPAN_SQL = f"""
WITH base AS (SELECT doc_id, coalesce(text, '') AS tx FROM documents),
 stats AS (SELECT doc_id, CAST(length(tx) AS BIGINT) AS n_chars FROM base),
 pos AS (SELECT doc_id, CAST(unnest(range(1, length(tx) - {_DUPSPAN_K} + 2)) AS INT) AS g, tx
         FROM base),
 gr AS (SELECT doc_id, g, substr(tx, g, {_DUPSPAN_K}) AS gram FROM pos),
 cnt AS (SELECT gram FROM gr GROUP BY gram HAVING count(*) >= 2),
 dup AS (SELECT doc_id, g FROM gr JOIN cnt USING (gram)),
 isl AS (SELECT doc_id, g,
                CASE WHEN lag(g) OVER w IS NULL
                          OR g - lag(g) OVER w > {_DUPSPAN_K} THEN 1 ELSE 0 END AS brk
         FROM dup WINDOW w AS (PARTITION BY doc_id ORDER BY g)),
 isl2 AS (SELECT doc_id, g,
                 sum(brk) OVER (PARTITION BY doc_id ORDER BY g) AS island FROM isl),
 per_isl AS (SELECT doc_id, island, count(*) AS c,
                    max(g) - min(g) + {_DUPSPAN_K} AS cover
             FROM isl2 GROUP BY doc_id, island),
 cov AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_dup_grams,
                CAST(sum(cover) AS BIGINT) AS dup_chars
         FROM per_isl GROUP BY doc_id)
SELECT s.doc_id, s.n_chars,
       CAST(greatest(s.n_chars - {_DUPSPAN_K - 1}, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(c.n_dup_grams, 0) AS BIGINT) AS n_dup_grams,
       CAST(coalesce(c.dup_chars, 0) AS BIGINT) AS dup_chars,
       CASE WHEN s.n_chars > 0
            THEN CAST(floor(1000000.0 * coalesce(c.dup_chars, 0) / s.n_chars) AS BIGINT)
            ELSE 0 END AS dup_frac_micro
FROM stats s LEFT JOIN cov c USING (doc_id)"""


@q("substring_dedup_docs", _DUPSPAN_SQL)
def substring_dedup_docs(sf_dir):
    """ExactSubstr-style duplicated-substring coverage (round 5): every char
    position whose 25-gram occurs ≥2 times corpus-wide, merged to interval
    islands per doc — count + union span length + floor-micro fraction
    (functions/dedup.substring_dup_stats: one text read, two int-only keyed
    exchanges, no driver materialization). Oracle recomputes the selection by
    grouping the actual substrings, islands via lag/sum gaps-and-islands."""
    from pipeflow_ray.functions.dedup import substring_dup_stats

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return substring_dup_stats(docs, k=_DUPSPAN_K, min_count=2)


def _winnow_oracle_sql(k: int, w: int) -> str:
    """Winnowing fingerprints recomputed IN SQL: positional k-gram polynomial
    codepoint hashes (HUGEINT % 2^64 ≡ numpy uint64 wraparound, the simhash-
    oracle technique), per-doc window-of-w minimum via a frame window
    function, distinct selected hashes, then count + signed-xor digest."""
    from pipeflow_ray.functions.text import WINNOW_P

    p = int(WINNOW_P)
    powers = ", ".join(
        f"({j + 1}, CAST('{pow(p, j, 1 << 64)}' AS UBIGINT))" for j in range(k)
    )
    return f"""
WITH base AS (
  SELECT doc_id, CASE WHEN length(coalesce(text, '')) < {k}
       THEN rpad(coalesce(text, ''), {k}, ' ') ELSE coalesce(text, '') END AS tx
  FROM documents),
pos AS (SELECT doc_id, tx, CAST(unnest(range(1, length(tx) - {k - 2})) AS INT) AS g FROM base),
pw(j, p) AS (VALUES {powers}),
gh AS (
  SELECT doc_id, g,
         CAST(SUM(CAST(ascii(substr(tx, g + pw.j - 1, 1)) AS HUGEINT) * CAST(pw.p AS HUGEINT))
              % 18446744073709551616 AS UBIGINT) AS h
  FROM pos CROSS JOIN pw GROUP BY doc_id, g),
wm AS (
  SELECT doc_id, g,
         min(h) OVER (PARTITION BY doc_id ORDER BY g
                      ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS mh,
         count(*) OVER (PARTITION BY doc_id) AS n
  FROM gh),
sel AS (
  SELECT DISTINCT doc_id, mh FROM wm WHERE g <= n - {w - 1}
  UNION ALL
  SELECT doc_id, min(h) AS mh FROM gh GROUP BY doc_id HAVING count(*) < {w})
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_fp,
       CAST(CAST(bit_xor(mh) AS HUGEINT)
            - CASE WHEN bit_xor(mh) >= CAST('9223372036854775808' AS UBIGINT)
                   THEN CAST('18446744073709551616' AS HUGEINT)
                   ELSE CAST(0 AS HUGEINT) END AS BIGINT) AS fp_xor
FROM sel GROUP BY doc_id"""


@q("winnow_fingerprint_docs", _winnow_oracle_sql(5, 4))
def winnow_fingerprint_docs(sf_dir):
    """MOSS winnowing fingerprints (k=5 grams, window w=4) per document —
    the rolling-hash document-fingerprinting op; oracle recomputes the full
    selection in SQL (count + xor digest are bit-identical)."""
    from pipeflow_ray.functions.text import winnow_batch

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(
        winnow_batch, fn_kwargs=dict(k=5, w=4), batch_format="pyarrow"
    ).select_columns(["doc_id", "n_fp", "fp_xor"])


_KMEANS_K, _KMEANS_ITERS, _KMEANS_SCALE = 6, 3, 1_000_000


def _kmeans_prefix_sql(k: int, iters: int, scale: int) -> str:
    """Lloyd's k-means replayed EXACTLY in SQL: quantize → per-iteration
    (assign by exact int64 squared distance, argmin ties to lowest cluster;
    re-center by exact integer floor division, empty cluster keeps its
    centroid) → final assignment. Every op is integer, so the chain is
    bit-identical to functions/similarity.kmeans_assignments."""
    parts = [f"""WITH e AS (SELECT vec_id, unnest(embedding) AS ev,
                    generate_subscripts(embedding, 1) AS dim FROM embeddings),
 q AS (SELECT vec_id, dim, CAST(floor(CAST(ev AS DOUBLE) * {scale}.0) AS BIGINT) AS x
       FROM e),
 c0 AS (SELECT vec_id AS cluster, dim, x AS c FROM q WHERE vec_id < {k})"""]
    prev = "c0"
    for i in range(1, iters + 1):
        parts.append(f""",
 d{i} AS (SELECT q.vec_id, p.cluster,
                 CAST(sum((q.x - p.c) * (q.x - p.c)) AS BIGINT) AS dist2
          FROM q JOIN {prev} p USING (dim) GROUP BY 1, 2),
 a{i} AS (SELECT vec_id, cluster,
                 row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cluster) AS rk
          FROM d{i}),
 s{i} AS (SELECT a.cluster, q.dim, CAST(sum(q.x) AS BIGINT) AS s,
                 CAST(count(*) AS BIGINT) AS n
          FROM a{i} a JOIN q USING (vec_id) WHERE a.rk = 1 GROUP BY 1, 2),
 c{i} AS (SELECT p.cluster, p.dim,
                 CASE WHEN s.n IS NULL THEN p.c
                      ELSE CAST((s.s - (((s.s % s.n) + s.n) % s.n)) // s.n AS BIGINT)
                 END AS c
          FROM {prev} p LEFT JOIN s{i} s USING (cluster, dim))""")
        prev = f"c{i}"
    parts.append(f""",
 df AS (SELECT q.vec_id, p.cluster,
               CAST(sum((q.x - p.c) * (q.x - p.c)) AS BIGINT) AS dist2
        FROM q JOIN {prev} p USING (dim) GROUP BY 1, 2),
 af AS (SELECT vec_id, cluster, dist2,
               row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cluster) AS rk
        FROM df)""")
    return "".join(parts)


def _kmeans_sql(k: int, iters: int, scale: int) -> str:
    return (_kmeans_prefix_sql(k, iters, scale)
            + "\nSELECT vec_id, CAST(cluster AS BIGINT) AS cluster, dist2 FROM af WHERE rk = 1")


@q("kmeans_embeddings", _kmeans_sql(_KMEANS_K, _KMEANS_ITERS, _KMEANS_SCALE))
def kmeans_embeddings(sf_dir):
    """Distributed k-means over the embedding column (round 5): integer-exact
    Lloyd's (functions/similarity.kmeans_assignments) — vectors quantized once
    to int64, exact squared distances, floor-division re-centering, so the
    3-iteration chain and final (vec_id, cluster, dist2) are bit-identical to
    the SQL replay. Seeds = the vectors with vec_id < k (filter-pushdown
    read). The semantic-clustering primitive for embedding-space dedup and
    mixture bucketing."""
    from pipeflow_ray.functions.similarity import kmeans_assignments

    seeds = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
            filter=pads.field("vec_id") < _KMEANS_K,
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    init = np.stack(seeds.embedding.to_numpy()).astype(np.float64)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return kmeans_assignments(
        ds, k=_KMEANS_K, iters=_KMEANS_ITERS, scale=_KMEANS_SCALE, init=init
    )


_KNN_K = 5


def _knn_sql(k: int, scale: int) -> str:
    """Leave-one-out k-NN vote replayed in SQL: exact integer distances
    (same quantization as kmeans), neighbors ranked (dist2, nbr_id), vote
    ranked (count DESC, label ASC) — every tie rule integer-deterministic."""
    return f"""
WITH e AS (SELECT vec_id, unnest(embedding) AS ev,
                  generate_subscripts(embedding, 1) AS dim FROM embeddings),
 q AS (SELECT vec_id, dim, CAST(floor(CAST(ev AS DOUBLE) * {scale}.0) AS BIGINT) AS x
       FROM e),
 p AS (SELECT a.vec_id AS query_id, b.vec_id AS nbr_id,
              CAST(sum((a.x - b.x) * (a.x - b.x)) AS BIGINT) AS dist2
       FROM q a JOIN q b ON a.dim = b.dim AND a.vec_id <> b.vec_id
       GROUP BY 1, 2),
 r AS (SELECT query_id, nbr_id, dist2,
              row_number() OVER (PARTITION BY query_id ORDER BY dist2, nbr_id) AS rk
       FROM p),
 t AS (SELECT r.query_id, e2.label
       FROM r JOIN embeddings e2 ON e2.vec_id = r.nbr_id WHERE r.rk <= {k}),
 v AS (SELECT query_id, label, CAST(count(*) AS BIGINT) AS n_votes
       FROM t GROUP BY 1, 2),
 w AS (SELECT query_id, label, n_votes,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY n_votes DESC, label) AS vr
       FROM v)
SELECT query_id AS vec_id, CAST(label AS BIGINT) AS pred_label, n_votes
FROM w WHERE vr = 1"""


@q("knn_classify_embeddings", _knn_sql(_KNN_K, _KMEANS_SCALE))
def knn_classify_embeddings(sf_dir):
    """Leave-one-out k-NN label classification (round 5): every vector
    labeled by the majority label of its 5 nearest OTHER vectors under the
    exact quantized integer distance (functions/similarity.knn_classify —
    broadcast query matrix, per-batch stable partial top-k, query-keyed vote
    exchange). All tie rules are integer-deterministic, so predictions are
    bit-identical to the SQL replay."""
    from pipeflow_ray.functions.similarity import knn_classify

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"])
    return knn_classify(ds, k=_KNN_K, scale=_KMEANS_SCALE)


_SEMDEDUP_TAU2 = 1_400_000_000_000


def _semdedup_sql(k: int, iters: int, scale: int, tau2: int) -> str:
    """SemDeDup pairs replayed in SQL: the exact kmeans chain, then a
    within-cluster self-join with the same exact integer distance."""
    return _kmeans_prefix_sql(k, iters, scale) + f""",
 asg AS (SELECT vec_id, cluster FROM af WHERE rk = 1),
 pr AS (SELECT a.vec_id AS id_a, b.vec_id AS id_b
        FROM asg a JOIN asg b ON a.cluster = b.cluster AND a.vec_id < b.vec_id),
 dd AS (SELECT pr.id_a, pr.id_b,
               CAST(sum((qa.x - qb.x) * (qa.x - qb.x)) AS BIGINT) AS dist2
        FROM pr JOIN q qa ON qa.vec_id = pr.id_a
                JOIN q qb ON qb.vec_id = pr.id_b AND qb.dim = qa.dim
        GROUP BY 1, 2)
SELECT id_a, id_b, dist2 FROM dd WHERE dist2 <= {tau2}"""


@q("semdedup_embeddings",
   _semdedup_sql(_KMEANS_K, _KMEANS_ITERS, _KMEANS_SCALE, _SEMDEDUP_TAU2))
def semdedup_embeddings(sf_dir):
    """SemDeDup semantic near-dup pairs (round 5): k-means buckets the
    embedding corpus, exact int64 pairwise distance within each cluster only
    (functions/similarity.semantic_dedup_pairs) — the published
    cluster-then-exact-search method; cross-cluster pairs are non-candidates
    by design, and the SQL oracle applies the identical constraint, so the
    pair set is bit-identical."""
    from pipeflow_ray.functions.similarity import semantic_dedup_pairs

    seeds = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
            filter=pads.field("vec_id") < _KMEANS_K,
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    init = np.stack(seeds.embedding.to_numpy()).astype(np.float64)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return semantic_dedup_pairs(
        ds, k=_KMEANS_K, iters=_KMEANS_ITERS, tau2=_SEMDEDUP_TAU2,
        scale=_KMEANS_SCALE, init=init,
    )


@q(
    "ann_topk",
    """WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 3),
           s AS (SELECT q.query_id, e.vec_id,
                        list_cosine_similarity(q.qe, e.embedding) AS c
                 FROM q CROSS JOIN embeddings e),
           r AS (SELECT query_id, vec_id,
                        row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rk
                 FROM s)
        SELECT query_id, vec_id, CAST(rk AS BIGINT) AS rk FROM r WHERE rk <= 10""",
)
def ann_topk(sf_dir):
    from pipeflow_ray.functions.similarity import brute_force_topk

    qdf = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                        filters=[("vec_id", "<", 3)]).to_pandas().sort_values("vec_id")
    queries = np.stack(qdf.embedding.to_numpy()).astype(np.float64)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    got = brute_force_topk(ds, queries, k=10)

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": t["query_id"],
                "vec_id": t["vec_id"],
                "rk": t["rank"].cast(pa.int64()),
            }
        )

    return got.map_batches(_fmt, batch_format="pyarrow")


# --- non-SQL-expressible ops: registered without oracles (rows-only check) ---

_LANG_SQL_VOTES = {
    lang: f"length(regexp_extract_all(coalesce(text, ''), '(?i)\\b(?:{'|'.join(ws)})\\b'))"
    for lang, ws in __import__('pipeflow_ray.functions.text', fromlist=['_STOPWORDS'])._STOPWORDS.items()
}

@q(
    "lang_id_docs",
    f"""SELECT doc_id,
           CASE
             WHEN {_LANG_SQL_VOTES['en']} = 0 AND {_LANG_SQL_VOTES['de']} = 0
                  AND {_LANG_SQL_VOTES['fr']} = 0 AND {_LANG_SQL_VOTES['es']} = 0 THEN 'und'
             WHEN {_LANG_SQL_VOTES['en']} >= {_LANG_SQL_VOTES['de']}
                  AND {_LANG_SQL_VOTES['en']} >= {_LANG_SQL_VOTES['fr']}
                  AND {_LANG_SQL_VOTES['en']} >= {_LANG_SQL_VOTES['es']} THEN 'en'
             WHEN {_LANG_SQL_VOTES['de']} >= {_LANG_SQL_VOTES['fr']}
                  AND {_LANG_SQL_VOTES['de']} >= {_LANG_SQL_VOTES['es']} THEN 'de'
             WHEN {_LANG_SQL_VOTES['fr']} >= {_LANG_SQL_VOTES['es']} THEN 'fr'
             ELSE 'es'
           END AS lang_pred
        FROM documents""",
)
def lang_id_docs(sf_dir):
    from pipeflow_ray.functions.text import lang_id_batch

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(lang_id_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "lang_pred"]
    )


_QUAL_SQL = """
WITH c AS (
  SELECT doc_id,
         CAST(length(coalesce(text, '')) AS DOUBLE) AS nc,
         CAST(length(regexp_extract_all(coalesce(text, ''), '[A-Za-z]')) AS DOUBLE) AS na,
         CAST(length(regexp_extract_all(coalesce(text, ''), '[^\\w\\s]')) AS DOUBLE) AS np,
         CAST(length(regexp_extract_all(coalesce(text, ''), '\\S+')) AS DOUBLE) AS nt,
         CAST(length(regexp_extract_all(coalesce(text, ''),
              '(?i)\\b(?:the|and|of|to|in|is|that|for|with)\\b')) AS DOUBLE) AS ns
  FROM documents),
 r AS (
  SELECT doc_id,
         na / greatest(nc, 1.0) AS alpha_ratio,
         np / greatest(nc, 1.0) AS punct_ratio,
         ns / greatest(nt, 1.0) AS stopword_ratio,
         least(nc / 500.0, 1.0) AS len_score,
         nc
  FROM c)
SELECT doc_id, alpha_ratio, stopword_ratio,
       ((alpha_ratio * 0.4 + len_score * 0.3) +
        (least(stopword_ratio * 3.0, 1.0) * 0.2 +
         (1.0 - least(punct_ratio * 2.0, 1.0)) * 0.1)) * least(nc, 1.0) AS quality
FROM r"""

@q("quality_docs", _QUAL_SQL)
def quality_docs(sf_dir):
    from pipeflow_ray.functions.text import quality_batch

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(quality_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "quality", "alpha_ratio", "stopword_ratio"]
    )


_REPETITION_SQL = """
WITH d AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks FROM documents),
     tk AS (SELECT doc_id, unnest(toks) AS tok, generate_subscripts(toks, 1) AS i FROM d),
     seq AS (SELECT doc_id, tok,
                    lead(tok, 1) OVER (PARTITION BY doc_id ORDER BY i) AS tok1,
                    lead(tok, 2) OVER (PARTITION BY doc_id ORDER BY i) AS tok2
             FROM tk),
     bgc AS (SELECT doc_id, max(c) AS top_bigram_n
             FROM (SELECT doc_id, tok || chr(31) || tok1 AS bg, count(*) AS c
                   FROM seq WHERE tok1 IS NOT NULL GROUP BY 1, 2) GROUP BY 1),
     trs AS (SELECT doc_id, count(*) AS n_trigrams,
                    count(DISTINCT tok || chr(31) || tok1 || chr(31) || tok2) AS distinct_trigrams
             FROM seq WHERE tok2 IS NOT NULL GROUP BY 1),
     nt AS (SELECT doc_id, len(toks) AS n_tokens FROM d)
SELECT nt.doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(coalesce(top_bigram_n, 0) AS BIGINT) AS top_bigram_n,
       CAST(coalesce(n_trigrams, 0) AS BIGINT) AS n_trigrams,
       CAST(coalesce(distinct_trigrams, 0) AS BIGINT) AS distinct_trigrams,
       CASE WHEN n_tokens >= 2
            THEN CAST(floor(1000000.0 * 2 * coalesce(top_bigram_n, 0) / n_tokens) AS BIGINT)
            ELSE 0 END AS top2_micro,
       CASE WHEN coalesce(n_trigrams, 0) > 0
            THEN CAST(floor(1000000.0 * (n_trigrams - distinct_trigrams) / n_trigrams) AS BIGINT)
            ELSE 0 END AS dup3_micro
FROM nt LEFT JOIN bgc USING (doc_id) LEFT JOIN trs USING (doc_id)"""


_PII_AUG_SQL = """coalesce(text, '')
 || CASE WHEN doc_id % 3 = 0 THEN ' u' || CAST(doc_id AS VARCHAR) || '@ex'
         || CAST(doc_id % 7 AS VARCHAR) || '.com' ELSE '' END
 || CASE WHEN doc_id % 4 = 1 THEN ' 10.' || CAST(doc_id % 256 AS VARCHAR)
         || '.0.' || CAST(doc_id % 100 AS VARCHAR) ELSE '' END
 || CASE WHEN doc_id % 5 = 2 THEN ' 555-010-'
         || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ELSE '' END"""

_PII_SQL = (
    """
WITH aug AS (SELECT doc_id, """ + _PII_AUG_SQL + """ AS txt FROM documents),
a AS (SELECT doc_id,
             CAST(len(regexp_extract_all(txt, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
             regexp_replace(txt, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS r1
      FROM aug),
b AS (SELECT doc_id, n_emails,
             CAST(len(regexp_extract_all(r1, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS BIGINT) AS n_ips,
             regexp_replace(r1, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '<IP>', 'g') AS r2
      FROM a)
SELECT doc_id, n_emails, n_ips,
       CAST(len(regexp_extract_all(r2, '\\b\\d{3}-\\d{3}-\\d{4}\\b')) AS BIGINT) AS n_phones,
       regexp_replace(r2, '\\b\\d{3}-\\d{3}-\\d{4}\\b', '<PHONE>', 'g') AS text_redacted
FROM b"""
)


@q("pii_redact_docs", _PII_SQL)
def pii_redact_docs(sf_dir):
    """PII scrub over a deterministically PII-augmented corpus (the fixture
    corpus has no PII, so the query plants emails/IPs/phones as a pure
    function of doc_id — identically in the SQL oracle — making the gate
    non-vacuous). Detection/redaction itself is `functions.text.pii_redact`:
    Arrow RE2 kernels, the same regex engine DuckDB uses, so the redacted
    text is bit-identical by construction."""
    from pipeflow_ray.functions.text import pii_redact

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _augment(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.astype("int64")
        s = ids.astype(str)
        email = (" u" + s + "@ex" + (ids % 7).astype(str) + ".com").where(ids % 3 == 0, "")
        ip = (" 10." + (ids % 256).astype(str) + ".0." + (ids % 100).astype(str)).where(
            ids % 4 == 1, ""
        )
        phone = (" 555-010-" + (ids % 10000).astype(str).str.zfill(4)).where(ids % 5 == 2, "")
        return pd.DataFrame(
            {"doc_id": df.doc_id, "text": df.text.fillna("") + email + ip + phone}
        )

    aug = docs.map_batches(_augment, batch_format="pandas")
    return aug.map_batches(pii_redact(), batch_format="pyarrow").select_columns(
        ["doc_id", "n_emails", "n_ips", "n_phones", "text_redacted"]
    )


@q(
    "contamination_docs",
    """WITH d AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks
                  FROM documents),
            tk AS (SELECT doc_id, unnest(toks) AS tok,
                          generate_subscripts(toks, 1) AS i FROM d),
            seq AS (SELECT doc_id,
                           tok || chr(31) || lead(tok, 1) OVER w
                               || chr(31) || lead(tok, 2) OVER w AS tg
                    FROM tk WINDOW w AS (PARTITION BY doc_id ORDER BY i)),
            blk AS (SELECT DISTINCT tg FROM seq WHERE doc_id < 10 AND tg IS NOT NULL),
            hits AS (SELECT s.doc_id, CAST(count(*) AS BIGINT) AS n_hits
                     FROM seq s JOIN blk USING (tg) GROUP BY s.doc_id)
       SELECT d.doc_id, CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
              CAST(CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END AS BIGINT)
                  AS contaminated
       FROM d LEFT JOIN hits h USING (doc_id)""",
)
def contamination_docs(sf_dir):
    """Decontamination check: per-doc count of 3-token n-gram positions that
    appear in a reference blocklist (here: the distinct trigrams of docs
    0-9, standing in for an eval set — built identically in the SQL oracle).
    Blocklist broadcast once via ray.put + per-worker cache; membership is a
    C-level isin per batch (functions/text.contamination_check)."""
    from pipeflow_ray.functions.text import build_ngram_blocklist, contamination_check

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    import pyarrow.dataset as pads

    ref_texts = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
            filter=pads.field("doc_id") < 10,  # row-group pushdown at the read
        )
        .to_pandas()
        .sort_values("doc_id")
        .text.tolist()
    )
    block_ref = ray.put(build_ngram_blocklist(ref_texts, k=3))
    return docs.map_batches(contamination_check(block_ref, k=3), batch_format="pyarrow")


@q(
    "tfidf_docs",
    """WITH d AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks
                  FROM documents),
            tk AS (SELECT doc_id, unnest(toks) AS token FROM d),
            tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
                   FROM tk GROUP BY 1, 2),
            dfreq AS (SELECT token, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1),
            n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents)
       SELECT tf.doc_id, tf.token, tf.tf, dfreq.df,
              CAST(floor(1000000.0 * tf.tf * n.n_docs / dfreq.df) AS BIGINT)
                  AS tfidf_micro
       FROM tf JOIN dfreq USING (token), n""",
)
def tfidf_docs(sf_dir):
    """Vocabulary build + per-(doc, token) tf-idf: exact per-doc term
    frequencies in the explode stage, document frequency via one token-keyed
    exchange, rational ln-free idf for cross-engine bit-determinism
    (functions/text.tfidf_terms)."""
    from pipeflow_ray.functions.text import tfidf_terms

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return tfidf_terms(docs)


@q(
    "inverted_index_docs",
    """WITH d AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks
                  FROM documents),
            tk AS (SELECT doc_id, unnest(toks) AS token FROM d),
            tf AS (SELECT token, doc_id, CAST(count(*) AS BIGINT) AS tf
                   FROM tk GROUP BY 1, 2)
       SELECT token,
              CAST(count(*) AS BIGINT) AS df_docs,
              CAST(sum(tf) AS BIGINT) AS total_tf,
              string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
       FROM tf GROUP BY token""",
)
def inverted_index_docs(sf_dir):
    """Inverted-index build (round 5): token → (document frequency, total
    term frequency, ascending-id posting string) via one token-keyed
    exchange (functions/text.inverted_index) — the IR index stage; posting
    strings are bit-identical to SQL string_agg ORDER BY."""
    from pipeflow_ray.functions.text import inverted_index

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return inverted_index(docs)


@q(
    "bm25_topk_docs",
    """WITH d AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks
                  FROM documents),
            dl AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS dl FROM d),
            n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                         CAST(sum(len(toks)) AS BIGINT) AS total FROM d),
            a AS (SELECT CAST(total AS DOUBLE) / CAST(n_docs AS DOUBLE) AS avgdl
                  FROM n),
            qt AS (SELECT DISTINCT query_id, term
                   FROM (SELECT doc_id AS query_id, unnest(toks[1:5]) AS term
                         FROM d WHERE doc_id < 8)),
            tk AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM tk
                   WHERE term IN (SELECT DISTINCT term FROM qt) GROUP BY 1, 2),
            dfq AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
            contrib AS (
              SELECT q.query_id, f.doc_id,
                     CAST(floor(((1000000.0
                                  * ((CAST(n.n_docs - x.df AS DOUBLE) + 0.5)
                                     / (CAST(x.df AS DOUBLE) + 0.5)))
                                 * (CAST(f.tf AS DOUBLE) * 2.2))
                                / (CAST(f.tf AS DOUBLE)
                                   + (1.2 * (0.25
                                             + ((0.75 * CAST(l.dl AS DOUBLE))
                                                / a.avgdl))))) AS BIGINT) AS c
              FROM qt q JOIN tf f USING (term) JOIN dfq x USING (term)
                   JOIN dl l ON l.doc_id = f.doc_id, n, a),
            sc AS (SELECT query_id, doc_id,
                          CAST(sum(c) AS BIGINT) AS score_micro,
                          CAST(count(*) AS BIGINT) AS n_terms
                   FROM contrib GROUP BY 1, 2),
            r AS (SELECT *, row_number() OVER (PARTITION BY query_id
                                               ORDER BY score_micro DESC, doc_id) AS rk
                  FROM sc)
       SELECT query_id, doc_id, score_micro, n_terms, CAST(rk AS BIGINT) AS rk
       FROM r WHERE rk <= 10""",
)
def bm25_topk_docs(sf_dir):
    """BM25 lexical retrieval over the documents corpus: queries are the
    first-5-token DISTINCT term sets of docs 0-7; top-10 per query by the
    rational-idf BM25 (k1=1.2, b=0.75), scores floored to int64 micro-units
    per term (functions/text.bm25_topk — two passes, int-only stat partials,
    broadcast idf, per-batch local top-k; the SQL oracle mirrors every float
    op at identical association order, so score_micro is bit-identical)."""
    import pyarrow.dataset as pads

    from pipeflow_ray.functions.text import bm25_topk

    qdf = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
            filter=pads.field("doc_id") < 8,  # row-group pushdown at the read
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    qids = qdf.doc_id.to_numpy()
    query_terms = [str(x or "").split(" ")[:5] for x in qdf.text]
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    got = bm25_topk(docs, query_terms, k=10)

    def _fmt(t: pa.Table) -> pa.Table:
        qcol = t["query_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "query_id": pa.array(qids[qcol], pa.int64()),
                "doc_id": t["doc_id"],
                "score_micro": t["score_micro"],
                "n_terms": t["n_terms"],
                "rk": t["rk"].cast(pa.int64()),
            }
        )

    return got.map_batches(_fmt, batch_format="pyarrow")


@q(
    "streaming_vocab_docs",
    """WITH d AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks
                  FROM documents),
            tk AS (SELECT doc_id, unnest(toks) AS token FROM d),
            tf AS (SELECT doc_id, token, count(*) AS tf FROM tk GROUP BY 1, 2)
       SELECT token, CAST(count(*) AS BIGINT) AS df,
              CAST(sum(tf) AS BIGINT) AS tf_total
       FROM tf GROUP BY token""",
)
def streaming_vocab_docs(sf_dir):
    """STREAMING vocabulary build (the third aggregate-on-ingest form after
    dedup and quantiles): exact per-token document frequency + total term
    frequency in one pass with O(vocabulary) actor state
    (pipelines/streaming.StreamingVocabRunner). The corpus log here is the
    documents parquet treated as a single shard."""
    from pipeflow_ray.pipelines.streaming import StreamingVocabRunner

    vocab, _metrics = StreamingVocabRunner(num_buckets=4).run(
        f"{sf_dir}/documents.parquet"
    )
    return vocab


@q("repetition_docs", _REPETITION_SQL)
def repetition_docs(sf_dir):
    """Gopher-family repetition quality signals (top-bigram multiplicity,
    duplicate-trigram fraction) — exact-integer outputs, micro-floored
    ratios; the oracle recomputes them over exact string n-grams."""
    from pipeflow_ray.functions.text import repetition_stats

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(repetition_stats(), batch_format="pyarrow")


# --- near-dup family: exact DuckDB oracles (round-1 VERDICT #3) -------------


def _jaccard_oracle(k: int, thr: float) -> str:
    """ALL-pairs exact k-char-shingle Jaccard in SQL (the near-dup ground
    truth): substr() character shingles ≡ the engine's codepoint k-grams;
    texts shorter than k are space-padded on both sides identically."""
    return f"""
WITH base AS (
  SELECT doc_id,
         CASE WHEN length(coalesce(text, '')) < {k}
              THEN rpad(coalesce(text, ''), {k}, ' ')
              ELSE coalesce(text, '') END AS tx
  FROM documents),
sh AS (
  SELECT DISTINCT doc_id, substr(tx, CAST(g AS INT), {k}) AS s
  FROM (SELECT doc_id, tx, unnest(range(1, length(tx) - {k - 2})) AS g FROM base)),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2)
SELECT id_a, id_b,
       CAST(floor(CAST(i AS DOUBLE) / (ca.n + cb.n - i) * 1000000) AS BIGINT) AS jaccard_micro
FROM inter
JOIN cnt ca ON ca.doc_id = id_a
JOIN cnt cb ON cb.doc_id = id_b
WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= {thr}"""


_MINHASH_ORACLE = _jaccard_oracle(5, 0.7)


@q("minhash_pairs_docs", _MINHASH_ORACLE)
def minhash_pairs_docs(sf_dir):
    """MinHash+LSH near-dup pairs, verified by exact shingle Jaccard. The
    oracle computes ALL-pairs exact 5-char-shingle Jaccard — the banded LSH
    (16 bands × 4 rows) misses a fixture pair (all at j ≥ 0.92, where the
    per-pair miss probability is ~2e-10) essentially never, so the outputs
    agree exactly. Engine shingles are CODEPOINT k-grams (dedup.
    _char_shingle_hashes), exactly DuckDB's substr() character shingles — the
    parity is unconditional, not ASCII-only (ADVICE r2). jaccard_micro =
    floor(j·1e6): both engines divide the same exact integers, so the double
    (and its floor) is bit-identical."""
    from pipeflow_ray.functions.dedup import minhash_dedup_pairs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(docs, threshold=0.7)

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": t["id_a"].cast(pa.int64()),
                "id_b": t["id_b"].cast(pa.int64()),
                "jaccard_micro": _floor_cents(t["jaccard"], 1_000_000),
            }
        )

    return pairs.map_batches(_fmt, batch_format="pyarrow")


@q("ngram_jaccard_docs", _jaccard_oracle(4, 0.8))
def ngram_jaccard_docs(sf_dir):
    """Standalone n-gram Jaccard near-dup (the dedup family's exact-kernel
    member as its own pipeline, distinct shingle width k=4 and threshold
    0.8): LSH candidate generation at k=4, signature-estimate pre-filter,
    exact codepoint-shingle Jaccard verify. The oracle recomputes ALL-pairs
    exact 4-gram Jaccard — a true pair at j ≥ 0.9 is missed by the 16×4
    banding with p ≈ 4e-8, so the outputs agree exactly; jaccard_micro floors
    are bit-identical (same integer division on both sides)."""
    from pipeflow_ray.functions.dedup import minhash_dedup_pairs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(docs, threshold=0.8, k=4)

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": t["id_a"].cast(pa.int64()),
                "id_b": t["id_b"].cast(pa.int64()),
                "jaccard_micro": _floor_cents(t["jaccard"], 1_000_000),
            }
        )

    return pairs.map_batches(_fmt, batch_format="pyarrow")


def _clusters_oracle_sql(k: int, thr: float) -> str:
    """Near-dup clusters ground truth: exact all-pairs k-shingle Jaccard
    pairs (same CTEs as the minhash oracle), then connected components via a
    recursive reachability CTE — min component id per clustered doc."""
    return f"""
WITH RECURSIVE base AS (
  SELECT doc_id,
         CASE WHEN length(coalesce(text, '')) < {k}
              THEN rpad(coalesce(text, ''), {k}, ' ')
              ELSE coalesce(text, '') END AS tx
  FROM documents),
sh AS (
  SELECT DISTINCT doc_id, substr(tx, CAST(g AS INT), {k}) AS s
  FROM (SELECT doc_id, tx, unnest(range(1, length(tx) - {k - 2})) AS g FROM base)),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
prs AS (
  SELECT id_a, id_b FROM (
    SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i
    FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
    GROUP BY 1, 2) x
  JOIN cnt ca ON ca.doc_id = x.id_a
  JOIN cnt cb ON cb.doc_id = x.id_b
  WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= {thr}),
edges AS (SELECT id_a AS u, id_b AS v FROM prs
          UNION ALL SELECT id_b, id_a FROM prs),
nodes AS (SELECT DISTINCT u FROM edges),
reach(id, comp) AS (
  SELECT u, u FROM nodes
  UNION
  SELECT e.v, r.comp FROM reach r JOIN edges e ON e.u = r.id)
SELECT CAST(id AS BIGINT) AS doc_id, CAST(min(comp) AS BIGINT) AS cluster_id
FROM reach GROUP BY id"""


@q("dedup_clusters_docs", _clusters_oracle_sql(5, 0.7))
def dedup_clusters_docs(sf_dir):
    """Near-dup CLUSTER extraction: verified minhash pairs (exact recall on
    this corpus, see minhash_pairs_docs) → distributed min-label-propagation
    connected components → (doc_id, cluster_id = min id of the component).
    The oracle recomputes exact all-pairs Jaccard edges and walks components
    with a recursive CTE."""
    from pipeflow_ray.functions.dedup import minhash_dedup_pairs, neardup_clusters

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_dedup_pairs(docs, threshold=0.7)
    return neardup_clusters(pairs)


def _simhash_oracle_sql() -> str:
    """SimHash oracle: recompute the signature IN SQL — polynomial token hash
    (HUGEINT % 2^64 ≡ numpy uint64 wraparound), per-bit weighted sign votes,
    power-of-two packing — then exact pairwise Hamming ≤ 3 via
    bit_count(xor). Constants are generated here so both engines share P and
    the truncation bound."""
    from pipeflow_ray.functions.dedup import SIMHASH_MAX_TOKEN_CHARS, SIMHASH_POLY_P

    p = int(SIMHASH_POLY_P)
    powers = ", ".join(
        f"({i + 1}, CAST('{pow(p, i, 1 << 64)}' AS UBIGINT))"
        for i in range(SIMHASH_MAX_TOKEN_CHARS)
    )
    bits = ", ".join(f"({b}, CAST('{1 << b}' AS UBIGINT))" for b in range(64))
    return f"""
WITH toks0 AS (
  SELECT doc_id, unnest(string_split_regex(lower(coalesce(text, '')), '\\s+')) AS tok0
  FROM documents),
toks AS (SELECT doc_id, substr(tok0, 1, {SIMHASH_MAX_TOKEN_CHARS}) AS tok
         FROM toks0 WHERE tok0 <> ''),
tokcnt AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS w FROM toks GROUP BY 1, 2),
dtok AS (SELECT DISTINCT tok FROM toks),
pw(i, p) AS (VALUES {powers}),
chars AS (
  SELECT tok, CAST(g AS INT) AS i
  FROM (SELECT tok, unnest(range(1, length(tok) + 1)) AS g FROM dtok)),
tokh AS (
  SELECT c.tok,
         CAST(SUM(CAST(ascii(substr(c.tok, c.i, 1)) AS HUGEINT) * CAST(pw.p AS HUGEINT))
              % 18446744073709551616 AS UBIGINT) AS h
  FROM chars c JOIN pw ON pw.i = c.i
  GROUP BY c.tok),
bits(b, p2) AS (VALUES {bits}),
votes AS (
  SELECT tc.doc_id, bits.b, bits.p2,
         SUM(tc.w * (2 * CAST((th.h >> bits.b) & CAST(1 AS UBIGINT) AS BIGINT) - 1)) AS v
  FROM tokcnt tc JOIN tokh th ON th.tok = tc.tok CROSS JOIN bits
  GROUP BY 1, 2, 3),
sigv AS (
  SELECT doc_id, CAST(SUM(CASE WHEN v > 0 THEN CAST(p2 AS HUGEINT) ELSE 0 END) AS UBIGINT) AS s
  FROM votes GROUP BY doc_id),
sig AS (
  SELECT d.doc_id, coalesce(sv.s, CAST(0 AS UBIGINT)) AS s
  FROM documents d LEFT JOIN sigv sv ON sv.doc_id = d.doc_id)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= 3"""


@q("simhash_pairs_docs", _simhash_oracle_sql())
def simhash_pairs_docs(sf_dir):
    """SimHash near-dup pairs. 4×16-bit banding guarantees EXACT recall for
    Hamming ≤ 3 (pigeonhole: ≤ 3 differing bits leave ≥ 1 of 4 bands equal),
    so the all-pairs SQL recomputation matches exactly."""
    from pipeflow_ray.functions.dedup import simhash_dup_pairs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = simhash_dup_pairs(docs, max_hamming=3)

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": t["id_a"].cast(pa.int64()),
                "id_b": t["id_b"].cast(pa.int64()),
                "hamming": t["hamming"].cast(pa.int64()),
            }
        )

    return pairs.map_batches(_fmt, batch_format="pyarrow")


@q(
    "embedding_neardup",
    """WITH aug AS (
         SELECT vec_id, embedding FROM embeddings
         UNION ALL
         SELECT vec_id + 1000000 AS vec_id, embedding FROM embeddings WHERE vec_id < 20)
       SELECT a.vec_id AS id_a, b.vec_id AS id_b
       FROM aug a JOIN aug b ON a.vec_id < b.vec_id
       WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.9""",
)
def embedding_neardup(sf_dir):
    """Embedding cosine near-dup over the fixture augmented with exact copies
    of vec_id < 20 (planted duplicates — the raw fixture is random with max
    organic cosine ≈ 0.6, so the old query was vacuous; round-1 VERDICT #5).
    Copies share every hyperplane signature, so OR-amplified LSH recall is
    exactly 1 and the exhaustive SQL oracle matches. Only ids are emitted —
    the cosine's last ulp is engine-dependent."""
    from pipeflow_ray.functions.dedup import embedding_neardup_pairs

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def _copies(t: pa.Table) -> pa.Table:
        t2 = t.filter(pc.less(t["vec_id"], 20))
        return pa.table({"vec_id": pc.add(t2["vec_id"], 1_000_000), "embedding": t2["embedding"]})

    aug = emb.union(emb.map_batches(_copies, batch_format="pyarrow"))
    pairs = embedding_neardup_pairs(aug, threshold=0.9)

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table({"id_a": t["id_a"].cast(pa.int64()), "id_b": t["id_b"].cast(pa.int64())})

    return pairs.map_batches(_fmt, batch_format="pyarrow")


_CURATION_ORACLE = f"""
WITH q AS ({_QUAL_SQL.replace('FROM documents', 'FROM documents', 1)}),
keep_exact AS (
  SELECT min(doc_id) AS doc_id FROM documents
  GROUP BY trim(regexp_replace(lower(coalesce(text, '')), '\\s+', ' ', 'g'))),
near AS (
  {_MINHASH_ORACLE.replace('>= 0.7', '>= 0.9')}
)
SELECT d.doc_id FROM documents d
JOIN q ON q.doc_id = d.doc_id
WHERE q.quality > 0.5
  AND d.doc_id IN (SELECT doc_id FROM keep_exact)
  AND d.doc_id NOT IN (SELECT id_b FROM near)"""


@q("curation_docs", _CURATION_ORACLE)
def curation_docs(sf_dir):
    """End-to-end corpus curation, composed from the engine's own operators:
    quality scoring → exact dedup (min-id survives) → MinHash near-dup
    removal (the higher id of each ≥0.9 pair drops, via a DISTRIBUTED
    anti-join — loser ids are hash-co-partitioned against the survivors and
    never materialize on the driver; round-2 VERDICT #2). The oracle
    recomputes every stage in SQL — one query exercising scoring, fingerprint
    dedup and LSH near-dup in composition."""
    from pipeflow_ray.functions.dedup import exact_dedup, minhash_dedup_pairs
    from pipeflow_ray.functions.text import quality_batch
    from pipeflow_ray.stages.join import anti_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    survivors = exact_dedup(docs)  # min doc_id per normalized fingerprint
    scored = survivors.map_batches(quality_batch, batch_format="pyarrow")

    def _keep(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.filter(pc.greater(t["quality"], 0.5))["doc_id"]})

    kept = scored.map_batches(_keep, batch_format="pyarrow")

    # near-dup losers (higher id of each ≥0.9 pair): drop by co-partitioned
    # anti-join on doc_id — O(losers) ids move task→task, zero to the driver
    pairs = minhash_dedup_pairs(docs, threshold=0.9)

    def _loser_ids(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["id_b"].cast(pa.int64())})

    losers = pairs.map_batches(_loser_ids, batch_format="pyarrow")
    return anti_join(kept, losers, "doc_id", num_buckets=32)


_CURATION_V2_ORACLE = _CURATION_ORACLE.rstrip() + """
  AND d.doc_id IN (
    SELECT doc_id FROM (
      WITH dd AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks
                  FROM documents),
           tk AS (SELECT doc_id, unnest(toks) AS tok,
                         generate_subscripts(toks, 1) AS i FROM dd),
           sq AS (SELECT doc_id, tok,
                         lead(tok, 1) OVER w AS tok1, lead(tok, 2) OVER w AS tok2
                  FROM tk WINDOW w AS (PARTITION BY doc_id ORDER BY i)),
           trs AS (SELECT doc_id, count(*) AS nt,
                          count(DISTINCT tok || chr(31) || tok1 || chr(31) || tok2) AS dt
                   FROM sq WHERE tok2 IS NOT NULL GROUP BY 1)
      SELECT dd.doc_id FROM dd LEFT JOIN trs USING (doc_id)
      WHERE coalesce(floor(1000000.0 * (nt - dt) / nt), 0) < 30000))
  AND d.doc_id NOT IN (
    SELECT doc_id FROM (
      WITH dd AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS toks
                  FROM documents),
           tk AS (SELECT doc_id, unnest(toks) AS tok,
                         generate_subscripts(toks, 1) AS i FROM dd),
           sq AS (SELECT doc_id,
                         tok || chr(31) || lead(tok, 1) OVER w
                             || chr(31) || lead(tok, 2) OVER w AS tg
                  FROM tk WINDOW w AS (PARTITION BY doc_id ORDER BY i)),
           blk AS (SELECT DISTINCT tg FROM sq WHERE doc_id < 10 AND tg IS NOT NULL)
      SELECT DISTINCT s.doc_id FROM sq s JOIN blk USING (tg)))"""


@q("curation_v2_docs", _CURATION_V2_ORACLE)
def curation_v2_docs(sf_dir):
    """FIVE-stage curation capstone composing the round's operators:
    quality scoring → exact dedup → MinHash near-dup anti-join →
    repetition filter (duplicate-trigram fraction < 3%) → n-gram blocklist
    decontamination (docs 0-9 as the planted eval set). Per-doc stages run
    only on survivors; the oracle recomputes all five predicates in SQL."""
    import pyarrow.dataset as pads

    from pipeflow_ray.functions.dedup import exact_dedup, minhash_dedup_pairs
    from pipeflow_ray.functions.text import (
        build_ngram_blocklist,
        contamination_check,
        quality_batch,
        repetition_stats,
    )
    from pipeflow_ray.stages.join import anti_join

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    survivors = exact_dedup(docs)
    scored = survivors.map_batches(quality_batch, batch_format="pyarrow")

    def _keep_quality(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["quality"], 0.5))
        return t.select(["doc_id", "text"])

    kept = scored.map_batches(_keep_quality, batch_format="pyarrow")

    pairs = minhash_dedup_pairs(docs, threshold=0.9)

    def _loser_ids(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["id_b"].cast(pa.int64())})

    kept = anti_join(kept, pairs.map_batches(_loser_ids, batch_format="pyarrow"),
                     "doc_id", num_buckets=32)

    rep_fn = repetition_stats()

    def _rep_filter(t: pa.Table) -> pa.Table:
        stats = rep_fn(t)  # row-aligned with the input
        return t.filter(pc.less(stats["dup3_micro"], 30_000))

    kept = kept.map_batches(_rep_filter, batch_format="pyarrow")

    ref_texts = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
            filter=pads.field("doc_id") < 10,
        ).to_pandas().sort_values("doc_id").text.tolist()
    )
    cont_fn = contamination_check(ray.put(build_ngram_blocklist(ref_texts, 3)), 3)

    def _cont_filter(t: pa.Table) -> pa.Table:
        c = cont_fn(t)  # row-aligned
        t = t.filter(pc.equal(c["contaminated"], 0))
        return t.select(["doc_id"])

    return kept.map_batches(_cont_filter, batch_format="pyarrow")


@q(
    "ivf_topk",
    """WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 3),
           s AS (SELECT q.query_id, e.vec_id,
                        list_cosine_similarity(q.qe, e.embedding) AS c
                 FROM q CROSS JOIN embeddings e),
           r AS (SELECT query_id, vec_id,
                        row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rk
                 FROM s)
        SELECT query_id, vec_id, CAST(rk AS BIGINT) AS rk FROM r WHERE rk <= 10""",
)
def ivf_topk_query(sf_dir):
    """IVF gated exactly: with ``nprobe == n_clusters`` every inverted list
    is probed, so IVF degenerates to exact search and the brute-force SQL
    oracle applies (round-2 VERDICT #4). The approximate configuration
    (nprobe < n_clusters) keeps its recall≥bar assertion in
    tests/test_functions.py::test_ivf_topk_recall."""
    from pipeflow_ray.functions.similarity import ivf_topk

    qdf = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                        filters=[("vec_id", "<", 3)]).to_pandas().sort_values("vec_id")
    queries = np.stack(qdf.embedding.to_numpy()).astype(np.float64)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    got = ivf_topk(ds, queries, k=10, n_clusters=16, nprobe=16)

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": t["query_id"],
                "vec_id": t["vec_id"],
                "rk": t["rank"].cast(pa.int64()),
            }
        )

    return got.map_batches(_fmt, batch_format="pyarrow")


@q(
    "ann_corpus_topk",
    """WITH s AS (SELECT a.vec_id AS query_id, b.vec_id,
                       list_cosine_similarity(a.embedding, b.embedding) AS c
                FROM embeddings a CROSS JOIN embeddings b
                WHERE a.vec_id <> b.vec_id),
           r AS (SELECT query_id, vec_id,
                        row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rk
                 FROM s)
        SELECT query_id, vec_id, CAST(rk AS BIGINT) AS rk FROM r WHERE rk <= 5""",
)
def ann_corpus_topk(sf_dir):
    """Large-Q ANN: EVERY corpus vector queries the corpus (round-4 VERDICT
    #3 — functions/similarity.corpus_topk). The query side is a Dataset
    routed to IVF cells through the hash exchange (co-partitioned with the
    corpus side), per-cell matmul top-k in bucket tasks, per-query merge in
    a second keyed exchange — the driver never holds vectors or results.
    Exact here because ``nprobe == n_clusters`` (every cell probed);
    tests/test_functions.py keeps the recall assertion at nprobe < n."""
    from pipeflow_ray.functions.similarity import corpus_topk

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    qs = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    got = corpus_topk(ds, qs, k=5, n_clusters=16, nprobe=16, exclude_self=True)

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": t["query_id"],
                "vec_id": t["vec_id"],
                "rk": t["rank"].cast(pa.int64()),
            }
        )

    return got.map_batches(_fmt, batch_format="pyarrow")


@q(
    "multimodal_decode",
    """SELECT image_id, width, height, mean_milli
       FROM read_parquet('/tmp/pipeflow_fixtures/image_golden_n200_s42.parquet')""",
)
def multimodal_decode(sf_dir):
    """Synthetic-image decode through the actor-pool stage, checked against a
    golden parquet computed straight from the generator's rng stream (never
    via the payload round-trip) — verifying encode → Ray actor decode →
    stats end to end. Oracle SQL reads the golden (materialized here AND in
    __ray_entry__.oracle_sql, whichever side the driver runs first)."""
    from pipeflow_ray.fixtures import sf_of_dir
    from pipeflow_ray.functions.multimodal import (
        decode_images,
        ensure_image_golden,
        synth_image_table,
    )

    n = max(100, int(sf_of_dir(sf_dir) * 20_000))
    ensure_image_golden(n)
    decoded = decode_images(ray.data.from_arrow(synth_image_table(n)), batch_size=64)

    def _fmt(t: pa.Table) -> pa.Table:
        mean_milli = pc.cast(pc.floor(pc.multiply(t["mean_intensity"], 1000.0)), pa.int64())
        return pa.table(
            {
                "image_id": t["image_id"],
                "width": t["width"].cast(pa.int64()),
                "height": t["height"].cast(pa.int64()),
                "mean_milli": mean_milli,
            }
        )

    return decoded.map_batches(_fmt, batch_format="pyarrow")


@q(
    "multimodal_audio",
    """SELECT audio_id, sample_rate, n_samples, rms_milli
       FROM read_parquet('/tmp/pipeflow_fixtures/audio_golden_n200_s43.parquet')""",
)
def multimodal_audio(sf_dir):
    """Synthetic-audio feature extraction through the actor-pool stage,
    hash-checked against a golden parquet computed from the generator's rng
    stream (the audio analog of multimodal_decode). n_samples recovers
    exactly from duration·rate (one float division round-trips below
    2^53)."""
    from pipeflow_ray.fixtures import sf_of_dir
    from pipeflow_ray.functions.multimodal import (
        ExtractAudioFeatures,
        ensure_audio_golden,
        synth_audio_table,
    )

    n = max(100, int(sf_of_dir(sf_dir) * 20_000))
    ensure_audio_golden(n)
    feats = ray.data.from_arrow(synth_audio_table(n)).map_batches(
        ExtractAudioFeatures, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4), num_cpus=1,
    )

    def _fmt(t: pa.Table) -> pa.Table:
        ns = pc.round(pc.multiply(t["duration_s"], t["sample_rate"].cast(pa.float64())))
        return pa.table(
            {
                "audio_id": t["audio_id"],
                "sample_rate": t["sample_rate"].cast(pa.int64()),
                "n_samples": ns.cast(pa.int64()),
                "rms_milli": pc.floor(pc.multiply(t["rms"], 1000.0)).cast(pa.int64()),
            }
        )

    return feats.map_batches(_fmt, batch_format="pyarrow")


@q(
    "multimodal_video",
    """SELECT video_id, frame_idx, mean_milli
       FROM read_parquet('/tmp/pipeflow_fixtures/video_golden_n200_s44_k4.parquet')""",
)
def multimodal_video(sf_dir):
    """Synthetic-video frame sampling (1 → N explode) through the actor-pool
    stage, hash-checked against the rng-stream golden — flips the last
    multimodal modality from rows-only to value-verified."""
    from pipeflow_ray.fixtures import sf_of_dir
    from pipeflow_ray.functions.multimodal import (
        SampleVideoFrames,
        ensure_video_golden,
        synth_video_table,
    )

    n = max(100, int(sf_of_dir(sf_dir) * 20_000))
    ensure_video_golden(n)
    frames = ray.data.from_arrow(synth_video_table(n)).map_batches(
        SampleVideoFrames, fn_constructor_kwargs={"stride": 4},
        batch_format="pyarrow", batch_size=32, concurrency=(1, 4), num_cpus=1,
    )

    def _fmt(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "video_id": t["video_id"],
                "frame_idx": t["frame_idx"].cast(pa.int64()),
                "mean_milli": pc.floor(pc.multiply(t["mean_intensity"], 1000.0)).cast(pa.int64()),
            }
        )

    return frames.map_batches(_fmt, batch_format="pyarrow")


@q("flagship")
def flagship(sf_dir):
    from pipeflow_ray.pipelines.flagship import flagship_pipeline

    return flagship_pipeline(_tp(sf_dir))


@q(
    "flagship_windowed",
    f"""WITH pairs AS (
          SELECT u.conv_id, u.ts AS user_ts,
                 epoch_us(r.ts) - epoch_us(u.ts) AS lat_us,
                 length(trim(coalesce(u.text, ''), {_TRIM})) AS uc,
                 length(trim(coalesce(r.text, ''), {_TRIM})) AS rc
          FROM read_parquet('{_TP001}') u
          JOIN read_parquet('{_TP001}') r
            ON r.conv_id = u.conv_id AND r.turn_idx = u.turn_idx + 1
          WHERE u.role = 'user' AND r.role IN ('assistant', 'tool'))
        SELECT conv_id,
               CAST(epoch_us(user_ts) // 3600000000 AS BIGINT) * 3600 AS window_start_s,
               CAST(count(*) AS BIGINT) AS n_pairs,
               CAST(max(lat_us) AS BIGINT) AS max_latency_us,
               CAST(sum(uc) AS BIGINT) AS user_chars,
               CAST(sum(rc) AS BIGINT) AS resp_chars
        FROM pairs GROUP BY conv_id, window_start_s""",
)
def flagship_windowed(sf_dir):
    """The FLAGSHIP CHAIN ITSELF (fused read → normalize → exchange →
    pair+window reduce) under a value-hash oracle: its output projected to
    hash-safe integers. ``max_latency_us`` recovers exactly from the double
    seconds (one division+multiply round-trips below 2^53 µs); the mean is
    excluded — a float sum in bucket order is the one column the discipline
    cannot make order-independent."""
    from pipeflow_ray.pipelines.flagship import flagship_pipeline

    ds = flagship_pipeline(_tp(sf_dir))

    def _proj(t: pa.Table) -> pa.Table:
        ws = pc.multiply(pc.divide(t["window_start"].cast(pa.int64()), _HOUR_US), 3600)
        lat = pc.round(pc.multiply(t["max_latency_s"], 1_000_000.0)).cast(pa.int64())
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "window_start_s": ws,
                "n_pairs": t["n_pairs"],
                "max_latency_us": lat,
                "user_chars": t["user_chars"],
                "resp_chars": t["resp_chars"],
            }
        )

    return ds.map_batches(_proj, batch_format="pyarrow")


@q(
    "asof_join_events",
    """WITH l AS (SELECT event_id, user_id, epoch_us(ts) AS tus FROM events WHERE value >= 0.5),
           r0 AS (SELECT user_id, ts, event_id, value,
                         row_number() OVER (PARTITION BY user_id, ts ORDER BY event_id) AS rn
                  FROM events WHERE value < 0.5),
           r AS (SELECT user_id, epoch_us(ts) AS tus, event_id, value FROM r0 WHERE rn = 1)
       SELECT l.event_id, l.user_id, CAST(l.tus AS BIGINT) AS ts_us,
              r.event_id AS prior_event_id,
              CAST(floor(r.value * 1000000) AS BIGINT) AS prior_value_micro
       FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.tus >= r.tus""",
)
def asof_join_events(sf_dir):
    """As-of join: each high-value event matched to the same user's most
    recent prior low-value event (inner: unmatched left rows dropped)."""
    from pipeflow_ray.stages.dedup import keep_first
    from pipeflow_ray.stages.join import asof_join

    def _prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": t["ts"].cast(pa.int64()),
                "value": t["value"],
            }
        )

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])
    ev = ev.map_batches(_prep, batch_format="pyarrow")
    left = ev.map_batches(
        lambda t: t.filter(pc.greater_equal(t["value"], 0.5)).drop_columns(["value"]),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda t: t.filter(pc.less(t["value"], 0.5)), batch_format="pyarrow"
    )
    right = keep_first(right, ["user_id", "ts_us"], [("event_id", "ascending")])
    joined = asof_join(left, right, key="user_id", ts_col="ts_us", num_buckets=32)

    def _fmt(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["event_id_r"]))  # inner semantics
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "user_id": t["user_id"],
                "ts_us": t["ts_us"],
                "prior_event_id": t["event_id_r"].cast(pa.int64()),
                "prior_value_micro": pc.floor(pc.multiply(t["value"], 1_000_000.0)).cast(pa.int64()),
            }
        )

    return joined.map_batches(_fmt, batch_format="pyarrow")


@q(
    "streaming_join",
    f"""SELECT u.conv_id, CAST(u.turn_idx AS BIGINT) AS turn_idx,
               CAST(epoch_us(u.ts) AS BIGINT) AS user_ts_us,
               CAST(epoch_us(r.ts) AS BIGINT) AS resp_ts_us,
               CAST(length(coalesce(u.text, '')) AS BIGINT) AS user_chars,
               CAST(length(coalesce(r.text, '')) AS BIGINT) AS resp_chars
        FROM read_parquet('{_TP001}') u
        JOIN read_parquet('{_TP001}') r
          ON r.conv_id = u.conv_id AND r.turn_idx = u.turn_idx + 1
        WHERE u.role = 'user' AND r.role IN ('assistant', 'tool')""",
)
def streaming_join(sf_dir):
    """Incremental turn-response join over parallel shard replay (actor-held
    pending-turn state, eviction at epoch barriers against the min shard
    watermark, replayer-actor ingest — the driver never decodes a batch).
    With eviction gap ≥ the fixture's 2h disorder, the incremental result
    equals the batch join — which is what the SQL oracle states."""
    from pipeflow_ray.pipelines.streaming import ParallelJoinRunner

    pairs, _metrics = ParallelJoinRunner(lateness_s=3 * 3600.0, num_buckets=8).run(_tp(sf_dir))
    return pairs


@q(
    "transcripts_sliding",
    f"""WITH b AS (SELECT conv_id,
                          CAST(epoch_us(ts) // 3600000000 AS BIGINT) * 3600 AS w
                   FROM read_parquet('{_TP001}')),
           x AS (SELECT conv_id, w AS window_start_s FROM b
                 UNION ALL
                 SELECT conv_id, w - 3600 AS window_start_s FROM b)
        SELECT conv_id, window_start_s, CAST(count(*) AS BIGINT) AS n
        FROM x GROUP BY conv_id, window_start_s""",
)
def transcripts_sliding(sf_dir):
    """2h window / 1h slide per conversation (each turn in two windows)."""
    ds = ray.data.read_parquet(_tp(sf_dir), columns=["conv_id", "ts"])
    ds = ds.map_batches(assign_sliding(7200.0, 3600.0), batch_format="pyarrow")

    def _to_s(t: pa.Table) -> pa.Table:
        ws = pc.divide(t["window_start"].cast(pa.int64()), 1_000_000)
        return pa.table({"conv_id": t["conv_id"], "window_start_s": ws})

    ds = ds.map_batches(_to_s, batch_format="pyarrow")
    return partial_aggregate(ds, ["conv_id", "window_start_s"], {"n": ("count", None)})


@q(
    "transcripts_hot_window",
    f"""SELECT conv_id,
               CAST(epoch_us(ts) // 3600000000 AS BIGINT) * 3600 AS window_start_s,
               CAST(count(*) AS BIGINT) AS n_turns,
               CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS chars
        FROM read_parquet('{_TP001}')
        GROUP BY conv_id, window_start_s""",
)
def transcripts_hot_window(sf_dir):
    """Hot-key-SALTED tumbling aggregate (SURVEY §4.2 wired end to end):
    detect_hot_keys finds the fixture's guaranteed heavy conversation and
    partial_aggregate salts its partials across reduce buckets; decomposable
    states make the salted result identical to the plain groupby — which is
    what the SQL oracle states."""
    from pipeflow_ray.pipelines.flagship import windowed_char_stats

    agg = windowed_char_stats(_tp(sf_dir), width_s=3600.0, detect_skew=True)

    def _fmt(t: pa.Table) -> pa.Table:
        ws = pc.divide(t["window_start"].cast(pa.int64()), 1_000_000)
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "window_start_s": ws,
                "n_turns": t["n_turns"].cast(pa.int64()),
                "chars": t["chars"].cast(pa.int64()),
            }
        )

    return agg.map_batches(_fmt, batch_format="pyarrow")
