"""Join tests: flagship turn-response join vs a pandas oracle; broadcast join;
large-large hash join (SURVEY §2.7)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from pipeflow_ray.fixtures import gen_transcripts
from pipeflow_ray.stages.join import broadcast_join, hash_join, turn_response_join


def _oracle_pairs(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    nxt = df.groupby("conv_id").shift(-1)
    take = (
        (df.role == "user")
        & nxt.role.isin(["assistant", "tool"])
        & (nxt.turn_idx == df.turn_idx + 1)
    )
    out = pd.DataFrame(
        {
            "conv_id": df.loc[take, "conv_id"],
            "turn_idx": df.loc[take, "turn_idx"],
            "user_text": df.loc[take, "text"],
            "response_text": nxt.loc[take, "text"],
            "response_role": nxt.loc[take, "role"],
        }
    )
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def test_turn_response_join_matches_oracle(transcripts_table):
    ds = ray.data.from_arrow(transcripts_table)
    got = (
        turn_response_join(ds)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    ref = _oracle_pairs(transcripts_table.to_pandas())
    assert len(got) == len(ref) > 0
    # per-turn text equality under stable (conv_id, turn_idx) ordering — the
    # BASELINE.json invariant
    pd.testing.assert_series_equal(got.user_text, ref.user_text, check_dtype=False)
    pd.testing.assert_series_equal(got.response_text, ref.response_text, check_dtype=False)
    assert (got.latency_s > 0).all()


def test_turn_response_join_hot_key_correct():
    # the generator's conv_00000000 is the hot conversation; its pairs must
    # be complete despite skew
    t = gen_transcripts(3000)
    got = turn_response_join(ray.data.from_arrow(t)).to_pandas()
    ref = _oracle_pairs(t.to_pandas())
    hot_got = got[got.conv_id == "conv_00000000"]
    hot_ref = ref[ref.conv_id == "conv_00000000"]
    assert len(hot_got) == len(hot_ref) > 100


def test_turn_response_join_schema_is_stable_across_buckets(transcripts_table):
    """Every reduce block has one schema: ``response_tool`` stays a string
    in buckets whose responses all lack a tool, and a carried int column
    keeps its type on the response side."""
    import pyarrow as pa
    import ray

    from pipeflow_ray.pipelines.flagship import normalize

    ds = ray.data.from_arrow(normalize(transcripts_table))
    out = turn_response_join(ds, carry_cols=["n_chars"]).materialize()
    expected = pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
        ("user_ts", pa.timestamp("us")), ("response_role", pa.string()),
        ("response_tool", pa.string()), ("response_ts", pa.timestamp("us")),
        ("user_n_chars", pa.int64()), ("response_n_chars", pa.int64()),
        ("latency_s", pa.float64()),
    ])
    blocks = [ray.get(r) for r in out.to_arrow_refs()]
    assert len(blocks) > 1
    assert all(b.schema.remove_metadata() == expected for b in blocks)
    got = pa.concat_tables(blocks).to_pandas()
    ref = _oracle_pairs(transcripts_table.to_pandas())
    assert len(got) == len(ref)
    assert ((got.response_ts - got.user_ts).dt.total_seconds() == got.latency_s).all()


def test_broadcast_join():
    big = ray.data.from_items([{"k": i % 3, "v": i} for i in range(100)])
    dim = pd.DataFrame({"k": [0, 1, 2], "name": ["x", "y", "z"]})
    out = broadcast_join(big, dim, on="k").to_pandas()
    assert len(out) == 100
    assert set(out.name) == {"x", "y", "z"}
    assert (out.name == out.k.map({0: "x", 1: "y", 2: "z"})).all()


def test_hash_join_large_sides():
    left = ray.data.from_items([{"k": i, "l": i * 2} for i in range(500)])
    right = ray.data.from_items([{"k": i, "r": i * 3} for i in range(250, 750)])
    out = hash_join(left, right, on="k", num_partitions=4).to_pandas()
    assert len(out) == 250
    assert (out.r == out.k * 3).all() and (out.l == out.k * 2).all()


def test_asof_join_matches_merge_asof_oracle():
    import numpy as np

    from pipeflow_ray.stages.join import asof_join

    rng = np.random.default_rng(3)
    n = 2000
    left = pd.DataFrame({
        "k": rng.integers(0, 20, n).astype(str),
        "ts": np.sort(rng.integers(0, 10_000, n)).astype("int64"),
        "lv": np.arange(n),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 20, n).astype(str),
        "ts": np.sort(rng.integers(0, 10_000, n)).astype("int64"),
        "rv": np.arange(n) * 10,
    }).drop_duplicates(["k", "ts"])

    got = (
        asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right), key="k", ts_col="ts", num_buckets=8)
        .to_pandas().sort_values(["k", "ts", "lv"]).reset_index(drop=True)
    )
    ref = pd.merge_asof(
        left.sort_values("ts", kind="mergesort"),
        right.sort_values("ts", kind="mergesort"),
        on="ts", by="k", suffixes=("", "_r"),
    ).sort_values(["k", "ts", "lv"]).reset_index(drop=True)
    assert len(got) == len(ref)
    pd.testing.assert_series_equal(got.rv.fillna(-1), ref.rv.fillna(-1), check_dtype=False)


def test_semi_join_complements_anti_join():
    """semi ∪ anti = left (disjoint), and semi keeps exactly the EXISTS rows."""
    import pandas as pd
    import ray.data

    from pipeflow_ray.stages.join import anti_join, semi_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 5, 5], "v": list("abcdef")})
    right = pd.DataFrame({"j": [2, 2, 4, 9]})
    lds = ray.data.from_pandas(left).repartition(3)
    rds = ray.data.from_pandas(right).repartition(2)
    semi = semi_join(lds, rds, "k", "j", num_buckets=4).to_pandas()
    anti = anti_join(lds, rds, "k", "j", num_buckets=4).to_pandas()
    assert sorted(semi.v) == ["b", "d"]
    assert sorted(anti.v) == ["a", "c", "e", "f"]
    both = pd.concat([semi, anti]).sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(both, left.rename(columns={}).sort_values("v").reset_index(drop=True))

    # empty right: semi empty, anti = left
    empty = ray.data.from_pandas(pd.DataFrame({"j": pd.Series([], dtype="int64")}))
    assert semi_join(lds, empty, "k", "j", num_buckets=4).count() == 0
    assert anti_join(lds, empty, "k", "j", num_buckets=4).count() == len(left)


def test_interval_join_boundaries_and_unmatched():
    import pandas as pd
    import ray.data

    from pipeflow_ray.stages.join import interval_join

    events = pd.DataFrame({
        "k": ["a", "a", "a", "a", "b", "b"],
        "ts_us": [5, 10, 20, 35, 7, 100],
        "eid": [0, 1, 2, 3, 4, 5],
    })
    intervals = pd.DataFrame({
        "k": ["a", "a", "b"],
        "start_us": [10, 30, 0],
        "end_us": [20, 40, 50],
        "iv": ["a1", "a2", "b1"],
    })
    out = interval_join(
        ray.data.from_pandas(events).repartition(2),
        ray.data.from_pandas(intervals).repartition(2),
        "k", num_buckets=4,
    ).to_pandas().sort_values("eid").reset_index(drop=True)
    # eid 0 (ts 5 < first start) and eid 5 (ts 100 > end) drop; boundaries
    # are inclusive on both ends (ts 10 and ts 20 inside [10, 20])
    assert out.eid.tolist() == [1, 2, 3, 4]
    assert out.iv.tolist() == ["a1", "a1", "a2", "b1"]
    assert out.start_us.tolist() == [10, 10, 30, 0]


def test_bloom_prefilter_prunes_without_false_negatives():
    import numpy as np
    import pandas as pd

    import ray.data

    from pipeflow_ray.stages.join import bloom_prefilter, hash_join

    rng = np.random.default_rng(5)
    probe = pd.DataFrame({"k": rng.integers(0, 100_000, 50_000),
                          "v": np.arange(50_000)})
    build = pd.DataFrame({"k": rng.choice(100_000, 500, replace=False)})
    pds = ray.data.from_pandas(probe).repartition(6)
    bds = ray.data.from_pandas(build).repartition(2)

    filtered = bloom_prefilter(pds, bds, "k")
    kept = filtered.count()
    true_matches = int(probe.k.isin(build.k).sum())
    # no false negatives; FP ≈ 0.2% of the non-matching rows at 16 bits
    assert kept >= true_matches
    assert kept <= true_matches + int(0.01 * len(probe)) + 10

    a = (hash_join(filtered, bds, on="k", how="inner").to_pandas()
         .sort_values(["k", "v"]).reset_index(drop=True))
    b = (hash_join(pds, bds, on="k", how="inner").to_pandas()
         .sort_values(["k", "v"]).reset_index(drop=True))
    assert a.equals(b)
    assert len(a) == true_matches


# Empty sides of the two-sided exchange operators. L and R overlap on keys 2
# and 3; Z has no blocks at all (no schema anywhere); E is a zero-row side
# that keeps its side's schema.
_L = pa.table({"k": [1, 2, 3], "ts": [10, 20, 30], "a": [1, 2, 3]})
_R = pa.table({"k": [2, 3, 4], "ts": [5, 15, 25], "b": [20, 30, 40]})


def _sides(left: str, right: str):
    def one(name, full):
        if name == "Z":
            return ray.data.from_items([])
        return ray.data.from_arrow(full.slice(0, 0) if name == "E" else full)

    return one(left, _L), one(right, _R)


def _hash_join(how):
    return lambda l, r: hash_join(l, r, "k", how=how, num_partitions=4)


def _asof(l, r):
    from pipeflow_ray.stages.join import asof_join

    return asof_join(l, r, "k", num_buckets=4)


def _semi(keep):
    from pipeflow_ray.stages.join import anti_join, semi_join

    op = semi_join if keep else anti_join
    return lambda l, r: op(l, r, "k", num_buckets=4)


def _attach(l, r):
    from pipeflow_ray.functions.dedup import attach_by_id

    pairs = l.rename_columns({"k": "id_a"}) if l.columns() else l
    return attach_by_id(pairs, r, "id_a", "k", ["b"], "_s", num_buckets=4)


_LCOLS, _RCOLS = ["k", "ts", "a"], ["k", "ts", "b"]


@pytest.mark.parametrize("op,left,right,rows,cols", [
    (_hash_join("inner"), "L", "Z", 0, None),
    (_hash_join("inner"), "Z", "R", 0, None),
    (_hash_join("inner"), "L", "E", 0, None),
    (_hash_join("inner"), "E", "R", 0, None),
    (_hash_join("left"), "L", "Z", 3, _LCOLS),
    (_hash_join("outer"), "L", "Z", 3, _LCOLS),
    (_hash_join("right"), "Z", "R", 3, _RCOLS),
    (_hash_join("outer"), "Z", "R", 3, _RCOLS),
    (_hash_join("left"), "L", "E", 3, ["k", "ts", "a", "ts_r", "b"]),
    (_hash_join("left"), "L", "R", 3, ["k", "ts", "a", "ts_r", "b"]),
    (_hash_join("right"), "L", "R", 3, ["k", "ts", "a", "ts_r", "b"]),
    (_hash_join("outer"), "L", "R", 4, ["k", "ts", "a", "ts_r", "b"]),
    (_asof, "L", "Z", 3, _LCOLS),
    (_asof, "Z", "R", 0, None),
    (_asof, "L", "E", 3, ["k", "ts", "a", "b"]),
    (_semi(True), "L", "Z", 0, None),
    (_semi(False), "L", "Z", 3, _LCOLS),
    (_semi(False), "Z", "R", 0, None),
    (_attach, "L", "Z", 0, None),
    (_attach, "Z", "R", 0, None),
], ids=[
    "inner-L-Z", "inner-Z-R", "inner-L-E", "inner-E-R", "left-L-Z", "outer-L-Z",
    "right-Z-R", "outer-Z-R", "left-L-E", "left-L-R", "right-L-R", "outer-L-R",
    "asof-L-Z", "asof-Z-R", "asof-L-E", "semi-L-Z", "anti-L-Z", "anti-Z-R",
    "attach-P-Z", "attach-Z-S",
])
def test_two_sided_exchange_empty_sides(op, left, right, rows, cols):
    """Each two-sided operator's answer when a side has no rows: a side
    with no blocks carries no schema, so an outer-ish result keeps only the
    surviving side's columns; a zero-row side with a schema adds its
    columns as nulls."""
    out = op(*_sides(left, right))
    if rows == 0:
        assert out.count() == 0
        return
    df = out.to_pandas()
    assert len(df) == rows
    assert list(df.columns) == cols


@pytest.mark.parametrize("queries", ["Z", "E"])
def test_corpus_topk_without_query_rows_has_topk_schema(queries):
    import numpy as np

    from pipeflow_ray.functions.similarity import corpus_topk

    vecs = np.random.default_rng(5).normal(size=(40, 4))
    corpus = pa.table({"vec_id": pa.array(np.arange(40)),
                       "embedding": pa.array(list(vecs), pa.list_(pa.float64()))})
    q = (ray.data.from_items([]) if queries == "Z"
         else ray.data.from_arrow(corpus.slice(0, 0)))
    out = corpus_topk(ray.data.from_arrow(corpus), q, k=3, n_clusters=4,
                      nprobe=4, num_buckets=4)
    assert out.count() == 0
    assert out.schema().names == ["query_id", "vec_id", "cosine", "rank"]


def test_zero_row_pandas_side_keeps_its_types():
    """A zero-row pandas block reaches the reduce with its dtypes: Ray's
    ``to_arrow`` would turn every column of it into ``null``."""
    from pipeflow_ray.stages.join import asof_join

    empty = pd.DataFrame({c: pd.Series([], dtype="int64") for c in ("k", "ts", "b")})
    left = ray.data.from_arrow(_L)
    got = asof_join(left, ray.data.from_pandas(empty), "k", num_buckets=4)
    assert got.count() == 3
    joined = hash_join(left, ray.data.from_pandas(empty), "k", how="left",
                       num_partitions=4).materialize()
    assert joined.count() == 3
    types = dict(zip(joined.schema().names, joined.schema().types))
    assert types["b"] == pa.int64() and types["ts_r"] == pa.int64()
