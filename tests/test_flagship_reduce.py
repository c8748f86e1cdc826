"""Flagship bucket reduce (``flagship._reduce_table``): the Arrow pair +
window kernel against a pandas sort/shift/groupby reference kept only here,
and against DuckDB window SQL where the two disagree on null keys."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pipeflow_ray.pipelines.flagship import _WINDOWED_SCHEMA, _reduce_table
from pipeflow_ray.stages.join import pair_next_turns

HOUR_US = 3_600_000_000
T0 = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z, on an hour boundary


def _reference(slices, window_s: float) -> pa.Table:
    """The pandas reduce: mergesort, shift(-1), mask, groupby(sort=False).
    Its groupby drops null keys, so only compare it on non-null conv_ids."""
    slices = [t for t in slices if t.num_rows]
    if not slices:
        return _WINDOWED_SCHEMA.empty_table()
    g = pa.concat_tables(slices).to_pandas()
    window_us = int(window_s * 1_000_000)
    g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    nxt = g.shift(-1)
    same = nxt["conv_id"].to_numpy() == g["conv_id"].to_numpy()
    take = (g["rc"] == 0) & (nxt["rc"] == 1) & same & (nxt["turn_idx"] == g["turn_idx"] + 1)
    user_us = g.loc[take, "ts_us"].to_numpy()
    resp_us = nxt.loc[take, "ts_us"].to_numpy()
    pairs = pd.DataFrame({
        "conv_id": g.loc[take, "conv_id"],
        "window_start": user_us // window_us * window_us,
        "latency_s": (resp_us - user_us) / 1e6,
        "user_chars": g.loc[take, "n_chars"].to_numpy(),
        "resp_chars": nxt.loc[take, "n_chars"].to_numpy(),
    })
    out = pairs.groupby(["conv_id", "window_start"], sort=False).agg(
        n_pairs=("latency_s", "size"),
        mean_latency_s=("latency_s", "mean"),
        max_latency_s=("latency_s", "max"),
        user_chars=("user_chars", "sum"),
        resp_chars=("resp_chars", "sum"),
    ).reset_index()
    out["window_start"] = out["window_start"].astype("datetime64[us]")
    return pa.Table.from_pandas(out, preserve_index=False).cast(_WINDOWED_SCHEMA)


def _turns(rows) -> pa.Table:
    """(conv_id, turn_idx, rc, ts_us, n_chars) rows → the exchange payload."""
    cols = list(zip(*rows)) if rows else [[]] * 5
    return pa.table({
        "conv_id": pa.array(cols[0], pa.string()),
        "turn_idx": pa.array(cols[1], pa.int32()),
        "rc": pa.array(cols[2], pa.int8()),
        "ts_us": pa.array(cols[3], pa.int64()),
        "n_chars": pa.array(cols[4], pa.int64()),
    })


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("conv_id", "ascending"), ("window_start", "ascending")])


def _assert_matches_reference(slices, window_s: float = 3600.0) -> pa.Table:
    got = _reduce_table(slices, window_s)
    ref = _reference(slices, window_s)
    assert got.schema == _WINDOWED_SCHEMA
    got, ref = _sorted(got), _sorted(ref)
    for c in _WINDOWED_SCHEMA.names:
        if c == "mean_latency_s":  # float mean: summation order may differ
            np.testing.assert_allclose(got[c].to_numpy(), ref[c].to_numpy(), rtol=1e-12)
        else:
            assert got[c].equals(ref[c]), c
    return got


def test_all_slices_empty_gives_stable_schema():
    empty = _turns([])
    for slices in ([], [empty], [empty, empty.slice(0, 0)]):
        out = _reduce_table(slices, 3600.0)
        assert out.num_rows == 0 and out.schema == _WINDOWED_SCHEMA


def test_single_row():
    out = _assert_matches_reference([_turns([("a", 0, 0, T0, 5)])])
    assert out.num_rows == 0


def test_user_turn_in_last_row_is_unpaired():
    out = _assert_matches_reference([_turns([
        ("a", 0, 0, T0, 3), ("a", 1, 1, T0 + 2_000_000, 7), ("a", 2, 0, T0 + 9_000_000, 4),
    ])])
    assert out["n_pairs"].to_pylist() == [1]
    assert out["max_latency_s"].to_pylist() == [2.0]


def test_duplicate_turn_idx_follows_input_order():
    # stable sort: the first (a, 1) row in input order follows the user turn
    out = _assert_matches_reference([_turns([
        ("a", 0, 0, T0, 3), ("a", 1, 1, T0 + 1_000_000, 7), ("a", 1, 1, T0 + 5_000_000, 9),
    ])])
    assert out["resp_chars"].to_pylist() == [7]


def test_turn_idx_gap_is_not_a_pair():
    out = _assert_matches_reference([_turns([
        ("a", 0, 0, T0, 3), ("a", 2, 1, T0 + 1_000_000, 7),
        ("b", 4, 0, T0, 1), ("b", 5, 1, T0 + 3_000_000, 2),
    ])])
    assert out["conv_id"].to_pylist() == ["b"]


def test_system_turns_neither_ask_nor_answer():
    out = _assert_matches_reference([_turns([
        ("a", 0, 0, T0, 3), ("a", 1, 2, T0 + 1_000_000, 7),   # user → system: no pair
        ("a", 2, 2, T0 + 2_000_000, 1), ("a", 3, 1, T0 + 3_000_000, 2),  # system → resp
        ("a", 4, 0, T0 + 4_000_000, 5), ("a", 5, 1, T0 + 6_000_000, 8),
    ])])
    assert out["n_pairs"].to_pylist() == [1] and out["user_chars"].to_pylist() == [5]


def test_pair_crossing_an_hour_belongs_to_the_user_turns_window():
    out = _assert_matches_reference([_turns([
        ("a", 0, 0, T0 + HOUR_US - 1_000_000, 3), ("a", 1, 1, T0 + HOUR_US + 4_000_000, 7),
        ("a", 2, 0, T0 + HOUR_US + 5_000_000, 2), ("a", 3, 1, T0 + HOUR_US + 6_000_000, 1),
    ])])
    assert out["window_start"].cast(pa.int64()).to_pylist() == [T0, T0 + HOUR_US]
    assert out["max_latency_s"].to_pylist() == [5.0, 1.0]


def _random_turns(rng, n_convs: int, hot: int = 0) -> pa.Table:
    rows = []
    for c in range(n_convs):
        n = int(rng.integers(1, 30)) + (hot if c == 0 else 0)
        idx = np.cumsum(rng.choice([0, 1, 1, 1, 2], size=n))  # duplicates and gaps
        ts = T0 + int(rng.integers(0, 4 * HOUR_US)) + np.cumsum(rng.integers(0, 600_000_000, n))
        rc = rng.choice([0, 0, 1, 1, 2], size=n)
        rows += [(f"c{c:03d}", int(i), int(r), int(t), int(rng.integers(0, 500)))
                 for i, r, t in zip(idx, rc, ts)]
    rows = [rows[i] for i in rng.permutation(len(rows))]  # arrival order
    return _turns(rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exchange_slices_with_offsets_over_several_chunks(seed):
    """What ``hash_exchange`` delivers: per map block, one zero-copy slice
    at a non-zero offset of a bucket-sorted table, itself several chunks."""
    rng = np.random.default_rng(seed)
    t = _random_turns(rng, 60, hot=400)
    slices = []
    for block in np.array_split(np.arange(t.num_rows), 4):
        part = t.take(pa.array(block))
        half = part.num_rows // 2
        chunked = pa.concat_tables([part.slice(0, half), part.slice(half)])
        lo, hi = sorted(rng.integers(1, chunked.num_rows, 2))
        slices += [chunked.slice(0, lo), chunked.slice(lo, hi - lo), chunked.slice(hi)]
    assert any(s.column("conv_id").num_chunks > 1 for s in slices)
    out = _assert_matches_reference(slices, 1800.0)
    assert out.num_rows > 20


def _dup_keys(t: pa.Table) -> np.ndarray:
    """Rows repeating an earlier (conv_id, turn_idx): SQL orders ties
    arbitrarily, so the DuckDB comparison leaves them out."""
    df = t.select(["conv_id", "turn_idx"]).to_pandas()
    return df.duplicated().to_numpy()


def test_null_conv_id_pairs_match_duckdb():
    """pandas ``groupby`` dropped null keys; SQL ``PARTITION BY`` /
    ``GROUP BY`` keep them as one group, and so does the Arrow kernel."""
    small = _turns([
        ("a", 0, 0, T0, 1), ("a", 1, 1, T0 + 1_000_000, 2),
        (None, 0, 0, T0, 3), (None, 1, 1, T0 + 2_000_000, 4),
    ])
    got = _reduce_table([small], 3600.0)
    assert sorted(zip(got["conv_id"].to_pylist(), got["n_pairs"].to_pylist()),
                  key=str) == [("a", 1), (None, 1)]

    rng = np.random.default_rng(11)
    t = _random_turns(rng, 40)
    conv = t["conv_id"].to_numpy(zero_copy_only=False).astype(object)
    nulled = np.isin(conv, ["c003", "c017"])  # two conversations lose their key
    t = t.set_column(0, "conv_id", pa.array(np.where(nulled, None, conv), pa.string()))
    # one null "conversation": give its turns distinct turn_idx so SQL's
    # ORDER BY turn_idx is deterministic
    ti = t["turn_idx"].to_numpy().copy()
    ti[nulled] = np.arange(nulled.sum())
    t = t.set_column(1, "turn_idx", pa.array(ti, pa.int32()))
    t = t.filter(pa.array(~_dup_keys(t)))

    got = _sorted(_reduce_table([t.slice(0, 100), t.slice(100)], 3600.0))
    ref = duckdb.sql(f"""
        WITH l AS (
          SELECT *, lead(rc) OVER w AS nrc, lead(turn_idx) OVER w AS nti,
                 lead(ts_us) OVER w AS nts, lead(n_chars) OVER w AS nch
          FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
        SELECT conv_id, ts_us // {HOUR_US} * {HOUR_US} AS window_us,
               count(*) AS n_pairs, avg((nts - ts_us) / 1e6) AS mean_latency_s,
               max((nts - ts_us) / 1e6) AS max_latency_s,
               sum(n_chars) AS user_chars, sum(nch) AS resp_chars
        FROM l WHERE rc = 0 AND nrc = 1 AND nti = turn_idx + 1
        GROUP BY 1, 2 ORDER BY conv_id NULLS LAST, window_us""").df()
    assert got["conv_id"].null_count > 0
    assert got["conv_id"].to_pylist() == [None if pd.isna(c) else c for c in ref.conv_id]
    assert got["window_start"].cast(pa.int64()).to_pylist() == ref.window_us.tolist()
    for c in ("n_pairs", "user_chars", "resp_chars"):
        assert got[c].to_pylist() == ref[c].astype(np.int64).tolist(), c
    np.testing.assert_allclose(got["max_latency_s"].to_numpy(), ref.max_latency_s, rtol=1e-12)
    np.testing.assert_allclose(got["mean_latency_s"].to_numpy(), ref.mean_latency_s, rtol=1e-12)


def test_pair_next_turns_matches_pandas_shift():
    """The shared pairing helper equals the pandas sort/shift/mask it
    replaced, on string roles as ``turn_response_join`` calls it."""
    rng = np.random.default_rng(5)
    n = 3000
    t = pa.table({
        "conv_id": pa.array(rng.integers(0, 80, n).astype(str)),
        "turn_idx": pa.array(rng.integers(0, 60, n), pa.int64()),
        "role": pa.array(rng.choice(["user", "assistant", "tool", "system"], n)),
    })
    u, r = pair_next_turns(t, "conv_id", "turn_idx", "role", "user",
                           pa.array(["assistant", "tool"]))
    g = t.to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
    nxt = g.shift(-1)
    take = ((g.role == "user") & nxt.role.isin(["assistant", "tool"])
            & (nxt.conv_id.to_numpy() == g.conv_id.to_numpy())
            & (nxt.turn_idx == g.turn_idx + 1))
    pos = np.flatnonzero(take.to_numpy())
    assert len(u) > 50
    assert u.tolist() == g.index.to_numpy()[pos].tolist()
    assert r.tolist() == g.index.to_numpy()[pos + 1].tolist()
