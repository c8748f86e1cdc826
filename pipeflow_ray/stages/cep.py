"""CEP sequence-pattern matching (MATCH_RECOGNIZE-lite) over keyed,
ordered event streams — the "CEP" half of the north rule's
structured-streaming/CEP runtime.

A *pattern* is a list of per-step predicates that must match ``k``
CONSECUTIVE rows of one key (``conv_id``) under the stream's order column
(``turn_idx``), optionally with the whole match inside an event-time span
(``within_us``). Matches may overlap (each start position is tested
independently — the same semantics as SQL's ``lead()``-chain formulation,
which is what the DuckDB oracle states). One output row per match:
``(key, start_turn_idx, end_turn_idx, start_ts_us, end_ts_us, *emitted)``
where *emitted* columns are copied from a chosen step's row (e.g. the tool
name of the middle step).

The reference has no CEP operator (its closest surface is row-wise
``Filter``/``Transform`` chains, ``PipeFlow/Pipeline.cs:25-102``); this is
part of the engine's beyond-reference streaming surface.

Execution shape (100-TB discipline):
- a PREP ``map_batches`` stage computes a per-row uint32 *step-bitmask*
  (bit j = row satisfies step j) and prunes to the 4+len(emit) shuffle
  columns — text never travels through the exchange (same ~25× shuffle
  reduction as the turn join);
- one ``hash_exchange`` on the key co-locates each conversation;
- a per-bucket vectorized scan (single mergesort + k shifted bitwise ANDs)
  finds every match — no per-key Python, no driver work.

Assumption (documented, standard for CEP on transcript logs): event time is
non-decreasing in the order column within a key. The batch path does not
need it; the STREAMING path (``pipelines.streaming._CepState``) relies
on it for exactly-once emission at watermark barriers.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pipeflow_ray.stages.core import grouped_by_bucket

MAX_STEPS = 32  # steps per bitmask WORD (uint32). Fixed-sequence patterns
# may exceed it: step j then lives in word ``j >> 5`` at bit ``j & 31``
# (columns ``__bits``, ``__bits1``, …) — the scan indexes into the right
# word (round-4 VERDICT #6). Kleene/absence patterns and the streaming
# single-word state remain ≤ 32 steps per pattern.

_NEG_INF = -(1 << 62)


_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


def _step_mask(df: pd.DataFrame, step) -> np.ndarray:
    """One step's boolean row mask. *step* is either a dict of
    ``column → value`` (scalar equality), ``column → [values]``
    (membership), ``column → (op, operand)`` with op in ==/!=/</<=/>/>=,
    AND-ed across columns, or a callable ``DataFrame → bool ndarray``."""
    if callable(step):
        return np.asarray(step(df), dtype=bool)
    m = np.ones(len(df), dtype=bool)
    for col, v in step.items():
        s = df[col]
        if isinstance(v, tuple) and len(v) == 2 and v[0] in _CMP_OPS:
            op, rhs = v
            arr = s.to_numpy()
            m &= {"==": arr == rhs, "!=": arr != rhs, "<": arr < rhs,
                  "<=": arr <= rhs, ">": arr > rhs, ">=": arr >= rhs}[op]
        elif isinstance(v, (list, set, frozenset, np.ndarray)):
            m &= s.isin(list(v)).to_numpy()
        else:
            m &= (s == v).to_numpy()
    return m


def compute_step_bits(df: pd.DataFrame, steps) -> np.ndarray:
    """uint32 per-row bitmask: bit j set ⟺ row satisfies ``steps[j]``.
    Computed once per micro-batch/block — the only predicate evaluation in
    the whole operator; everything downstream is integer shifts."""
    if len(steps) > MAX_STEPS:
        raise ValueError(f"at most {MAX_STEPS} pattern steps (got {len(steps)})")
    if len(steps) < 1:
        raise ValueError("pattern needs at least one step")
    bits = np.zeros(len(df), dtype=np.uint32)
    for j, s in enumerate(steps):
        bits |= _step_mask(df, s).astype(np.uint32) << np.uint32(j)
    return bits


def match_columns(key: str, emit=()) -> list[str]:
    """Output schema of the match scan (shared by batch + streaming)."""
    return [key, "start_turn_idx", "end_turn_idx", "start_ts_us", "end_ts_us"] + [
        name for _off, _src, name in emit
    ]


def empty_matches(key: str, emit=()) -> pd.DataFrame:
    cols = match_columns(key, emit)
    out = pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    out[key] = out[key].astype(object)
    for _off, _src, name in emit:
        out[name] = out[name].astype(object)
    return out


def scan_matches(
    df: pd.DataFrame,
    k: int,
    within_us: int | None,
    emit=(),
    key: str = "conv_id",
    order: str = "turn_idx",
    assume_sorted: bool = False,
) -> pd.DataFrame:
    """Vectorized consecutive-sequence scan over one co-located bucket.

    *df* needs columns ``key, order, ts_us, __bits`` plus any emit source
    columns; rows of a key must be unique per *order* value. One stable sort
    + k shifted bitwise ANDs; candidate start ``i`` is a match iff rows
    ``i..i+k-1`` are the same key, have consecutive *order* values, step j's
    bit is set on row ``i+j``, and (optionally) the event-time span is
    within *within_us*.
    """
    emit = tuple(emit)
    if len(df) < k:
        return empty_matches(key, emit)
    if not assume_sorted:
        df = df.sort_values([key, order], kind="mergesort").reset_index(drop=True)
    n = len(df)
    m = n - k + 1
    conv = pd.factorize(df[key], sort=False)[0]
    ti = df[order].to_numpy(dtype=np.int64)
    ts = df["ts_us"].to_numpy(dtype=np.int64)
    # step j lives in word j>>5 at bit j&31 — one uint32 column per word,
    # so a fixed pattern may exceed 32 steps (k ≤ 32 reads only __bits)
    words = [df[word_column(w)].to_numpy(dtype=np.uint32)
             for w in range((k + 31) >> 5)]
    valid = (words[0][:m] & np.uint32(1)).astype(bool)
    for j in range(1, k):
        valid &= (words[j >> 5][j : m + j] & np.uint32(1 << (j & 31))).astype(bool)
    valid &= conv[k - 1 :] == conv[:m]
    valid &= (ti[k - 1 :] - ti[:m]) == (k - 1)
    if within_us is not None:
        span = ts[k - 1 :] - ts[:m]
        # span ≥ 0 also rejects null-ts sentinels inside the match (a −inf
        # END makes the span negative; a −inf START makes it overflow-huge)
        valid &= (span <= within_us) & (span >= 0)
    idx = np.nonzero(valid)[0]
    out = pd.DataFrame(
        {
            key: df[key].to_numpy()[idx],
            "start_turn_idx": ti[idx],
            "end_turn_idx": ti[idx] + (k - 1),
            "start_ts_us": ts[idx],
            "end_ts_us": ts[idx + k - 1],
        }
    )
    for off, src, name in emit:
        out[name] = df[src].to_numpy()[idx + off]
    return out


def _step_mask_table(t: pa.Table, step) -> np.ndarray:
    """Arrow-kernel variant of :func:`_step_mask` — per-byte compiled
    comparisons instead of object-dtype Python equality (~10× on string
    columns; the hot path for both batch prep and the streaming replayers).
    Callable steps still receive a pandas DataFrame (one contract)."""
    if callable(step):
        return np.asarray(step(t.to_pandas()), dtype=bool)
    m = np.ones(t.num_rows, dtype=bool)
    for col, v in step.items():
        c = t[col]
        if isinstance(v, tuple) and len(v) == 2 and v[0] in _CMP_OPS:
            op, rhs = v
            mm = {"==": pc.equal, "!=": pc.not_equal, "<": pc.less,
                  "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal}[op](c, rhs)
        elif isinstance(v, (list, set, frozenset, np.ndarray)):
            mm = pc.is_in(c, value_set=pa.array(list(v)))
        else:
            mm = pc.equal(c, v)
        m &= pc.fill_null(mm, False).to_numpy(zero_copy_only=False)
    return m


def _step_key(step):
    """Hashable identity for a dict step (duplicate-step mask memoization:
    patterns like user→tool→user evaluate the repeated predicate once)."""
    if callable(step):
        return None
    return tuple(
        (c, tuple(v) if isinstance(v, (list, tuple, set, frozenset, np.ndarray)) else v)
        for c, v in sorted(step.items())
    )


def compute_step_words_table(t: pa.Table, steps) -> list[np.ndarray]:
    """Per-row step bitmasks over an Arrow table, chunked into uint32 WORDS
    of 32 steps: word ``j >> 5`` holds step ``j`` at bit ``j & 31``.
    Duplicate-step masks are memoized ACROSS words."""
    if len(steps) < 1:
        raise ValueError("pattern needs at least one step")
    seen: dict = {}

    def _mask(s) -> np.ndarray:
        kk = _step_key(s)
        m = seen.get(kk) if kk is not None else None
        if m is None:
            m = _step_mask_table(t, s).astype(np.uint32)
            if kk is not None:
                seen[kk] = m
        return m

    words = []
    for w0 in range(0, len(steps), MAX_STEPS):
        bits = np.zeros(t.num_rows, dtype=np.uint32)
        for j, s in enumerate(steps[w0:w0 + MAX_STEPS]):
            bits |= _mask(s) << np.uint32(j)
        words.append(bits)
    return words


def compute_step_bits_table(t: pa.Table, steps) -> np.ndarray:
    """uint32 per-row step bitmask over an Arrow table (see
    :func:`compute_step_bits`) — the single-word form used by callers whose
    state is one mask column (streaming actors, Kleene, absence)."""
    if len(steps) > MAX_STEPS:
        raise ValueError(f"at most {MAX_STEPS} pattern steps (got {len(steps)})")
    return compute_step_words_table(t, steps)[0]


def word_column(w: int) -> str:
    return "__bits" if w == 0 else f"__bits{w}"


def _prep_table(
    t: pa.Table, steps, key: str, order: str, ts_col: str, emit_srcs
) -> pa.Table:
    """Shuffle-side row prep shared by the batch path and the streaming
    replayers: step bits + int64 event time, pruned to the scan columns.
    All Arrow kernels — no object-dtype comparisons on the hot path."""
    ts = pc.fill_null(t[ts_col].cast(pa.int64()), _NEG_INF)
    cols = {
        key: t[key],
        order: t[order].cast(pa.int64()),
        "ts_us": ts,
    }
    for w, word in enumerate(compute_step_words_table(t, steps)):
        cols[word_column(w)] = pa.array(word, type=pa.uint32())
    for src in emit_srcs:
        cols[src] = t[src]
    return pa.table(cols)


def _bucket_scan(df, k, within_us, emit, key, order):
    return scan_matches(df, k, within_us, emit, key=key, order=order)


def pattern_columns(steps, emit=(), key="conv_id", order="turn_idx", ts_col="ts"):
    """Input columns the pattern needs — pass to ``read_parquet(columns=…)``
    so the read itself prunes. Kleene elements ``("+", step)`` are
    unwrapped."""
    need = {key, order, ts_col}
    for s in steps:
        if isinstance(s, tuple) and len(s) == 2 and s[0] == "+":
            s = s[1]
        if not callable(s):
            need |= set(s.keys())
    need |= {src for _off, src, _name in emit}
    return sorted(need)


def match_pattern(
    ds,
    steps,
    within_us: int | None = None,
    emit=(),
    key: str = "conv_id",
    order: str = "turn_idx",
    ts_col: str = "ts",
    num_buckets: int | None = None,
):
    """Batch CEP: find every consecutive *steps* sequence per *key*.

    *emit* is a tuple of ``(step_offset, source_col, out_name)`` — copy
    ``source_col`` from the row matching step ``step_offset`` into the
    output as ``out_name`` (e.g. ``(1, "tool", "tool")`` = the tool name of
    the middle step). Null event times flow through with a −inf sentinel:
    they can only match when *within_us* is None (span of −inf fails the
    bound), mirroring the batch window path's explicit-null policy.

    Returns a Dataset of match rows (see :func:`match_columns`).
    """
    k = len(steps)
    emit = tuple(emit)
    emit_srcs = sorted({src for _off, src, _name in emit})
    prep = functools.partial(
        _prep_table, steps=steps, key=key, order=order, ts_col=ts_col, emit_srcs=emit_srcs
    )
    pruned = ds.map_batches(prep, batch_format="pyarrow")
    kernel = functools.partial(
        _bucket_scan, k=k, within_us=within_us, emit=emit, key=key, order=order
    )
    return grouped_by_bucket(
        pruned, [key], kernel, num_buckets=num_buckets, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Negation / absence patterns (CEP timers): trigger rows with NO qualifying
# successor — the timeout-detection half of a CEP runtime.
# ---------------------------------------------------------------------------

def empty_absence(key: str) -> pd.DataFrame:
    out = pd.DataFrame(
        {
            key: pd.Series([], dtype=object),
            "start_turn_idx": pd.Series([], dtype=np.int64),
            "ts_us": pd.Series([], dtype=np.int64),
            "reason": pd.Series([], dtype=object),
        }
    )
    return out


def scan_absence(
    df: pd.DataFrame,
    within_us: int,
    key: str = "conv_id",
    order: str = "turn_idx",
    assume_sorted: bool = False,
) -> pd.DataFrame:
    """Vectorized absence scan over a co-located bucket: emit every TRIGGER
    row (bit 0 of ``__bits``) whose immediate successor (same key, order+1)
    is missing (``no_next``), fails the response predicate (bit 1 —
    ``wrong_type``), or arrives after *within_us* (``too_late``)."""
    if not len(df):
        return empty_absence(key)
    if not assume_sorted:
        df = df.sort_values([key, order], kind="mergesort").reset_index(drop=True)
    n = len(df)
    conv = pd.factorize(df[key], sort=False)[0]
    ti = df[order].to_numpy(dtype=np.int64)
    ts = df["ts_us"].to_numpy(dtype=np.int64)
    bits = df["__bits"].to_numpy(dtype=np.uint32)
    nxt_same = np.zeros(n, dtype=bool)
    resp_type = np.zeros(n, dtype=bool)
    late = np.zeros(n, dtype=bool)
    if n > 1:
        nxt_same[:-1] = (conv[1:] == conv[:-1]) & (ti[1:] == ti[:-1] + 1)
        resp_type[:-1] = (bits[1:] & np.uint32(2)) != 0
        span = ts[1:] - ts[:-1]
        late[:-1] = ~((span <= within_us) & (span >= 0))
    trig = (bits & np.uint32(1)) != 0
    ok = nxt_same & resp_type & ~late
    fail = trig & ~ok
    idx = np.nonzero(fail)[0]
    reason = np.where(
        ~nxt_same[idx], "no_next",
        np.where(~resp_type[idx], "wrong_type", "too_late"),
    )
    return pd.DataFrame(
        {
            key: df[key].to_numpy()[idx],
            "start_turn_idx": ti[idx],
            "ts_us": ts[idx],
            "reason": reason,
        }
    )


def _bucket_absence(df, within_us, key, order):
    return scan_absence(df, within_us, key=key, order=order)


def match_absence(
    ds,
    trigger,
    response,
    within_us: int,
    key: str = "conv_id",
    order: str = "turn_idx",
    ts_col: str = "ts",
    num_buckets: int | None = None,
):
    """Batch absence/timeout detection: every *trigger* row with no
    qualifying *response* on the immediately following row within
    *within_us* — with the failure ``reason`` (no_next / wrong_type /
    too_late). Same prep + single-exchange shape as :func:`match_pattern`
    (the two steps become bits 0 and 1 of the step mask)."""
    steps = [trigger, response]
    prep = functools.partial(
        _prep_table, steps=steps, key=key, order=order, ts_col=ts_col, emit_srcs=[]
    )
    pruned = ds.map_batches(prep, batch_format="pyarrow")
    kernel = functools.partial(_bucket_absence, within_us=within_us, key=key, order=order)
    return grouped_by_bucket(
        pruned, [key], kernel, num_buckets=num_buckets, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Kleene-plus patterns: [pre..., B+, post...] — one variable-length
# one-or-more step (MATCH_RECOGNIZE quantifier), greedy/maximal-run
# semantics: the B-run is the maximal chain of consecutive B rows, the
# fixed prefix/suffix steps match the rows immediately around it.
# ---------------------------------------------------------------------------

KLEENE_COLS = ("start_turn_idx", "end_turn_idx", "start_ts_us", "end_ts_us", "run_len")


def empty_kleene(key: str, emit=()) -> pd.DataFrame:
    out = pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in
                        (key, *KLEENE_COLS)})
    out[key] = out[key].astype(object)
    for _off, _src, name in emit:
        out[name] = pd.Series([], dtype=object)
    return out


def check_kleene_emit(emit, n_pre: int, n_post: int) -> tuple:
    """Kleene emit offsets address the FIXED rows of the span only (the
    variable-length run interior has no stable address): ``0 ≤ off ≤
    n_pre`` counts from the span start (prefix steps, then the run's first
    row at ``n_pre``); ``-(n_post+1) ≤ off ≤ -1`` counts from the span end
    (the run's last row at ``-(n_post+1)``, then suffix steps, Python
    style)."""
    emit = tuple(emit)
    for off, _src, name in emit:
        if not (0 <= off <= n_pre or -(n_post + 1) <= off <= -1):
            raise ValueError(
                f"emit {name!r}: offset {off} addresses the variable run "
                f"interior; use 0..{n_pre} (from span start) or "
                f"{-(n_post + 1)}..-1 (from span end)"
            )
    return emit


def scan_kleene(
    df: pd.DataFrame,
    n_pre: int,
    n_post: int,
    within_us: int | None,
    key: str = "conv_id",
    order: str = "turn_idx",
    assume_sorted: bool = False,
    emit=(),
) -> pd.DataFrame:
    """Vectorized maximal-run scan. ``__bits`` layout: bits 0..n_pre−1 =
    prefix steps, bit n_pre = the B (plus) step, bits n_pre+1.. = suffix
    steps. Emits one row per maximal B-run whose surrounding fixed steps
    match on consecutive turns of the same key, with the run length.
    *emit* copies source-column values from the span's FIXED rows
    (offset convention in :func:`check_kleene_emit`)."""
    emit = check_kleene_emit(emit, n_pre, n_post)
    if not len(df):
        return empty_kleene(key, emit)
    if not assume_sorted:
        df = df.sort_values([key, order], kind="mergesort").reset_index(drop=True)
    n = len(df)
    conv = pd.factorize(df[key], sort=False)[0]
    ti = df[order].to_numpy(dtype=np.int64)
    ts = df["ts_us"].to_numpy(dtype=np.int64)
    bits = df["__bits"].to_numpy(dtype=np.uint32)
    b = (bits & np.uint32(1 << n_pre)) != 0
    chained = np.zeros(n, dtype=bool)  # row i chains to row i+1
    if n > 1:
        chained[:-1] = (conv[1:] == conv[:-1]) & (ti[1:] == ti[:-1] + 1)
    prev_b_chain = np.zeros(n, dtype=bool)
    prev_b_chain[1:] = b[:-1] & chained[:-1]
    next_b_chain = np.zeros(n, dtype=bool)
    next_b_chain[:-1] = b[1:] & chained[:-1]
    rs = np.nonzero(b & ~prev_b_chain)[0]  # maximal-run starts
    re = np.nonzero(b & ~next_b_chain)[0]  # maximal-run ends (aligned)
    if not len(rs):
        return empty_kleene(key, emit)
    i0 = rs - n_pre
    i1 = re + n_post
    valid = (i0 >= 0) & (i1 < n)
    i0c = np.clip(i0, 0, n - 1)
    i1c = np.clip(i1, 0, n - 1)
    # one key, consecutive turns across the whole span (ti strictly
    # increasing within a key ⇒ span of +1 steps ⟺ total diff == count)
    valid &= conv[i0c] == conv[i1c]
    valid &= (ti[i1c] - ti[i0c]) == (i1c - i0c)
    for j in range(n_pre):
        valid &= (bits[np.clip(i0 + j, 0, n - 1)] & np.uint32(1 << j)) != 0
    for j in range(n_post):
        valid &= (bits[np.clip(re + 1 + j, 0, n - 1)]
                  & np.uint32(1 << (n_pre + 1 + j))) != 0
    if within_us is not None:
        span = ts[i1c] - ts[i0c]
        valid &= (span <= within_us) & (span >= 0)
    sel = np.nonzero(valid)[0]
    out = pd.DataFrame(
        {
            key: df[key].to_numpy()[i0c[sel]],
            "start_turn_idx": ti[i0c[sel]],
            "end_turn_idx": ti[i1c[sel]],
            "start_ts_us": ts[i0c[sel]],
            "end_ts_us": ts[i1c[sel]],
            "run_len": (re - rs)[sel] + 1,
        }
    )
    for off, src, name in emit:
        at = i0c[sel] + off if off >= 0 else i1c[sel] + 1 + off
        out[name] = df[src].to_numpy()[at]
    return out


def _bucket_kleene(df, n_pre, n_post, within_us, emit, key, order):
    return scan_kleene(df, n_pre, n_post, within_us, key=key, order=order,
                       emit=emit)


def match_kleene(
    ds,
    steps,
    within_us: int | None = None,
    key: str = "conv_id",
    order: str = "turn_idx",
    ts_col: str = "ts",
    num_buckets: int | None = None,
    emit=(),
):
    """Batch Kleene-plus CEP. *steps* is a list where EXACTLY ONE element is
    wrapped as ``("+", step)`` (the one-or-more step); the rest are fixed
    single-row steps. Greedy maximal-run semantics (see
    :func:`scan_kleene`). Same prep/exchange shape as
    :func:`match_pattern`. *emit* copies source columns from the span's
    fixed rows — prefix rows / run first via non-negative offsets, run
    last / suffix rows via negative offsets (:func:`check_kleene_emit`)."""
    plus_idx = [i for i, s in enumerate(steps)
                if isinstance(s, tuple) and len(s) == 2 and s[0] == "+"]
    if len(plus_idx) != 1:
        raise ValueError("match_kleene needs exactly one ('+', step) element")
    if len(steps) > MAX_STEPS:
        raise ValueError(
            f"Kleene patterns are single-word: at most {MAX_STEPS} steps "
            f"(got {len(steps)}); only fixed sequences may exceed a word"
        )
    n_pre = plus_idx[0]
    n_post = len(steps) - n_pre - 1
    emit = check_kleene_emit(emit, n_pre, n_post)
    flat = [s[1] if i == n_pre else s for i, s in enumerate(steps)]
    prep = functools.partial(
        _prep_table, steps=flat, key=key, order=order, ts_col=ts_col,
        emit_srcs=sorted({src for _o, src, _n in emit}),
    )
    pruned = ds.map_batches(prep, batch_format="pyarrow")
    kernel = functools.partial(
        _bucket_kleene, n_pre=n_pre, n_post=n_post, within_us=within_us,
        emit=emit, key=key, order=order,
    )
    return grouped_by_bucket(
        pruned, [key], kernel, num_buckets=num_buckets, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Multi-pattern single-pass matching: a PATTERN LIBRARY evaluated over ONE
# prep + ONE key exchange — at corpus scale N patterns cost one shuffle,
# not N (the per-pattern work is a few shifted ANDs on the already-sorted
# bucket).
# ---------------------------------------------------------------------------


def _prep_table_many(
    t: pa.Table, word_steps, key: str, order: str, ts_col: str, emit_srcs
) -> pa.Table:
    """Multi-word prep: one uint32 bitmask column per 32-step word
    (``__bits``, ``__bits1``, …). The library bound is gone (32 × words),
    and a fixed pattern LONGER than 32 steps spans a dedicated run of
    words (offset 0, step j in word j>>5 — round-4 VERDICT #6)."""
    ts = pc.fill_null(t[ts_col].cast(pa.int64()), _NEG_INF)
    cols = {key: t[key], order: t[order].cast(pa.int64()), "ts_us": ts}
    for w, steps in enumerate(word_steps):  # packer fills each word ≤ 32 steps
        cols[word_column(w)] = pa.array(
            compute_step_bits_table(t, steps), type=pa.uint32())
    for src in emit_srcs:
        cols[src] = t[src]
    return pa.table(cols)


def _bucket_scan_many(df, plan, key, order, with_run_len):
    df = df.sort_values([key, order], kind="mergesort").reset_index(drop=True)
    words = {c: df[c].to_numpy(dtype=np.uint32)
             for c in df.columns if c.startswith("__bits")}
    outs = []
    for name, entry in plan.items():
        kind, w, offset = entry[0], entry[1], entry[2]
        sub = df.copy()
        if kind == "fixed" and entry[3] > MAX_STEPS:
            # >32-step pattern: dedicated aligned word run (offset 0) — remap
            # its words w..w+nw-1 onto the scan's __bits, __bits1, … slots
            for i in range((entry[3] + MAX_STEPS - 1) >> 5):
                sub[word_column(i)] = words[word_column(w + i)]
        else:
            sub["__bits"] = words[word_column(w)] >> np.uint32(offset)
        if kind == "fixed":
            k, within_us, emit = entry[3], entry[4], entry[5]
            m = scan_matches(sub, k, within_us, emit, key=key, order=order,
                             assume_sorted=True)
            if with_run_len:
                m["run_len"] = np.zeros(len(m), np.int64)  # fixed: no run
        else:  # kleene
            n_pre, n_post, within_us, emit = entry[3], entry[4], entry[5], entry[6]
            m = scan_kleene(sub, n_pre, n_post, within_us, key=key, order=order,
                            assume_sorted=True, emit=emit)
        m.insert(1, "pattern", name)
        outs.append(m)
    all_emit_names = sorted({nm for e in plan.values()
                             for *_x, nm in (e[5] if e[0] == "fixed" else e[6])})
    for m in outs:
        for nm in all_emit_names:
            if nm not in m.columns:
                m[nm] = None
    cols = [key, "pattern", "start_turn_idx", "end_turn_idx",
            "start_ts_us", "end_ts_us",
            *(["run_len"] if with_run_len else []), *all_emit_names]
    return pd.concat([m[cols] for m in outs], ignore_index=True)


def match_many(
    ds,
    patterns: dict,
    key: str = "conv_id",
    order: str = "turn_idx",
    ts_col: str = "ts",
    num_buckets: int | None = None,
):
    """Evaluate a library of patterns in ONE pass — one prep stage, one key
    exchange, then each bucket scans every pattern on its already-sorted
    rows (N patterns cost one shuffle, not N).

    *patterns*: ``{name: {"steps": [...], "within_us": int|None,
    "emit": tuple}}``. Steps may include exactly one ``("+", step)`` Kleene
    element per pattern (greedy maximal-run semantics, as
    :func:`match_kleene`); Kleene entries emit from the span's FIXED rows
    (offset convention in :func:`check_kleene_emit`). Library
    size is unbounded: patterns pack first-fit into 32-bit mask WORDS (one
    uint32 column per word through the exchange), and a FIXED sequence
    longer than 32 steps gets its own word-aligned run of words (step j in
    word j>>5 — no per-pattern bound; Kleene patterns stay ≤ 32 steps).
    Output adds a ``pattern`` column; emit columns are unioned
    (null where a pattern does not emit them); if any entry is Kleene, a
    ``run_len`` column is added (0 for fixed-sequence matches).
    """
    plan: dict = {}
    word_used: list[int] = []
    word_steps: list[list] = []
    emit_srcs: set = set()
    any_kleene = False
    for name, spec in patterns.items():
        steps = spec["steps"]
        plus = [i for i, s in enumerate(steps)
                if isinstance(s, tuple) and len(s) == 2 and s[0] == "+"]
        if len(plus) > 1:
            raise ValueError(f"pattern {name!r}: at most one ('+', step) element")
        flat = [s[1] if (plus and i == plus[0]) else s for i, s in enumerate(steps)]
        k = len(flat)
        if k > MAX_STEPS:
            if plus:
                raise ValueError(
                    f"pattern {name!r}: Kleene patterns are single-word "
                    f"(≤ {MAX_STEPS} steps)")
            # long fixed pattern: dedicated word-aligned run, offset 0; the
            # run's words are marked full so nothing else packs into them
            w = len(word_used)
            for i in range(0, k, MAX_STEPS):
                word_used.append(MAX_STEPS)
                word_steps.append(flat[i:i + MAX_STEPS])
            off = 0
        else:
            for w in range(len(word_used)):  # first-fit word packing
                if word_used[w] + k <= MAX_STEPS:
                    break
            else:
                w = len(word_used)
                word_used.append(0)
                word_steps.append([])
            off = word_used[w]
            word_used[w] += k
            word_steps[w].extend(flat)
        emit = tuple(spec.get("emit", ()))
        if plus:
            any_kleene = True
            emit = check_kleene_emit(emit, plus[0], k - plus[0] - 1)
            plan[name] = ("kleene", w, off, plus[0], k - plus[0] - 1,
                          spec.get("within_us"), emit)
        else:
            plan[name] = ("fixed", w, off, k, spec.get("within_us"), emit)
        emit_srcs |= {src for _o, src, _n in emit}
    prep = functools.partial(
        _prep_table_many, word_steps=word_steps, key=key, order=order,
        ts_col=ts_col, emit_srcs=sorted(emit_srcs),
    )
    pruned = ds.map_batches(prep, batch_format="pyarrow")
    kernel = functools.partial(_bucket_scan_many, plan=plan, key=key,
                               order=order, with_run_len=any_kleene)
    return grouped_by_bucket(
        pruned, [key], kernel, num_buckets=num_buckets, batch_format="pandas"
    )
