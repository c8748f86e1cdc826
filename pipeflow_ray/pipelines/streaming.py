"""Micro-batch streaming runtime: monotonic watermarks, per-key session state
in an actor pool, late-data side output, watermark-driven eviction.

This is the part of the north rule the Dataset API genuinely cannot express —
a shared mutable per-conversation state store advanced in arrival order — so
it drops to raw Ray actors (SURVEY §2.10). Everything around it stays
vectorized: every event-time bucket actor's ``process`` only appends the
routed frame, and its ``evict``, run at the epoch barrier, is one columnar
pass over the carried state plus those frames (an interval merge for
sessions, a group-by sum for windows, a next-turn pairing for the join, a
pattern scan for the CEP family).

Partitioning: conversations are hash-bucketed across ``num_buckets`` actors —
the same key discipline as the batch path (one key, ``conv_id``, everywhere).
Arrival order: ALL ingest goes through :class:`ShardReplayer` actors on one
epoch loop (:meth:`_ParallelReplayBase._epochs`) — one ingest code path;
the driver never decodes bytes. Each replayer owns one contiguous
name-ordered shard group and replays it sequentially. Each event-time mode
(session, tumbling, sliding, join, CEP, absence, Kleene) is one
``Parallel*Runner``; ``max_replayers=1`` gives strict totally-ordered
arrival, and each ``ParallelCheckpointing*Runner`` is the same runner with
the checkpointed ``run`` of :class:`_ParallelCheckpointMixin`. Epoch
barriers are the only coordination point: the driver holds the shard
watermarks the replayers return, evicts against their min and hands them to
the next epoch's replays, which judge lateness locally.
:class:`StreamingSessionRunner` adds the late-row side output to the
single-replayer session run. The aggregate-on-ingest runners (exact
and KLL quantiles, vocabulary, exact dedup, HLL, top-k, conversation dedup)
merge commutatively and need no arrival order or watermark; they replay in
the ``ingest`` mode through one run helper (:func:`_run_on_ingest`).

Bucket state: every runner's bucket actor is one class,
:class:`StateBucketActor`, holding a plain state object — one of the six
event-time states (session, tumbling/sliding, join, CEP, absence, Kleene;
base :class:`_EventTimeState`) or one of the seven on-ingest states (base
:class:`_IngestState`) — and forwarding every call to it.

Semantics contract (tested): with ``allowed_lateness`` ≥ max disorder, the
finalized sessions equal the batch-mode :func:`~pipeflow_ray.stages.window.
session_aggregate` on the same rows; late rows are never silently dropped —
they land in the ``late`` side output (reference has no late-data concept;
``drop_late=False`` default per SURVEY §2.10).

Actor lifecycle: there are two actor classes, :class:`ShardReplayer` and
:class:`StateBucketActor`; both reserve no CPU slot and derive from
:class:`_Reusable`. Runners get their actors from :func:`_acquire` (an idle
actor of the class, reset in place with ``reinit`` — a bucket actor may come
back holding another mode's state class — or a fresh spawn) and hand them
back with :func:`_release` on normal completion, so a later run of any mode
in the same Ray session starts no actor process while the cache holds as
many actors as its topology needs. The crash-injection
path kills its actors; an exception drops the handles and Ray reclaims the
unreferenced actors, so a half-applied topology is never reused.
"""

from __future__ import annotations

import heapq
import json
import os
import threading

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

US = 1_000_000
_NO_MARK, _EOF_MARK = -(1 << 62), 1 << 62  # shard watermark: no row seen / at EOF


def _n_chars(col) -> "pd.Series":
    """Vectorized int64 char count of a text column (Arrow kernel — ~20×
    faster than pandas ``.str.len()`` over Python objects on the replay hot
    path)."""
    import pyarrow.compute as pc

    n = pc.utf8_length(pc.fill_null(col, "")).cast(pa.int64())
    return pd.Series(n.to_numpy(zero_copy_only=False))


def _out_schema(key: str, ints, strings=()) -> pa.Schema:
    """A mode's output schema: the string key, int64 columns, then string
    columns."""
    return pa.schema([(key, pa.string()), *((c, pa.int64()) for c in ints),
                      *((c, pa.string()) for c in strings)])


_SESSIONS = _out_schema("conv_id", ("start_us", "end_us", "n_turns", "n_chars"))
_WINDOWS = _out_schema("key", ("window_start_us", "n", "value_sum"))
_PARKED = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int64()), ("rc", pa.int8()),
                     ("ts_us", pa.int64()), ("n_chars", pa.int64())])  # unmatched join turns
_PAIRS = _out_schema("conv_id", ("turn_idx", "user_ts_us", "resp_ts_us",
                                 "user_chars", "resp_chars"))  # join output
_LATE = _out_schema("conv_id", ("ts_us", "n_chars"))  # late side output rows


def _merge_sessions(df: pd.DataFrame, gap_us: int) -> pd.DataFrame:
    """Merge session intervals ``(conv_id, start_us, end_us, n_turns,
    n_chars)`` into maximal runs, one vectorized pass: grouped by conv_id
    (in first-appearance order) and sorted by start, a run starts where the
    key changes or ``start − running max(end) within the key > gap``; each
    run keeps min start, max end and the sums. Intervals may come in any
    order, so a conversation's later fragment arriving first still merges.
    Over one-row intervals (start = end = ts, n_turns = 1) this is per-batch
    sessionization."""
    key = pd.factorize(df["conv_id"], use_na_sentinel=False)[0]
    start = df["start_us"].to_numpy(np.int64)
    order = np.lexsort((start, key))
    key, start = key[order], start[order]
    new_key = np.ones(len(key), dtype=bool)
    new_key[1:] = key[1:] != key[:-1]
    reach = (pd.Series(df["end_us"].to_numpy(np.int64)[order])
             .groupby(np.cumsum(new_key)).cummax().to_numpy())
    first = new_key.copy()
    first[1:] |= start[1:] - reach[:-1] > gap_us
    at = np.flatnonzero(first)
    return pd.DataFrame({
        "conv_id": df["conv_id"].to_numpy()[order[at]],
        "start_us": start[at],
        "end_us": np.maximum.reduceat(reach, at),
        "n_turns": np.add.reduceat(df["n_turns"].to_numpy(np.int64)[order], at),
        "n_chars": np.add.reduceat(df["n_chars"].to_numpy(np.int64)[order], at),
    })


# Streaming actors reserve NO CPU slot (num_cpus=0). num_cpus is a
# scheduling reservation, not a cap: the actors run all the same, they just
# never queue for a slot. A reservation would be held by idle cached actors
# too — with 0.5 per replayer, five idle replayers held 2.5 of a 4-CPU
# node's slots and the next runner's replayers were never placed. Every
# streaming replayer, the on-ingest runners' included, is such an actor.
# Spawning is the expensive part (≈0.9 s of Python-process start per actor;
# actors never reuse idle task workers), hence the warm cache below.

_MAX_IDLE_ACTORS = 12  # ≥ 6 = 4 buckets + 2 replayers, the stream benchmark's
# largest topology (its top-k run reuses all six after the session run);
# 12 also keeps a runner's default 8 buckets plus replayers warm. An idle
# actor process holds ≈190 MB RSS
_idle: list = []  # (class name, handle) of idle actors, least recently released first
_idle_node: "str | None" = None  # the Ray node (session) the cached handles belong to
_idle_lock = threading.Lock()  # runners may be driven from several driver threads


class _Reusable:
    """Base of every streaming actor class: ``reinit`` turns a cached idle
    actor into the one ``__init__(*args, **kwargs)`` would have built. No
    actor class keeps mutable class-level state, so instance state is all
    there is to reset."""

    def reinit(self, *args, **kwargs) -> None:
        self.__dict__.clear()
        self.__init__(*args, **kwargs)


def _pool() -> list:
    """The idle cache of the current Ray session; handles cached in an
    earlier session are dead and are dropped. Call with ``_idle_lock`` held."""
    global _idle_node
    if not ray.is_initialized():
        return []
    node = ray.get_runtime_context().get_node_id()
    if node != _idle_node:
        _idle.clear()
        _idle_node = node
    return _idle


def _take_idle(name: str):
    """Remove and return the most recently released idle actor of class
    *name*, or None."""
    with _idle_lock:
        pool = _pool()
        for i in range(len(pool) - 1, -1, -1):
            if pool[i][0] == name:
                return pool.pop(i)[1]
    return None


def _acquire(cls, *args, **kwargs):
    """An actor of *cls* in the state ``cls.remote(*args, **kwargs)`` would
    give: an idle cached one, re-initialized, or a fresh spawn. Returns only
    after the reset is applied: Ray orders calls per caller, so a replayer
    handed this actor could otherwise reach it before the driver's
    ``reinit``. An idle actor that died is dropped."""
    name = cls.__ray_metadata__.class_name
    while (actor := _take_idle(name)) is not None:
        try:
            ray.get(actor.reinit.remote(*args, **kwargs))
            return actor
        except ray.exceptions.RayActorError:
            pass
    return cls.remote(*args, **kwargs)


def _release(*actors) -> None:
    """Return a finished topology's actors to the idle cache (normal
    completion only). Above ``_MAX_IDLE_ACTORS`` the least recently released
    idle actors are killed."""
    with _idle_lock:
        pool = _pool()
        for a in actors:
            # a handle cached twice would serve two roles in the next topology
            if a is not None and all(a != b for _, b in pool):
                pool.append((a._ray_actor_creation_function_descriptor.class_name, a))
        evicted = [pool.pop(0)[1] for _ in range(len(pool) - _MAX_IDLE_ACTORS)]
    _kill_actors(*evicted)


def _kill_actors(*actors) -> None:
    """Kill actors now instead of leaving them to Ray's reference counting.
    Serves the crash-injection path (a simulated crash must not leave its
    topology in the cache) and the eviction of idle actors above the cache
    cap; normal completion calls :func:`_release` instead."""
    for a in actors:
        if a is None:
            continue
        try:
            ray.kill(a, no_restart=True)
        except Exception:  # already dead / not an actor handle — GC's problem
            pass


@ray.remote(num_cpus=0)
class StateBucketActor(_Reusable):
    """The bucket actor of every streaming runner: one hash bucket of keys,
    holding the plain state object ``state_cls(*args)`` and forwarding the
    replayers' and the driver's calls to it. Being one class, an idle bucket
    actor left by one mode's run serves the next run of any mode."""

    def __init__(self, state_cls, *args):
        self.state = state_cls(*args)

    def process(self, *parts) -> None:
        self.state.process(*parts)

    def evict(self, watermark_us: int) -> None:
        self.state.evict(watermark_us)

    def flush(self) -> "pd.DataFrame | pa.Table":
        return self.state.flush()

    def drain(self) -> pd.DataFrame:
        return self.state.drain()

    def state_size(self) -> int:
        return self.state.state_size()

    def dump_state(self) -> pd.DataFrame:
        return self.state.dump_state()

    def load_state(self, df: pd.DataFrame) -> None:
        self.state.load_state(df)


class _EventTimeState:
    """Base of the six event-time bucket states. ``carry`` is the open state
    as of the last barrier (one frame), ``parts`` the frames routed since
    then, ``buf`` the emissions not yet handed over. ``process`` only
    appends; a state's ``evict(watermark_us, final)``, run at epoch
    barriers, is one columnar pass over ``carry`` plus ``parts`` that moves
    what the watermark finalizes into ``buf`` (``final``: end of stream).
    Emissions leave only at :meth:`drain`/:meth:`flush`, never returned to
    (and possibly dropped by) whichever replayer's batch completed them.

    Eviction happens only at barriers: while other replayers' batches are
    still in flight, it could emit a session before a mergeable fragment
    arrives, emit a window that a later partial re-opens, or drop a user
    turn whose response is on its way — nondeterministically. At a barrier
    every replayer is quiescent and the min of the shard watermarks bounds
    every future on-time event time (see :meth:`_ParallelReplayBase._epochs`).
    """

    def __init__(self, carry: pd.DataFrame, empty: pd.DataFrame):
        self.carry = carry
        self.parts: list[pd.DataFrame] = []
        self.buf: list[pd.DataFrame] = []
        self.empty = empty  # what drain returns when nothing was emitted

    def process(self, part: pd.DataFrame) -> None:
        self.parts.append(part)

    def evict(self, watermark_us: int, final: bool = False) -> None:
        raise NotImplementedError

    def flush(self) -> pd.DataFrame:
        self.evict(_EOF_MARK, final=True)
        return self.drain()

    def drain(self) -> pd.DataFrame:
        """Hand over the buffered emissions WITHOUT touching the open state
        — the emission half of a checkpoint barrier."""
        parts, self.buf = self.buf, []
        return pd.concat(parts, ignore_index=True) if parts else self.empty.copy()

    def state_size(self) -> int:
        """Open rows: the carried state plus the routed frames."""
        return len(self.carry) + sum(len(p) for p in self.parts)

    def _pending(self) -> "pd.DataFrame | None":
        """The carry plus the routed parts as one frame (None when there are
        no rows); the routed buffer is emptied. An empty carry is left out,
        so its placeholder dtypes never shape the result's."""
        frames = [self.carry, *self.parts] if len(self.carry) else self.parts
        self.parts = []
        return pd.concat(frames, ignore_index=True) if frames else None

    def _take_rows(self) -> "pd.DataFrame | None":
        """:meth:`_pending` sorted by key then order: a CEP-family scan's
        input."""
        df = self._pending()
        if df is None:
            return None
        return df.sort_values([self.key, self.order], kind="mergesort").reset_index(drop=True)

    def _tail_rows(self) -> pd.DataFrame:
        """A CEP-family state's carried tail, typed even when empty."""
        if len(self.carry):
            return self.carry
        return pd.DataFrame({self.key: [], self.order: [], "ts_us": np.array([], np.int64),
                             "__bits": np.array([], np.uint32)})


class _SessionState(_EventTimeState):
    """Open-session state for one hash bucket of conversations.

    ``carry`` holds the open sessions as one typed frame of disjoint
    intervals (``_SESSIONS``; a conversation may hold several, each pair
    more than the gap apart); ``parts`` the session fragments routed since
    the last barrier. :meth:`evict` merges both with :func:`_merge_sessions`
    and finalizes a session once the watermark passes ``session_end + gap``
    — bounding state to open sessions only. Fragments may arrive in any
    order (parallel shard replay delivers a conversation's later shard
    before its earlier one), so sessionizing is interval merging, not
    append-only extension.
    """

    def __init__(self, gap_s: float):
        empty = _SESSIONS.empty_table().to_pandas()
        super().__init__(empty, empty)
        self.gap_us = int(gap_s * US)

    def evict(self, watermark_us: int, final: bool = False) -> None:
        """Finalize every session the watermark has passed by more than the
        gap (no non-late row can reach it: every future row has ts ≥
        watermark > end + gap) into the emission buffer."""
        if self.parts:
            self.carry = _merge_sessions(self._pending(), self.gap_us)
        done = self.carry["end_us"].to_numpy(np.int64) + self.gap_us < watermark_us
        if done.any():
            self.buf.append(self.carry[done])
            self.carry = self.carry[~done].reset_index(drop=True)

    def state_size(self) -> int:
        """Open conversations (as of the last barrier)."""
        return int(self.carry["conv_id"].nunique(dropna=False))

    def dump_state(self) -> pd.DataFrame:
        """Snapshot the open sessions (checkpoint state half)."""
        return self.carry

    def load_state(self, df: pd.DataFrame) -> None:
        """Restore a snapshot (resume). Replaces current state."""
        self.carry = df[_SESSIONS.names].astype(dict.fromkeys(_SESSIONS.names[1:], np.int64))


class StreamingSessionRunner:
    """Strictly-ordered streaming sessionization with a late-row side
    output: :class:`ParallelStreamingRunner` with ``max_replayers=1`` (the
    shard group is the whole log in name order, so arrival order is total)
    whose replayer keeps the late rows themselves, not just their count.

    Returns ``(sessions, late, metrics)``: late rows are surfaced as a
    side-output DataFrame, never silently dropped."""

    def __init__(self, gap_s: float = 1800.0, lateness_s: float = 3600.0, num_buckets: int = 8):
        self.gap_s = gap_s
        self.lateness_s = lateness_s
        self.num_buckets = num_buckets

    def run(self, parquet_path: str, micro_batch_rows: int = 65_536):
        """→ (sessions: pd.DataFrame, late: pd.DataFrame, metrics: dict)."""
        inner = ParallelStreamingRunner(
            gap_s=self.gap_s, lateness_s=self.lateness_s,
            num_buckets=self.num_buckets, max_replayers=1,
        )
        inner.retain_late = True
        sessions, metrics = inner.run(parquet_path, micro_batch_rows)
        return sessions, _late_rows(inner.late), metrics


def _late_rows(parts: list) -> pd.DataFrame:
    """Retained late session rows *parts*, concatenated and typed (conv_id,
    ts_us int64, n_chars int64) at any row count."""
    if not parts:
        return _LATE.empty_table().to_pandas()
    return pd.concat(parts, ignore_index=True).astype({"ts_us": np.int64, "n_chars": np.int64})


class _TumblingState(_EventTimeState):
    """Open tumbling-window state for one hash bucket of keys: ``carry``,
    one ``(key, window_start_us, n, value_sum)`` row per open window, plus
    the window partials routed since the last barrier (sliding windows
    arrive already tiled). :meth:`evict` sums both per window and finalizes
    (emits and drops) the windows the watermark has passed ``window_end`` —
    classic event-time tumbling aggregation with monotonic watermark
    finalization."""

    def __init__(self, width_s: float):
        empty = _WINDOWS.empty_table().to_pandas()
        super().__init__(empty, empty)
        self.width_us = int(width_s * US)

    def evict(self, watermark_us: int, final: bool = False) -> None:
        if self.parts:
            self.carry = (self._pending().groupby(["key", "window_start_us"], sort=False)
                          .sum().reset_index())
        done = self.carry["window_start_us"].to_numpy(np.int64) + self.width_us <= watermark_us
        if done.any():
            self.buf.append(self.carry[done])
            self.carry = self.carry[~done].reset_index(drop=True)


# ---------------------------------------------------------------------------
# Parallel multi-shard replay with per-shard watermarks — the one ingest
# path of every streaming runner: the event-time modes (session, tumbling,
# sliding, join, CEP, absence, Kleene) and the aggregate-on-ingest families.
# Ingest is NEVER a driver loop: every byte is decoded inside a
# ShardReplayer actor, which keeps its own shard watermark; the driver
# collects the marks at each epoch barrier. One replayer
# (``max_replayers=1``) gives strict totally-ordered arrival; more replayers
# are the 100-TB path.
# ---------------------------------------------------------------------------

def _join_turns_df(rb: pa.RecordBatch) -> pd.DataFrame:
    """Decode one transcript micro-batch into the join-runner row format:
    (conv_id, turn_idx, rc ∈ {0 user, 1 response, 2 other}, ts_us, n_chars).
    Vectorized Arrow kernels only."""
    import pyarrow.compute as pc

    t = pa.Table.from_batches([rb])
    role = t["role"]
    rc = pc.if_else(
        pc.equal(role, "user"), pa.scalar(0, pa.int8()),
        pc.if_else(pc.is_in(role, value_set=pa.array(["assistant", "tool"])),
                   pa.scalar(1, pa.int8()), pa.scalar(2, pa.int8())),
    )
    return pd.DataFrame(
        {
            "conv_id": t["conv_id"].to_pandas(),
            "turn_idx": t["turn_idx"].to_pandas().astype("int64"),
            "rc": rc.to_pandas(),
            "ts_us": t["ts"].cast(pa.int64()).to_pandas(),
            "n_chars": _n_chars(t["text"].combine_chunks()),
        }
    )


def _window_partials(df: pd.DataFrame, width_us: int, slide_us: int) -> pd.DataFrame:
    """Per-batch (key, window_start) partials for tumbling (width == slide)
    or sliding windows (each row tiled into its k = width/slide containing
    windows) — the combiner that shrinks rows to partials BEFORE they touch
    actor state."""
    k = width_us // slide_us
    base = df.ts_us.to_numpy() // slide_us * slide_us
    if k == 1:
        rep = pd.DataFrame({"key": df.key.to_numpy(), "ws": base, "v": df.v.to_numpy()})
    else:
        rep = pd.DataFrame(
            {
                "key": np.tile(df.key.to_numpy(), k),
                "ws": np.concatenate([base - i * slide_us for i in range(k)]),
                "v": np.tile(df.v.to_numpy(), k),
            }
        )
    return (
        rep.groupby(["key", "ws"], sort=False)
        .agg(n=("v", "size"), value_sum=("v", "sum"))
        .reset_index()
        .rename(columns={"ws": "window_start_us"})
    )


def _bucket_of(keys, nb: int) -> np.ndarray:
    """Hash bucket (0..nb−1) of each key: the one routing rule of every
    streaming runner. A pandas Series hashes as Python objects — what
    :meth:`ShardReplayer._route` sends and what a checkpoint resume re-reads
    from its snapshot — so resumed state lands in the bucket its key's rows
    go to."""
    if isinstance(keys, pd.Series):
        keys = keys.to_numpy(dtype=object)
    return pd.util.hash_array(keys) % np.uint64(nb)


@ray.remote(num_cpus=0)
class ShardReplayer(_Reusable):
    """Owns the sequential replay of ONE log partition (a contiguous group of
    shard files in name order) for any streaming mode. Decodes micro-batches
    IN THE ACTOR (the driver never touches bytes), judges lateness, advances
    its own shard watermark ``mark`` (max event time seen − allowed
    lateness; ``1 << 62`` once at EOF), computes the per-batch vectorized
    partials (session fragments / window partials / join turns, or in the
    ``ingest`` mode the family's ``params["partial"]``) and routes them to
    the shared bucket state actors. It reads ``params["columns"]``.

    ``replay(max_batches, marks)`` processes up to *max_batches*
    micro-batches and returns — the epoch primitive
    :meth:`_ParallelReplayBase._epochs` uses as a consistent barrier (all
    replayers quiescent between epochs). *marks* are every shard's marks as
    of the last barrier, held by the driver; a row is late when its event
    time is below ``min(own mark before its batch, every other shard's
    barrier mark)``, a bound the replayer computes without a round-trip.
    The open parquet iterator survives across epochs, so an N-epoch run
    decodes each byte exactly once."""

    def __init__(self, shard_id: int, files: list, mode: str, params: dict,
                 lateness_us: int, micro_batch_rows: int,
                 bucket_actors: list, start_offset: int = 0,
                 retain_late: bool = False):
        self.shard_id = shard_id
        self.files = [str(f) for f in files]
        self.mode = mode
        self.params = params
        self.lateness_us = lateness_us
        self.micro_batch_rows = micro_batch_rows
        self.buckets = bucket_actors
        self.start_offset = start_offset  # resume: skip already-applied batches
        self.offset = 0
        self.rows = 0
        self.late_rows = 0
        self.null_rows = 0  # dropped for a null event time (or key, in ingest)
        self.eof = False
        self.mark = _NO_MARK  # this shard's watermark
        self.others = _NO_MARK  # min of the other shards' barrier marks
        self._iter = None
        self._pending: list = []  # in-flight bucket process() futures
        # side-output support (StreamingSessionRunner): buffer the late rows
        # themselves, not just the count
        self.retain_late = retain_late
        self._late_parts: list[pd.DataFrame] = []

    def late_frames(self) -> pd.DataFrame:
        """Retained late rows (only populated when ``retain_late``)."""
        return _late_rows(self._late_parts)

    def _batches(self):
        for fp in self.files:
            yield from pq.ParquetFile(fp).iter_batches(
                batch_size=self.micro_batch_rows, columns=self.params["columns"]
            )

    def replay(self, max_batches: int, marks: list) -> tuple:
        """Process up to *max_batches* micro-batches, judging lateness
        against *marks* (every shard's mark at the last barrier). Returns
        cumulative (rows, late_rows, null_rows, offset, eof) and this
        shard's mark."""
        self.mark = marks[self.shard_id]
        self.others = min((m for i, m in enumerate(marks) if i != self.shard_id),
                          default=_EOF_MARK)
        if self._iter is None:
            self._iter = self._batches()
            while self.offset < self.start_offset:  # resume: decode-skip once
                if next(self._iter, None) is None:
                    self.eof = True
                    break
                self.offset += 1
        n = 0
        while not self.eof and n < max_batches:
            rb = next(self._iter, None)
            if rb is None:
                self.eof = True
                break
            self.rows += rb.num_rows
            self._process(rb)
            self.offset += 1
            n += 1
        # drain in-flight routes BEFORE returning: the caller's ray.get on
        # replay() is the epoch barrier — eviction/checkpoint may only run
        # once every routed batch has been applied to the bucket actors
        if self._pending:
            ray.get(self._pending)
            self._pending = []
        if self.eof:
            self.mark = _EOF_MARK  # a finished shard holds no watermark back
        return (self.rows, self.late_rows, self.null_rows, self.offset, self.eof,
                self.mark)

    def _route(self, keys, *parts) -> None:
        """Send each bucket the rows of *parts* (a frame, or the on-ingest
        partial's arrays) whose routing key in *keys* hashes to it."""
        # bucket actors only merge here; eviction happens ONLY at epoch
        # barriers (all replayers quiescent — see _EventTimeState)
        nb = len(self.buckets)
        bucket = _bucket_of(keys, nb)
        # PIPELINED routing: no per-batch ray.get — Ray executes calls from
        # the same caller on the same actor in submission order, which is all
        # shard-arrival order needs (cross-replayer interleaving is already
        # handled by commutative state + barrier eviction). Futures drain at
        # replay() return (the epoch barrier) and at the backpressure cap.
        for b in range(nb):
            m = bucket == b
            if m.any():
                self._pending.append(self.buckets[b].process.remote(*(p[m] for p in parts)))
        if len(self._pending) > 256:
            ray.get(self._pending)
            self._pending = []

    def _on_time(self, df: pd.DataFrame, nulls: pd.Series) -> pd.DataFrame:
        """The rows of *df* to route. Event-time streaming needs an event
        time: rows flagged in *nulls* are counted and dropped (the BATCH
        window path emits them under a null window instead — documented
        divergence, surfaced in metrics). Then lateness is judged against
        ``min(own mark BEFORE this batch advances it, the other shards'
        barrier marks)`` — a record never makes itself late. max(all rows)
        equals max(non-late rows) whenever any row is on time (late ⇒ ts <
        bound ≤ every on-time ts); an all-late batch advances by a value
        below this shard's own monotonic mark — a no-op. Late rows are
        counted and, under ``retain_late``, kept."""
        if nulls.any():
            self.null_rows += int(nulls.sum())
            df = df[~nulls]
        if not len(df):
            return df
        bound = min(self.mark, self.others)
        self.mark = max(self.mark, int(df.ts_us.max()) - self.lateness_us)
        late = df.ts_us < bound
        if late.any():
            self.late_rows += int(late.sum())
            if self.retain_late:
                self._late_parts.append(df[late])
            df = df[~late]
        return df

    def _process(self, rb: pa.RecordBatch) -> None:
        if self.mode == "join":
            df = _join_turns_df(rb)
            if not len(df):
                return
            self.mark = max(self.mark, int(df.ts_us.max()) - self.lateness_us)
            self._route(df["conv_id"], df)
            return

        t = pa.Table.from_batches([rb])
        if self.mode == "ingest":
            # commutative states: no event time, no lateness — drop (and
            # count) null-key rows, reduce with the family's partial
            import pyarrow.compute as pc

            p = self.params
            if p["key_col"] is not None and t[p["key_col"]].null_count:
                self.null_rows += t[p["key_col"]].null_count
                t = t.filter(pc.is_valid(t[p["key_col"]]))
            if t.num_rows:
                keys, *payload = p["partial"](t, *p["partial_args"])
                self._route(keys, keys, *payload)
            return

        if self.mode == "cep":
            from pipeflow_ray.stages.cep import _NEG_INF, _prep_table

            p = self.params
            emit_srcs = sorted({src for _o, src, _n in p["emit"]})
            if p.get("derive") is not None:
                # derived predicate columns (e.g. n_chars) computed HERE so
                # heavy raw columns (text) never leave the replayer
                t = p["derive"](t)
            df = _prep_table(t, p["steps"], p["key"],
                             p["order"], p["ts_col"], emit_srcs).to_pandas()
            df = self._on_time(df, df.ts_us == _NEG_INF)  # null ts sentinel
            if len(df):
                self._route(df[p["key"]], df)
            return

        key_name = "conv_id" if self.mode == "session" else "key"
        val_name = "n_chars" if self.mode == "session" else "v"
        src_key = "conv_id" if self.mode == "session" else self.params["key_col"]
        df = pd.DataFrame(
            {
                key_name: t[src_key].to_pandas(),
                "ts_us": t["ts"].cast(pa.int64()).to_pandas(),
                val_name: _n_chars(t["text"].combine_chunks()),
            }
        )
        df = self._on_time(df, df.ts_us.isna())
        if not len(df):
            return
        if self.mode == "session":
            # conv_id order: a bucket keeps open sessions in the order its
            # frames bring them, and this layout gives the smallest
            # checkpoint snapshots measured (frames in first-row order:
            # +0.3%; globally sorted state: +0.6%)
            frags = _merge_sessions(
                pd.DataFrame({"conv_id": df.conv_id, "start_us": df.ts_us, "end_us": df.ts_us,
                              "n_turns": 1, "n_chars": df.n_chars}), self.params["gap_us"]
            ).sort_values("conv_id", kind="mergesort")
            self._route(frags["conv_id"], frags)
        else:
            partials = _window_partials(df, self.params["width_us"], self.params["slide_us"])
            self._route(partials["key"], partials)


def _shard_files(parquet_path: str) -> list[str]:
    if os.path.isdir(parquet_path):
        return sorted(
            os.path.join(parquet_path, f)
            for f in os.listdir(parquet_path)
            if f.endswith(".parquet")
        )
    return [parquet_path]


def _shard_groups(files: list[str], max_replayers: int) -> list[list[str]]:
    """Contiguous name-order file groups, one per replayer — replayers are a
    bounded pool (actor processes), not one per file: a 100-TB log has tens
    of thousands of shards but a cluster has hundreds of replay slots."""
    n = max(1, min(len(files), max_replayers))
    return [list(g) for g in np.array_split(np.array(files, dtype=object), n)]


def _concat(handles: list) -> "pd.DataFrame | None":
    """The non-empty emission frames behind *handles*, concatenated; None
    when there are none."""
    parts = [p for p in ray.get(handles) if len(p)]
    return pd.concat(parts, ignore_index=True) if parts else None


class _ParallelReplayBase:
    """Shared harness of every streaming mode: a bounded replayer-actor
    pool over name-ordered shard groups, driver-held shard watermarks,
    bucket state actors, the one epoch loop (:meth:`_epochs`) and the plain
    ``run`` of the event-time modes. A mode defines its replay params, its
    bucket state (``(state class, *args)`` for :class:`StateBucketActor`),
    its output schema ``_schema`` (what the plain run returns on empty
    input and what a checkpointed run commits) and the metrics key
    ``_count`` of its output row count."""

    mode: str
    _schema: pa.Schema
    _count: str

    def __init__(self, lateness_s: float, num_buckets: int, max_replayers: int = 16,
                 epoch_batches: int = 64):
        if num_buckets < 1 or epoch_batches < 1:
            raise ValueError(f"num_buckets and epoch_batches must be at least 1 "
                             f"(got {num_buckets}, {epoch_batches})")
        self.lateness_us = int(lateness_s * US)
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers
        # micro-batches per replayer between eviction barriers: bounds open
        # state to what accumulates within one epoch span
        self.epoch_batches = epoch_batches
        # side-output hook (StreamingSessionRunner): replayers buffer late
        # ROWS, not just counts, and the plain run leaves them in ``late``
        self.retain_late = False
        self.late: list[pd.DataFrame] = []

    # --- mode hooks ---
    def _params(self) -> dict:
        raise NotImplementedError

    def _bucket_state(self) -> tuple:
        raise NotImplementedError

    def _make_bucket_actor(self):
        return _acquire(StateBucketActor, *self._bucket_state())

    def _finish(self, out: pd.DataFrame) -> pd.DataFrame:
        """The plain run's output from the bucket actors' emissions."""
        return out

    def _epochs(self, parquet_path: str, micro_batch_rows: int, batches: int,
                ck: "_Checkpoint | None" = None):
        """The one epoch loop: shard groups → bucket and replayer actors →
        per epoch, every live replayer replays up to *batches* micro-batches
        under the shard marks of the last barrier (``ray.get`` = the
        alignment barrier: no replayer is mid-batch) → the driver keeps each
        replayer's new mark and the bucket actors evict against their min G,
        the only safe eviction point (see :class:`_EventTimeState`) and what
        keeps open state bounded. A checkpointed run (*ck*) starts from its
        snapshot's offsets, marks and open state and ends each epoch with
        drain → commit → snapshot.

        Evicting at G is safe because marks only grow: the replayers'
        lateness bound is never below G, so every later row they route has
        ts ≥ G and needs no dropped state — a session with end + gap < G, a
        window ending ≤ G. (The join drops no late rows; a turn it evicts is
        past the eviction gap, beyond which it does not pair.) CEP, absence
        and Kleene drop only rows sealed below G: per-key event time is
        non-decreasing in order, so a row with ts ≥ G orders after them, and
        a match ending below G was emitted once and cannot re-form. The
        bound depends only on the input and the epoch boundaries, not on
        replayer timing.

        → ((replayers, bucket actors), per-replayer replay results — the
        last field is the shard's mark — n_files), or None after a
        simulated crash."""
        # replay(0) would never reach EOF, and a zero-row batch reads nothing
        if micro_batch_rows < 1 or batches < 1:
            raise ValueError(
                f"micro_batch_rows and the batches per epoch (epoch_batches, "
                f"checkpoint_every) must be at least 1 (got {micro_batch_rows}, {batches})")
        files = _shard_files(parquet_path)
        groups = _shard_groups(files, self.max_replayers)
        n = len(groups)
        actors = [self._make_bucket_actor() for _ in range(self.num_buckets)]
        offsets, eofs, marks = (ck.start(n, actors) if ck
                                else ([0] * n, [False] * n, [_NO_MARK] * n))
        reps = [
            _acquire(ShardReplayer, i, g, self.mode, self._params(),
                     self.lateness_us, micro_batch_rows, actors,
                     start_offset=offsets[i], retain_late=self.retain_late)
            for i, g in enumerate(groups)
        ]
        results = [(0, 0, 0, offsets[i], eofs[i], marks[i]) for i in range(n)]
        while not all(eofs):
            live = [i for i in range(n) if not eofs[i]]
            res = ray.get([reps[i].replay.remote(batches, marks) for i in live])
            for i, r in zip(live, res):
                results[i] = r
                eofs[i] = r[4]
                marks[i] = r[5]
            ray.get([a.evict.remote(min(marks)) for a in actors])
            if ck is not None and not ck.epoch_done(results):
                # simulated crash: explicit kill ≈ the process dying; a
                # crashed topology never enters the cache
                _kill_actors(*reps, *actors)
                return None
        return (reps, actors), results, len(files)

    def run(self, parquet_path: str, micro_batch_rows: int = 65_536):
        """→ (output DataFrame, metrics). Emissions buffer inside the bucket
        actors and are collected once, after every replayer finished."""
        (reps, actors), results, n_files = self._epochs(
            parquet_path, micro_batch_rows, self.epoch_batches)
        out = _concat([a.flush.remote() for a in actors])
        metrics = self._metrics(results, n_files)
        metrics["open_state"] = sum(ray.get([a.state_size.remote() for a in actors]))
        if self.retain_late:
            self.late = [f for f in ray.get([r.late_frames.remote() for r in reps]) if len(f)]
        _release(*reps, *actors)
        out = self._finish(self._schema.empty_table().to_pandas() if out is None else out)
        metrics[self._count] = int(len(out))
        return out, metrics

    @staticmethod
    def _metrics(results, n_files) -> dict:
        return {
            "rows": sum(r[0] for r in results),
            "late_rows": sum(r[1] for r in results),
            "null_ts_rows": sum(r[2] for r in results),
            "shards": n_files,
            "replayers": len(results),
            "replayer_rows": [r[0] for r in results],  # driver-decode guard:
            # every input row is accounted for by a replayer actor
        }


class ParallelStreamingRunner(_ParallelReplayBase):
    """Multi-shard parallel SESSION replay: a replayer pool (each preserving
    its shard group's arrival order and keeping its shard watermark), the
    min of the shard watermarks taken by the driver at each epoch barrier,
    and shared per-bucket session state actors with watermark eviction.

    This is the 256-node shape: shards ↔ log partitions, replayers scale with
    shards, state actors scale with key cardinality, and the min-watermark
    rule keeps finalization correct regardless of shard skew. Fragment merge
    handles cross-shard out-of-order arrival within the lateness horizon
    (sessions may extend backwards); with lateness ≥ total disorder the
    result equals batch event-time sessionization (tested).
    """

    mode = "session"
    _schema = _SESSIONS
    _count = "sessions"

    def __init__(self, gap_s: float = 1800.0, lateness_s: float = 3600.0,
                 num_buckets: int = 8, max_replayers: int = 16,
                 epoch_batches: int = 64):
        super().__init__(lateness_s, num_buckets, max_replayers, epoch_batches)
        self.gap_us = int(gap_s * US)
        self.gap_s = gap_s

    def _params(self) -> dict:
        return {"gap_us": self.gap_us, "columns": ["conv_id", "text", "ts"]}

    def _bucket_state(self) -> tuple:
        return _SessionState, self.gap_s

    def _finish(self, out: pd.DataFrame) -> pd.DataFrame:
        out["session_start"] = pd.to_datetime(out.start_us, unit="us")
        out["session_end"] = pd.to_datetime(out.end_us, unit="us")
        return out.drop(columns=["start_us", "end_us"])


class ParallelTumblingRunner(_ParallelReplayBase):
    """Parallel-replay tumbling-window aggregation. Window partials merge
    commutatively in the bucket actors, so cross-shard arrival order is
    free; finalization follows the global min-watermark. Equals the batch
    tumbling aggregate when lateness covers total disorder (tested). The
    measured value is the char count of ``text``.

    Null event times: event-time streaming needs an event time, so null-ts
    rows are counted (``metrics["null_ts_rows"]``) and dropped — the BATCH
    window path emits them under a null window_start instead (documented
    divergence)."""

    mode = "tumbling"
    _schema = _WINDOWS
    _count = "windows"

    def __init__(self, width_s: float = 3600.0, lateness_s: float = 3600.0,
                 num_buckets: int = 8, key_col: str = "conv_id",
                 max_replayers: int = 16, epoch_batches: int = 64):
        super().__init__(lateness_s, num_buckets, max_replayers, epoch_batches)
        self.width_us = int(width_s * US)
        if self.width_us < 1:
            raise ValueError(f"window width must be positive (got width_s={width_s})")
        self.width_s = width_s
        self.slide_us = self.width_us
        self.key_col = key_col

    def _params(self) -> dict:
        return {"key_col": self.key_col, "width_us": self.width_us,
                "slide_us": self.slide_us, "columns": [self.key_col, "text", "ts"]}

    def _bucket_state(self) -> tuple:
        return _TumblingState, self.width_s


class ParallelSlidingRunner(ParallelTumblingRunner):
    """Parallel-replay SLIDING windows: per-batch row→k-window tiling happens
    inside the replayer actors; everything else is the tumbling machinery."""

    mode = "sliding"

    def __init__(self, width_s: float = 7200.0, slide_s: float = 3600.0,
                 lateness_s: float = 3600.0, num_buckets: int = 8,
                 key_col: str = "conv_id", max_replayers: int = 16,
                 epoch_batches: int = 64):
        if int(slide_s * US) < 1:
            raise ValueError(f"window slide must be positive (got slide_s={slide_s})")
        if int(width_s * US) % int(slide_s * US) != 0:
            raise ValueError("sliding window width must be a multiple of slide")
        super().__init__(width_s=width_s, lateness_s=lateness_s,
                         num_buckets=num_buckets, key_col=key_col,
                         max_replayers=max_replayers, epoch_batches=epoch_batches)
        self.slide_us = int(slide_s * US)


class ParallelJoinRunner(_ParallelReplayBase):
    """Parallel-replay incremental turn-response join. The parked turns in
    :class:`_JoinState` are paired at each barrier, order-free within
    the eviction horizon, so cross-shard pairs (user turn in one shard,
    response in another) resolve at the first barrier after the second side
    arrives; eviction follows the global min-watermark. Equals the batch ``turn_response_join`` when the
    eviction gap covers total disorder (tested)."""

    mode = "join"
    _schema = _PAIRS
    _count = "pairs"

    def __init__(self, lateness_s: float = 3600.0, eviction_gap_s: float | None = None,
                 num_buckets: int = 8, max_replayers: int = 16,
                 epoch_batches: int = 64):
        super().__init__(lateness_s, num_buckets, max_replayers, epoch_batches)
        self.eviction_gap_s = eviction_gap_s if eviction_gap_s is not None else lateness_s

    def _params(self) -> dict:
        return {"columns": ["conv_id", "turn_idx", "role", "text", "ts"]}

    def _bucket_state(self) -> tuple:
        return _JoinState, self.eviction_gap_s


class _CepState(_EventTimeState):
    """Partial-match CEP state for one hash bucket of conversations (the
    streaming half of :mod:`pipeflow_ray.stages.cep`).

    State: the per-key row tail still able to participate in a future match
    — unsealed rows (event time ≥ watermark) plus the trailing k−1 sealed
    rows of each key. Scanning happens in :meth:`evict`, at epoch barriers.
    Exactly-once emission: a match is emitted at the barrier eviction where
    its LAST row's event time first falls below the barrier watermark (the
    min of the shard watermarks; each last row seals exactly once, so
    ``prev_wm ≤ end_ts < wm`` fires exactly once per match).

    Correctness relies on per-key event time non-decreasing in the order
    column (stages.cep docstring): sealed rows then form a per-key prefix,
    the trailing k−1 sealed rows are the only sealed rows reachable by a
    future match, and a sealed match can never be invalidated — any
    not-yet-arrived row BETWEEN sealed rows would itself be late and is
    dropped at the replayer.
    """

    def __init__(self, k: int, within_us: int | None, emit=(),
                 key: str = "conv_id", order: str = "turn_idx"):
        from pipeflow_ray.stages.cep import empty_matches

        super().__init__(pd.DataFrame(), empty_matches(key, tuple(emit)))
        self.k = k
        self.within_us = within_us
        self.emit = tuple(emit)
        self.key = key
        self.order = order
        self.prev_wm = _NO_MARK

    def evict(self, watermark_us: int, final: bool = False) -> None:
        from pipeflow_ray.stages.cep import scan_matches

        df = self._take_rows()
        if df is None:
            self.prev_wm = max(self.prev_wm, watermark_us)
            return
        matches = scan_matches(df, self.k, self.within_us, self.emit,
                               key=self.key, order=self.order, assume_sorted=True)
        newly = matches[(matches.end_ts_us.to_numpy() < watermark_us)
                        & (matches.end_ts_us.to_numpy() >= self.prev_wm)]
        if len(newly):
            self.buf.append(newly)
        if final:  # end of stream: no match can form any more
            self.carry = pd.DataFrame()
            return
        # retention: unsealed rows + the trailing k−1 sealed rows per key
        n = len(df)
        ts = df["ts_us"].to_numpy(np.int64)
        sealed = ts < watermark_us
        conv = pd.factorize(df[self.key], sort=False)[0]
        first = np.zeros(n, dtype=bool)
        if n:
            first[0] = True
            first[1:] = conv[1:] != conv[:-1]
        start_of = np.maximum.accumulate(np.where(first, np.arange(n), 0))
        pos = np.arange(n) - start_of
        sealed_cnt = np.bincount(conv, weights=sealed, minlength=int(conv.max()) + 1 if n else 0)
        keep = (~sealed) | (pos >= sealed_cnt[conv].astype(np.int64) - (self.k - 1))
        self.carry = df[keep].reset_index(drop=True)
        self.prev_wm = max(self.prev_wm, watermark_us)

    # --- checkpoint support ---

    def dump_state(self) -> pd.DataFrame:
        """Snapshot the partial-match row tail (checkpoint state half).
        ``prev_wm`` needs no persistence: the retained tail holds at most
        k−1 sealed rows per key, so no match found after resume can end
        before the checkpointed watermark — re-emission is structurally
        impossible even with prev_wm reset to −inf."""
        return self._tail_rows()

    def load_state(self, df: pd.DataFrame) -> None:
        self.carry = df.reset_index(drop=True)


class ParallelCepRunner(_ParallelReplayBase):
    """Parallel-replay CEP pattern matching: the streaming form of
    :func:`pipeflow_ray.stages.cep.match_pattern`. Step bitmasks are
    computed inside the replayer actors (text never routed), partial-match
    tails live in the bucket actors, and emission follows the global
    min-watermark sealing rule. With lateness ≥ total disorder the emitted
    matches equal the batch scan on the same rows (tested)."""

    mode = "cep"
    _count = "matches"

    def __init__(self, steps, within_us: int | None = None, emit=(),
                 lateness_s: float = 3600.0, num_buckets: int = 8,
                 max_replayers: int = 16, epoch_batches: int = 64,
                 key: str = "conv_id", order: str = "turn_idx",
                 ts_col: str = "ts"):
        from pipeflow_ray.stages.cep import match_columns, pattern_columns

        super().__init__(lateness_s, num_buckets, max_replayers, epoch_batches)
        self.steps = list(steps)
        self.within_us = within_us
        self.emit = tuple(emit)
        self.key = key
        self.order = order
        self.ts_col = ts_col
        self.columns = pattern_columns(steps, self.emit, key, order, ts_col)
        self._schema = _out_schema(key, match_columns(key)[1:],
                                   [name for _o, _s, name in self.emit])

    def _params(self) -> dict:
        return {"steps": self.steps, "within_us": self.within_us,
                "emit": self.emit, "key": self.key, "order": self.order,
                "ts_col": self.ts_col, "columns": self.columns}

    def _bucket_state(self) -> tuple:
        return _CepState, len(self.steps), self.within_us, self.emit, self.key, self.order


# ---------------------------------------------------------------------------
# Streaming stateful turn-response join (north rule: user turns joined to
# matching assistant/tool turns, state held in actor pools)
# ---------------------------------------------------------------------------

class _JoinState(_EventTimeState):
    """Incremental conv_id-keyed hash join state for one bucket.

    ``carry`` holds the still-unmatched turns ``(conv_id, turn_idx, rc
    (0 user, 1 response, 2 other), ts_us, n_chars)``; ``parts`` the turns
    routed since the last barrier, in any order. At each epoch barrier
    :meth:`evict` pairs both with
    :func:`~pipeflow_ray.stages.join.pair_next_turns` (a user turn with the
    response at ``turn_idx + 1``; arrival order within the lateness horizon
    is arbitrary). Matched pairs leave the state; an unmatched turn stays
    until the barrier watermark passes ``ts + gap`` (no response can still
    arrive on time), and has no output. Turns are unique per (conv_id,
    turn_idx), so pairing once per barrier gives the pairs a turn-by-turn
    park-or-match would.
    """

    def __init__(self, eviction_gap_s: float = 3600.0):
        super().__init__(_PARKED.empty_table().to_pandas(), _PAIRS.empty_table().to_pandas())
        self.gap_us = int(eviction_gap_s * US)

    def evict(self, watermark_us: int, final: bool = False) -> None:
        from pipeflow_ray.stages.join import pair_next_turns

        if self.parts:
            df = self._pending()
            user, resp = pair_next_turns(
                pa.Table.from_pandas(df[["conv_id", "turn_idx", "rc"]], preserve_index=False),
                "conv_id", "turn_idx", "rc", 0, pa.array([1], pa.int8()))
            if len(user):
                ts, nc = df["ts_us"].to_numpy(np.int64), df["n_chars"].to_numpy(np.int64)
                self.buf.append(pd.DataFrame({
                    "conv_id": df["conv_id"].to_numpy()[user],
                    "turn_idx": df["turn_idx"].to_numpy(np.int64)[user],
                    "user_ts_us": ts[user], "resp_ts_us": ts[resp],
                    "user_chars": nc[user], "resp_chars": nc[resp],
                }))
            unmatched = np.ones(len(df), dtype=bool)
            unmatched[user] = unmatched[resp] = False
            self.carry = df[unmatched]
        live = self.carry["ts_us"].to_numpy(np.int64) + self.gap_us >= watermark_us
        self.carry = self.carry[live].reset_index(drop=True)

    # --- checkpoint support ---

    def dump_state(self) -> pd.DataFrame:
        """Snapshot the parked unmatched turns (the checkpoint state half)."""
        return self.carry.astype({"rc": np.int64})

    def load_state(self, df: pd.DataFrame) -> None:
        """Restore a snapshot (resume). Replaces current state."""
        self.carry = df[_PARKED.names].astype(
            {"turn_idx": np.int64, "rc": np.int8, "ts_us": np.int64, "n_chars": np.int64})


# ---------------------------------------------------------------------------
# Epoch-aligned checkpointing over the parallel replay pool: distributed
# ingest + exactly-once output + mid-stream resume (session, join and the
# three CEP modes).
#
# Barrier recipe (Flink-style aligned epochs, expressed with Ray actors):
# after each epoch's barrier eviction (:meth:`_ParallelReplayBase._epochs`)
# the driver drains the bucket actors' buffered emissions into one
# atomically-manifested partition and snapshots {open state, per-replayer
# offsets, the driver's shard marks} in a single checkpoint record. Crash
# recovery re-creates actors from the snapshot and replays exactly the lost
# span: committed output has no duplicates and no gaps (tested: kill +
# resume ≡ uninterrupted ≡ batch oracle).
# ---------------------------------------------------------------------------


class _Checkpoint:
    """The checkpointed side of one run of :meth:`_ParallelReplayBase._epochs`:
    partitions committed exactly once into *out_dir* under a dense ``seq``,
    and under ``_checkpoints/`` the latest record {epoch, per-replayer
    offsets, eofs and watermark marks (the marks the driver holds at the
    barrier), late rows, commit seq, open-state file, finalized}, each file
    replaced atomically."""

    def __init__(self, runner: "_ParallelReplayBase", parquet_path: str, out_dir: str,
                 stop_after_epochs: "int | None"):
        from pipeflow_ray.state.manifest import prepare_sink

        prepare_sink(out_dir)
        self.runner = runner
        self.input = parquet_path
        self.out_dir = out_dir
        self.dir = os.path.join(out_dir, "_checkpoints")
        os.makedirs(self.dir, exist_ok=True)
        self.json = os.path.join(self.dir, "latest.json")
        self.stop_after = stop_after_epochs  # crash-injection hook (tests)
        self.epoch = self.commit_seq = self.base_late = self.epochs_run = 0
        self.finalized = False
        self.state_file = None  # the snapshot latest.json names
        self.actors: list = []

    def start(self, n: int, actors: list) -> tuple[list, list, list]:
        """→ (offsets, eofs, marks) the *n* replayers start from: zeros and
        no marks, or the latest record's, whose open state (each row sent to
        the bucket its key routes to) is loaded into *actors*."""
        self.actors = actors
        if not os.path.exists(self.json):
            return [0] * n, [False] * n, [_NO_MARK] * n
        with open(self.json) as f:
            ck = json.load(f)
        if ck["replayers"] != n:
            raise ValueError("resume requires the same shard grouping as the checkpointed run")
        self.epoch, self.commit_seq = ck["epoch"], ck["commit_seq"]
        self.base_late = ck["late_rows"]  # replayer late counters restart per run
        self.finalized = ck.get("finalized", False)
        self.state_file = ck["state_file"]
        state = pd.read_parquet(os.path.join(self.dir, self.state_file))
        if len(state):
            bucket = _bucket_of(state[getattr(self.runner, "key", "conv_id")], len(actors))
            ray.get([a.load_state.remote(state[bucket == b]) for b, a in enumerate(actors)])
        return ck["offsets"], ck["eofs"], ck["marks"]

    def epoch_done(self, results: list) -> bool:
        """End of an epoch, after its barrier eviction: drain → commit →
        snapshot. False = simulated crash (``stop_after_epochs`` reached
        mid-stream): nothing drained, committed or snapshotted."""
        self.epochs_run += 1
        self.epoch += 1
        if (self.stop_after is not None and self.epochs_run >= self.stop_after
                and not all(r[4] for r in results)):
            return False
        self.commit([a.drain.remote() for a in self.actors],
                    {"kind": self.runner._kind, "seq": self.commit_seq})
        self.snapshot(results)
        return True

    def finish(self, results: list) -> None:
        """End of stream: flush open/buffered state into a final commit
        unless a previous run ALREADY finalized (explicit marker — a
        completed job's re-run must not accumulate empty partitions)."""
        if self.epochs_run or not self.finalized:
            self.commit([a.flush.remote() for a in self.actors],
                        {"kind": self.runner._kind + "-final"})
            self.snapshot(results, final=True)

    def commit(self, handles: list, lineage: dict) -> None:
        from pipeflow_ray.state.manifest import commit_partition

        out = _concat(handles)
        schema = self.runner._schema
        # empty epochs still commit a partition (the seq must be dense for
        # resume) — with the DECLARED schema, not pandas' object-dtype
        # guess, so read_committed concat never sees null-typed columns
        body = (schema.empty_table() if out is None
                else pa.Table.from_pandas(out, schema=schema, preserve_index=False))
        commit_partition(body, self.out_dir, self.commit_seq, ts_col=None,
                         lineage={"input": self.input, **lineage})
        self.commit_seq += 1

    def late_rows(self, results: list) -> int:
        return self.base_late + sum(r[1] for r in results)

    def snapshot(self, results: list, final: bool = False) -> None:
        states = pd.concat(
            ray.get([a.dump_state.remote() for a in self.actors]), ignore_index=True
        )
        state_file = f"state-{self.epoch:08d}.parquet"
        tmp = os.path.join(self.dir, state_file + ".tmp")
        states.to_parquet(tmp)
        os.replace(tmp, os.path.join(self.dir, state_file))
        rec = {
            "epoch": self.epoch, "offsets": [r[3] for r in results],
            "eofs": [r[4] for r in results], "marks": [r[5] for r in results],
            "late_rows": self.late_rows(results), "commit_seq": self.commit_seq,
            "state_file": state_file, "replayers": len(results), "finalized": final,
        }
        tmpj = self.json + ".tmp"
        with open(tmpj, "w") as f:
            json.dump(rec, f)
        os.replace(tmpj, self.json)  # atomic: checkpoint becomes visible
        # only now is the superseded snapshot unreachable: resume reads the
        # state file latest.json names, and a crash before the replace above
        # still finds the previous one
        if self.state_file not in (None, state_file):
            os.remove(os.path.join(self.dir, self.state_file))
        self.state_file = state_file


class _ParallelCheckpointMixin:
    """The checkpointed ``run`` of every mode: the mode's epoch loop with a
    :class:`_Checkpoint` at each barrier. A ``ParallelCheckpointing*Runner``
    is this mixin over its plain runner plus ``_kind``, the lineage kind of
    its committed partitions."""

    _kind: str

    def run(self, parquet_path: str, out_dir: str, micro_batch_rows: int = 65_536,
            checkpoint_every: int = 10, stop_after_epochs: int | None = None):
        """→ {partitions, late_rows, epochs, open_state, replayers}, or None
        after a simulated crash (*stop_after_epochs*, counted in this run)."""
        ck = _Checkpoint(self, parquet_path, out_dir, stop_after_epochs)
        done = self._epochs(parquet_path, micro_batch_rows, checkpoint_every, ck)
        if done is None:
            return None
        (reps, actors), results, _n_files = done
        ck.finish(results)
        open_state = sum(ray.get([a.state_size.remote() for a in actors]))
        _release(*reps, *actors)
        return {
            "partitions": ck.commit_seq,
            "late_rows": ck.late_rows(results),
            "epochs": ck.epoch,
            "open_state": open_state,
            "replayers": len(reps),
        }


class ParallelCheckpointingSessionRunner(_ParallelCheckpointMixin, ParallelStreamingRunner):
    """Streaming sessionization with epoch-aligned checkpoints and
    exactly-once committed output (the ``start_us``/``end_us`` form of the
    session schema); ``max_replayers=1`` replays the log in total order."""

    _kind = "stream-checkpoint"


class ParallelCheckpointingJoinRunner(_ParallelCheckpointMixin, ParallelJoinRunner):
    """Streaming turn-response join with epoch-aligned checkpoints and
    exactly-once committed pair output."""

    _kind = "join-checkpoint"


class _AbsenceState(_EventTimeState):
    """Absence/timeout CEP state for one hash bucket (the streaming form of
    :func:`pipeflow_ray.stages.cep.match_absence` — CEP timers).

    A trigger row's outcome is decidable exactly when its successor row
    (same key, order+1) is SEALED (event time below the barrier watermark):
    any not-yet-arrived on-time row would have ts ≥ watermark, and once
    ``wm > trigger_ts + within`` such a row could not be an in-time
    response anyway — but the REASON (too_late vs no_next) matches the
    batch scan only by waiting for the actual successor, so undecided
    triggers are retained until their successor arrives or the final
    flush declares ``no_next``. Decided triggers leave the state, making
    emission exactly-once by construction."""

    def __init__(self, within_us: int, key: str = "conv_id", order: str = "turn_idx"):
        from pipeflow_ray.stages.cep import empty_absence

        super().__init__(pd.DataFrame(), empty_absence(key))
        self.within_us = within_us
        self.key = key
        self.order = order

    def evict(self, watermark_us: int, final: bool = False) -> None:
        df = self._take_rows()
        if df is None:
            return
        n = len(df)
        conv = pd.factorize(df[self.key], sort=False)[0]
        ti = df[self.order].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        bits = df["__bits"].to_numpy(np.uint32)
        trig = (bits & np.uint32(1)) != 0
        nxt_same = np.zeros(n, dtype=bool)
        resp_type = np.zeros(n, dtype=bool)
        late = np.zeros(n, dtype=bool)
        nxt_sealed = np.zeros(n, dtype=bool)
        if n > 1:
            nxt_same[:-1] = (conv[1:] == conv[:-1]) & (ti[1:] == ti[:-1] + 1)
            resp_type[:-1] = (bits[1:] & np.uint32(2)) != 0
            span = ts[1:] - ts[:-1]
            late[:-1] = ~((span <= self.within_us) & (span >= 0))
            nxt_sealed[:-1] = ts[1:] < watermark_us
        decided = trig & nxt_same & nxt_sealed
        fail = decided & ~(resp_type & ~late)
        idx = np.nonzero(fail)[0]
        if len(idx):
            reason = np.where(~resp_type[idx], "wrong_type", "too_late")
            self.buf.append(pd.DataFrame(
                {self.key: df[self.key].to_numpy()[idx],
                 "start_turn_idx": ti[idx], "ts_us": ts[idx], "reason": reason}))
        if final:
            # end of stream: triggers with no successor at all → no_next
            rem = np.nonzero(trig & ~nxt_same)[0]
            if len(rem):
                self.buf.append(pd.DataFrame(
                    {self.key: df[self.key].to_numpy()[rem],
                     "start_turn_idx": ti[rem], "ts_us": ts[rem],
                     "reason": np.full(len(rem), "no_next", dtype=object)}))
            self.carry = pd.DataFrame()
            return
        # retention: unsealed rows + undecided triggers (a sealed successor
        # of an undecided trigger cannot exist — it would have decided it)
        undecided_trig = trig & ~decided
        keep = (ts >= watermark_us) | undecided_trig
        self.carry = df[keep].reset_index(drop=True)

    # --- checkpoint support (decided triggers leave the state, so resume
    # cannot re-emit; no watermark counter to persist) ---

    def dump_state(self) -> pd.DataFrame:
        return self._tail_rows()

    def load_state(self, df: pd.DataFrame) -> None:
        self.carry = df.reset_index(drop=True)


class ParallelAbsenceRunner(_ParallelReplayBase):
    """Parallel-replay absence/timeout detection. Reuses the ``cep`` replay
    mode (the two predicates travel as bits 0 and 1 of the step mask); the
    bucket actors implement the timer semantics. With lateness ≥ total
    disorder the emissions equal the batch :func:`match_absence` scan
    (tested)."""

    mode = "cep"
    _count = "timeouts"

    def __init__(self, trigger, response, within_us: int,
                 lateness_s: float = 3600.0, num_buckets: int = 8,
                 max_replayers: int = 16, epoch_batches: int = 64,
                 key: str = "conv_id", order: str = "turn_idx",
                 ts_col: str = "ts"):
        from pipeflow_ray.stages.cep import pattern_columns

        super().__init__(lateness_s, num_buckets, max_replayers, epoch_batches)
        self.steps = [trigger, response]
        self.within_us = within_us
        self.key = key
        self.order = order
        self.ts_col = ts_col
        self.columns = pattern_columns(self.steps, (), key, order, ts_col)
        self._schema = _out_schema(key, ("start_turn_idx", "ts_us"), ("reason",))

    def _params(self) -> dict:
        return {"steps": self.steps, "within_us": self.within_us, "emit": (),
                "key": self.key, "order": self.order, "ts_col": self.ts_col,
                "columns": self.columns}

    def _bucket_state(self) -> tuple:
        return _AbsenceState, self.within_us, self.key, self.order


class _KleeneState(_EventTimeState):
    """Streaming Kleene-plus state for one hash bucket (the streaming form
    of :func:`pipeflow_ray.stages.cep.match_kleene`).

    With ≥1 fixed suffix step, a candidate match is decidable exactly when
    its LAST row seals: every boundary row that determines run maximality is
    inside the span, and a sealed missing turn can never arrive on time
    (per-key monotonic event time). Emission: ``prev_wm ≤ end_ts < wm``.

    SUFFIX-FREE patterns (n_post == 0) have no in-span evidence that the
    run ended, so they seal on OBSERVED EVIDENCE by STITCHING (round-4
    VERDICT #8): a run is maximal once its successor turn is either
    observed to be non-B (``turn_idx == end+1`` arrived, immediately
    decisive), or provably absent (a SEALED row at ``turn_idx > end+1``
    exists: per-key event time is monotone in turn order, so once the
    watermark passes that row's ts the missing turn can never arrive on
    time). Undecided open runs are COMPACTED: their sealed rows collapse
    into an O(1) per-key summary ``(pre_valid, start_ti, start_ts, end_ti,
    end_ts, blen)`` — a post-gap extension chains onto ``end_ti + 1`` and
    merges with the summary, so the emitted match equals batch under ANY
    intra-run event-time gap, with bounded state. Emission additionally
    waits for the run's start to seal (``ts[start] < wm``) so prefix-step
    validity is final when judged.

    Prefix steps are optional (n_pre ≥ 0): start maximality only depends on
    rows at event times ≤ the run start, which are sealed-or-late once the
    emission rule fires.

    Retention (fixed suffix): per key, everything after (and n_pre rows up
    to) the last sealed *breaker* row, which no future run can cross: a
    sealed non-B row, or a sealed B row whose chain to its next turn is
    cut. A cut needs the stitching evidence — the key's next row present
    and sealed, so the missing turn can never arrive on time — and a B row
    whose next turn has not arrived keeps its run. A checkpoint resume,
    which resets prev_wm, can never see enough retained context to
    re-emit: the prefix rows of an emitted match are always dropped (its
    first suffix row is a sealed non-B breaker)."""

    def __init__(self, n_pre: int, n_post: int, within_us: int | None,
                 key: str = "conv_id", order: str = "turn_idx", emit=()):
        from pipeflow_ray.stages.cep import check_kleene_emit, empty_kleene

        if n_pre < 0 or n_post < 0:
            raise ValueError("negative step counts")
        self.emit = check_kleene_emit(emit, n_pre, n_post)
        super().__init__(pd.DataFrame(), empty_kleene(key, self.emit))
        self.n_pre = n_pre
        self.n_post = n_post
        self.within_us = within_us
        self.key = key
        self.order = order
        self.prev_wm = _NO_MARK
        # suffix-free: per-key compacted open-run tail summaries
        # key → (pre_valid, start_ti, start_ts, end_ti, end_ts, blen,
        # emit_vals); start is PREFIX-INCLUSIVE (batch emits ti/ts of the
        # first prefix row — see scan_kleene's i0); emit_vals aligns with
        # self.emit (span-start values fixed at compaction, the -1 value
        # tracks the last compacted row)
        self.summaries: dict = {}

    def evict(self, watermark_us: int, final: bool = False) -> None:
        if self.n_post:
            self._evict_suffix(watermark_us)
        else:
            self._evict_stitch(watermark_us, final)
        if final:  # end of stream: every run was decided
            self.carry = pd.DataFrame()
            self.summaries = {}

    def _evict_suffix(self, watermark_us: int) -> None:
        """Fixed-suffix scan: a match is decided when its suffix row seals."""
        from pipeflow_ray.stages.cep import scan_kleene

        df = self._take_rows()
        if df is None:
            self.prev_wm = max(self.prev_wm, watermark_us)
            return
        matches = scan_kleene(df, self.n_pre, self.n_post, self.within_us,
                              key=self.key, order=self.order, assume_sorted=True,
                              emit=self.emit)
        end_ts = matches.end_ts_us.to_numpy()
        # the suffix row IS the end row: its sealing decides the match
        newly = matches[(end_ts < watermark_us) & (end_ts >= self.prev_wm)]
        if len(newly):
            self.buf.append(newly)
        # retention: rows after the last sealed breaker per key (plus n_pre
        # rows of context up to it); unsealed rows always stay
        n = len(df)
        conv = pd.factorize(df[self.key], sort=False)[0]
        ti = df[self.order].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        bits = df["__bits"].to_numpy(np.uint32)
        b = (bits & np.uint32(1 << self.n_pre)) != 0
        sealed = ts < watermark_us
        chained_next = np.zeros(n, dtype=bool)
        next_sealed = np.zeros(n, dtype=bool)  # the key's next row is here, sealed
        if n > 1:
            same = conv[1:] == conv[:-1]
            chained_next[:-1] = same & (ti[1:] == ti[:-1] + 1)
            next_sealed[:-1] = same & sealed[1:]
        # a sealed B row breaks runs once its chain to the next turn is cut.
        # Only a present, sealed next row proves that (the stitching
        # evidence rule): a missing next turn may still arrive on time and
        # extend the run.
        cut = ~chained_next & next_sealed
        breaker = sealed & (~b | cut)
        nk = int(conv.max()) + 1 if n else 0
        z = np.full(nk, -1, dtype=np.int64)
        bidx = np.nonzero(breaker)[0]
        if len(bidx):
            np.maximum.at(z, conv[bidx], bidx)
        keep = (~sealed) | (np.arange(n) > z[conv] - self.n_pre)
        self.carry = df[keep].reset_index(drop=True)
        self.prev_wm = max(self.prev_wm, watermark_us)

    def _evict_stitch(self, watermark_us: int, final: bool) -> None:
        """Evidence-sealed suffix-free scan with O(1)-per-key open-run
        compaction (class docstring, SUFFIX-FREE). Emission is exactly-once
        because a decided run's B rows (and an absorbed summary) leave the
        state in the same evict that emits it — nothing re-derives."""
        npre = self.n_pre
        df = self._take_rows()
        if df is None:
            if final and self.summaries:
                self._emit_summaries(list(self.summaries.items()))
                self.summaries = {}
            return
        n = len(df)
        conv, uniq = pd.factorize(df[self.key], sort=False)
        ti = df[self.order].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        bits = df["__bits"].to_numpy(np.uint32)
        b = (bits & np.uint32(1 << npre)) != 0
        sealed = np.ones(n, dtype=bool) if final else ts < watermark_us
        chained = np.zeros(n, dtype=bool)
        if n > 1:
            chained[:-1] = (conv[1:] == conv[:-1]) & (ti[1:] == ti[:-1] + 1)
        prev_b_chain = np.zeros(n, dtype=bool)
        prev_b_chain[1:] = b[:-1] & chained[:-1]
        next_b_chain = np.zeros(n, dtype=bool)
        next_b_chain[:-1] = b[1:] & chained[:-1]
        rs = np.nonzero(b & ~prev_b_chain)[0]
        re_ = np.nonzero(b & ~next_b_chain)[0]
        nr = len(rs)
        rkey = conv[rs] if nr else np.empty(0, np.int64)
        # prefix validity + the prefix-INCLUSIVE start (batch parity: the
        # emitted start row is i0 = run start − n_pre)
        i0 = rs - npre
        i0c = np.clip(i0, 0, max(n - 1, 0))
        pre_ok = i0 >= 0
        if nr:
            pre_ok &= conv[i0c] == rkey
            pre_ok &= (ti[rs] - ti[i0c]) == (rs - i0c)
            for j in range(npre):
                pre_ok &= (bits[np.clip(i0 + j, 0, n - 1)] & np.uint32(1 << j)) != 0
        eff_sti = ti[i0c].copy()
        eff_sts = ts[i0c].copy()
        eff_blen = (re_ - rs + 1).astype(np.int64)
        merged = np.zeros(nr, dtype=bool)
        merged_S: dict = {}  # run idx → the absorbed summary (for 0-sealed restore)
        # per-run emit values: offsets ≥ 0 are span-start rows (frame or, for
        # merged runs, the stored summary values); -1 is the run's last row
        eff_emit = [
            (df[src].to_numpy(dtype=object)[i0c + off] if off >= 0
             else df[src].to_numpy(dtype=object)[re_])
            for off, src, _n in self.emit
        ] if (nr and self.emit) else [np.empty(0, object) for _ in self.emit]
        # per-key frame row ranges (df is key-grouped after the sort)
        first = np.zeros(len(uniq), np.int64)
        last = np.zeros(len(uniq), np.int64)
        if n:
            bnd = np.nonzero(np.diff(conv))[0]
            starts = np.r_[0, bnd + 1]
            ends = np.r_[bnd, n - 1]
            first[conv[starts]] = starts
            last[conv[ends]] = ends
        code_of = {k: c for c, k in enumerate(uniq)}
        decided_summaries: list = []
        new_summaries: dict = {}
        for k, S in self.summaries.items():
            s_pre, s_sti, s_sts, s_eti, s_ets, s_blen, s_evals = S
            c = code_of.get(k)
            cont = None
            if c is not None:
                lo, hi = int(first[c]), int(last[c])
                pos = lo + int(np.searchsorted(ti[lo:hi + 1], s_eti, side="right"))
                if pos <= hi:
                    cont = pos
            if cont is not None and ti[cont] == s_eti + 1 and b[cont]:
                # extension chains onto the compacted tail: cont is a run
                # start (no frame row can hold ti == s_eti — those rows were
                # compacted and a re-arrival would be late by monotonicity)
                r = int(np.searchsorted(rs, cont))
                eff_sti[r] = s_sti
                eff_sts[r] = s_sts
                eff_blen[r] += s_blen
                pre_ok[r] = s_pre
                merged[r] = True
                merged_S[r] = S
                for i, (off, _src, _n) in enumerate(self.emit):
                    if off >= 0:  # span-start rows live in the summary
                        eff_emit[i][r] = s_evals[i]
                continue
            if final or (cont is not None and (ti[cont] == s_eti + 1 or sealed[cont])):
                # decided maximal: successor turn observed non-B, or a
                # sealed jump row proves it can never arrive on time
                decided_summaries.append((k, S))
                continue
            new_summaries[k] = S
        if decided_summaries:
            self._emit_summaries(decided_summaries)
        mark = np.zeros(n + 1, np.int64)  # +1/−1 range marks → drop mask
        if nr:
            nxt = re_ + 1
            nxtc = np.clip(nxt, 0, n - 1)
            has_next = (nxt < n) & (conv[nxtc] == rkey)
            end_decided = has_next & ((ti[nxtc] == ti[re_] + 1) | sealed[nxtc])
            if final:
                end_decided = np.ones(nr, dtype=bool)
            startok = sealed[rs] | merged
            decided = end_decided & startok
            valid = pre_ok.copy()
            if self.within_us is not None:
                span = ts[re_] - eff_sts
                valid &= (span <= self.within_us) & (span >= 0)
            emit_r = decided & valid
            if emit_r.any():
                sel = np.nonzero(emit_r)[0]
                frame = pd.DataFrame({
                    self.key: df[self.key].to_numpy()[rs[sel]],
                    "start_turn_idx": eff_sti[sel],
                    "end_turn_idx": ti[re_[sel]],
                    "start_ts_us": eff_sts[sel],
                    "end_ts_us": ts[re_[sel]],
                    "run_len": eff_blen[sel],
                })
                for i, (_off, _src, name) in enumerate(self.emit):
                    frame[name] = eff_emit[i][sel]
                self.buf.append(frame)
            dsel = np.nonzero(decided)[0]
            np.add.at(mark, rs[dsel], 1)
            np.add.at(mark, re_[dsel] + 1, -1)
            # compact open runs with a sealed start: sealed rows are a
            # prefix of the run (per-key ts monotone in turn order); at most
            # one such run per key (everything after an unsealed row is
            # unsealed), so the dict write never collides
            cs = np.cumsum(sealed.astype(np.int64))
            run_sealed = cs[re_] - np.where(rs > 0, cs[np.maximum(rs - 1, 0)], 0)
            for r in np.nonzero(~decided & startok)[0]:
                k = uniq[rkey[r]]
                ns = int(run_sealed[r])
                if ns == 0:
                    if merged[r]:
                        new_summaries[k] = merged_S[r]  # unchanged tail
                    continue
                e_s = rs[r] + ns - 1
                evals = tuple(
                    (eff_emit[i][r] if off >= 0 else df[src].to_numpy()[e_s])
                    for i, (off, src, _n) in enumerate(self.emit)
                )
                new_summaries[k] = (
                    bool(pre_ok[r]), int(eff_sti[r]), int(eff_sts[r]),
                    int(ti[e_s]), int(ts[e_s]),
                    int(eff_blen[r] - (re_[r] - e_s)),
                    evals,
                )
                np.add.at(mark, rs[r], 1)
                np.add.at(mark, e_s + 1, -1)
        dropped = np.cumsum(mark[:n]) > 0
        # non-run retention: sealed non-B rows are final boundaries; keep
        # n_pre context rows up to the last one per key for future prefixes
        z = np.full(len(uniq), -1, dtype=np.int64)
        bidx = np.nonzero(sealed & ~b)[0]
        if len(bidx):
            np.maximum.at(z, conv[bidx], bidx)
        keep = ((~sealed) | (np.arange(n) > z[conv] - npre)) & ~dropped
        self.carry = df[keep].reset_index(drop=True)
        self.summaries = new_summaries

    def _emit_summaries(self, items: list) -> None:
        rows = [
            (k, s_sti, s_eti, s_sts, s_ets, s_blen, s_evals)
            for k, (s_pre, s_sti, s_sts, s_eti, s_ets, s_blen, s_evals) in items
            if s_pre and (self.within_us is None
                          or 0 <= s_ets - s_sts <= self.within_us)
        ]
        if rows:
            frame = pd.DataFrame({
                self.key: [r[0] for r in rows],
                "start_turn_idx": np.array([r[1] for r in rows], np.int64),
                "end_turn_idx": np.array([r[2] for r in rows], np.int64),
                "start_ts_us": np.array([r[3] for r in rows], np.int64),
                "end_ts_us": np.array([r[4] for r in rows], np.int64),
                "run_len": np.array([r[5] for r in rows], np.int64),
            })
            for i, (_off, _src, name) in enumerate(self.emit):
                frame[name] = np.array([r[6][i] for r in rows], dtype=object)
            self.buf.append(frame)

    def state_size(self) -> int:
        return super().state_size() + len(self.summaries)

    # --- checkpoint support. prev_wm needs no persistence: no complete
    # match can exist entirely inside the retained sealed context (a sealed
    # non-B post row after a retained run would itself be a breaker,
    # contradicting the breaker retention rule), so resume with −inf cannot
    # re-emit. Suffix-free, the same holds by construction: emission and
    # state removal are atomic within one evict, and summaries persist in
    # the snapshot. ---

    _SUMMARY_COLS = ("__s_pre", "__s_sti", "__s_sts", "__s_eti", "__s_ets", "__s_blen")

    def dump_state(self) -> pd.DataFrame:
        base = self._tail_rows()
        if self.n_post:
            return base
        # suffix-free: summaries ride in the same frame as marker rows so
        # the checkpoint mixin's key-hash re-routing lands them on the right
        # bucket; all payload columns are int64 (parquet-roundtrip stable)
        base = base.assign(__summary=np.int64(0),
                           **{c: np.int64(0) for c in self._SUMMARY_COLS})
        if not self.summaries:
            return base
        srows = pd.DataFrame({
            self.key: list(self.summaries.keys()),
            self.order: np.int64(0), "ts_us": np.int64(0),
            "__bits": np.uint32(0), "__summary": np.int64(1),
        })
        vals = np.array(
            [(int(s[0]), s[1], s[2], s[3], s[4], s[5])
             for s in self.summaries.values()],
            dtype=np.int64,
        ).reshape(len(self.summaries), 6)
        for i, c in enumerate(self._SUMMARY_COLS):
            srows[c] = vals[:, i]
        for i in range(len(self.emit)):
            srows[f"__s_e{i}"] = pd.Series(
                [s[6][i] for s in self.summaries.values()], dtype=object)
        return pd.concat([base, srows], ignore_index=True)

    def load_state(self, df: pd.DataFrame) -> None:
        if not self.n_post and "__summary" in df.columns:
            sm = df["__summary"].to_numpy(np.int64) == 1
            srows = df[sm]
            ecols = [f"__s_e{i}" for i in range(len(self.emit))]
            evs = [
                (srows[c].to_numpy(dtype=object) if c in srows.columns
                 else np.full(len(srows), None, dtype=object))
                for c in ecols
            ]
            self.summaries = {
                k: (bool(p), int(a), int(b_), int(c), int(d), int(e),
                    tuple(ev[j] for ev in evs))
                for j, (k, p, a, b_, c, d, e) in enumerate(zip(
                    srows[self.key],
                    *(srows[c].to_numpy(np.int64) for c in self._SUMMARY_COLS),
                ))
            }
            df = df[~sm].drop(
                columns=[c for c in ("__summary", *self._SUMMARY_COLS, *ecols)
                         if c in df.columns])
            df = df.astype({"__bits": np.uint32})
        self.carry = df.reset_index(drop=True)


class ParallelKleeneRunner(_ParallelReplayBase):
    """Parallel-replay Kleene-plus CEP (reuses the ``cep`` replay mode; the
    flattened steps travel as the bitmask). Equals the batch
    :func:`match_kleene` scan under covered disorder (tested). Patterns may
    be prefix-free and/or suffix-free; a fixed suffix seals a match by its
    suffix row, and a suffix-free pattern seals maximal runs by observed
    evidence with bounded run-summary stitching (exact batch parity under
    ANY intra-run gap). See :class:`_KleeneState`."""

    mode = "cep"
    _count = "matches"

    def __init__(self, steps, within_us: int | None = None,
                 lateness_s: float = 3600.0, num_buckets: int = 8,
                 max_replayers: int = 16, epoch_batches: int = 64,
                 key: str = "conv_id", order: str = "turn_idx",
                 ts_col: str = "ts", derive=None,
                 read_columns: "list[str] | None" = None, emit=()):
        from pipeflow_ray.stages.cep import (
            KLEENE_COLS,
            MAX_STEPS,
            check_kleene_emit,
            pattern_columns,
        )

        super().__init__(lateness_s, num_buckets, max_replayers, epoch_batches)
        plus_idx = [i for i, s in enumerate(steps)
                    if isinstance(s, tuple) and len(s) == 2 and s[0] == "+"]
        if len(plus_idx) != 1:
            raise ValueError("ParallelKleeneRunner needs exactly one ('+', step)")
        if len(steps) > MAX_STEPS:  # the replayers' bitmask is one uint32 word
            raise ValueError(
                f"Kleene patterns are single-word: at most {MAX_STEPS} steps "
                f"(got {len(steps)})")
        self.n_pre = plus_idx[0]
        self.n_post = len(steps) - self.n_pre - 1
        self.steps = [s[1] if i == self.n_pre else s for i, s in enumerate(steps)]
        self.within_us = within_us
        self.emit = check_kleene_emit(emit, self.n_pre, self.n_post)
        self.key = key
        self.order = order
        self.ts_col = ts_col
        # derive: table→table hook run in the replayers BEFORE the step
        # bitmask, for steps over derived columns (e.g. n_chars); pair it
        # with read_columns naming the raw columns the derivation needs
        self.derive = derive
        self.columns = read_columns or pattern_columns(self.steps, self.emit,
                                                       key, order, ts_col)
        self._schema = _out_schema(key, KLEENE_COLS, [name for _o, _s, name in self.emit])

    def _params(self) -> dict:
        return {"steps": self.steps, "within_us": self.within_us,
                "emit": self.emit,
                "key": self.key, "order": self.order, "ts_col": self.ts_col,
                "columns": self.columns, "derive": self.derive}

    def _bucket_state(self) -> tuple:
        return (_KleeneState, self.n_pre, self.n_post, self.within_us, self.key,
                self.order, self.emit)


class ParallelCheckpointingCepRunner(_ParallelCheckpointMixin, ParallelCepRunner):
    """Streaming CEP with epoch-aligned checkpoints and exactly-once
    committed match output. State snapshot = the partial-match row tails (at
    most k−1 sealed rows + unsealed rows per key), re-routed to bucket
    actors on resume by the same key hash. Emit columns are ``pa.string()``
    in the committed schema."""

    _kind = "cep-checkpoint"


class ParallelCheckpointingAbsenceRunner(_ParallelCheckpointMixin, ParallelAbsenceRunner):
    """Checkpointed streaming timeout detection: the epoch recipe over the
    absence state's trigger state (decided triggers leave the state, so
    resume cannot re-emit; the snapshot is just the undecided tail)."""

    _kind = "absence-checkpoint"


class ParallelCheckpointingKleeneRunner(_ParallelCheckpointMixin, ParallelKleeneRunner):
    """Checkpointed streaming Kleene-plus: epoch recipe over the breaker-
    retained run state (see _KleeneState's prev_wm-free resume note)."""

    _kind = "kleene-checkpoint"


# ---------------------------------------------------------------------------
# Aggregate-on-ingest: seven runner families (exact and KLL quantiles,
# vocabulary, exact dedup, HLL, top-k, conversation dedup) on the one replay
# path, in the ``ingest`` mode of :class:`ShardReplayer`. A family is a
# per-batch partial — a module-level function the replayers apply to each
# micro-batch, returning ``(keys, *payload arrays)`` — and a plain state
# class (``process``, ``flush``, optionally ``state_size``; base
# :class:`_IngestState`) that :class:`StateBucketActor` holds for one hash
# bucket of keys. Every state
# tolerates any shard interleaving: the exact states flush the same result,
# the sketches keep their bounds.
# ---------------------------------------------------------------------------


class _IngestState:
    """Base of the seven aggregate-on-ingest states: they merge
    commutatively, so a barrier finalizes nothing."""

    def evict(self, watermark_us: int) -> None:
        """A commutative state has nothing to finalize at a barrier."""


class _IngestReplay(_ParallelReplayBase):
    """The ``ingest`` mode on the one epoch loop: *params* name the read
    ``columns``, the ``key_col`` whose null rows are dropped (None: none)
    and the family's ``partial`` with its ``partial_args``; each bucket
    actor holds ``state[0](*state[1:])``. No row is ever late."""

    mode = "ingest"

    def __init__(self, num_buckets: int, max_replayers: int, state: tuple, params: dict):
        super().__init__(0.0, num_buckets, max_replayers)
        self.state = state
        self.params = params

    def _params(self) -> dict:
        return self.params

    def _bucket_state(self) -> tuple:
        return self.state


def _run_on_ingest(parquet_path: str, micro_batch_rows: int, *, num_buckets: int,
                   max_replayers: int, state: tuple, columns: list,
                   key_col: "str | None", partial, partial_args: tuple,
                   state_metric: "str | None" = None, fetch: bool = True):
    """The run every aggregate-on-ingest runner shares: the epoch loop of
    :class:`_IngestReplay`, flush, release. Returns (flushed, metrics):
    the bucket flushes concatenated in bucket order (a typed empty frame on
    empty input) — or, with ``fetch=False``, the computed per-bucket flush
    refs — and the metrics every runner reports, plus the summed
    ``state_size`` under *state_metric* when given."""
    run = _IngestReplay(num_buckets, max_replayers, state,
                        {"columns": columns, "key_col": key_col, "partial": partial,
                         "partial_args": partial_args})
    (reps, actors), results, n_files = run._epochs(parquet_path, micro_batch_rows,
                                                   run.epoch_batches)
    refs = [a.flush.remote() for a in actors]
    metrics = {"rows": sum(r[0] for r in results),
               "null_key_rows": sum(r[2] for r in results),
               "shards": n_files, "replayers": len(results),
               "replayer_rows": [r[0] for r in results]}
    if state_metric is not None:
        metrics[state_metric] = sum(ray.get([a.state_size.remote() for a in actors]))
    if fetch:
        frames = ray.get(refs)
        flushed = pd.concat([f for f in frames if len(f)] or frames[:1],
                            ignore_index=True)
    else:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        flushed = refs
    _release(*reps, *actors)
    return flushed, metrics


def _quantile_names(qs: tuple) -> list:
    return [f"p{int(round(q * 100)):02d}" for q in qs]


def _histogram_partial(t: pa.Table, key_col: str, value_fn):
    """Per-batch (key, int value) → count: the combiner of the exact
    quantile runner."""
    if value_fn is not None:
        t = value_fn(t)
    p = (pd.DataFrame({"key": t[key_col].to_pandas(),
                       "value": t["value"].to_pandas().astype(np.int64)})
         .groupby(["key", "value"], sort=False).size().reset_index(name="c"))
    return p.key.to_numpy(dtype=object), p.value.to_numpy(), p.c.to_numpy()


class _HistogramState(_IngestState):
    """Value-histogram state for one hash bucket of keys: ``(key, value) →
    count``. State is O(keys × distinct values) ints — EXACT quantiles at
    any flush for bounded-cardinality value domains, in one pass. The flush
    reads the quantiles in the bucket: keys are hash-partitioned, so each
    bucket's histogram is complete for its keys and the driver receives
    O(keys) final rows, never the histograms."""

    def __init__(self, qs: tuple):
        self.qs = qs
        self.counts: dict[tuple, int] = {}

    def process(self, keys: np.ndarray, values: np.ndarray, counts: np.ndarray) -> None:
        hist = self.counts
        for key, value, c in zip(keys.tolist(), values.tolist(), counts.tolist()):
            hist[key, value] = hist.get((key, value), 0) + c

    def flush(self) -> pd.DataFrame:
        from pipeflow_ray.stages.window import _quantile_reduce

        names = _quantile_names(self.qs)
        if not self.counts:
            return pd.DataFrame({"key": pd.Series(dtype=object),
                                 **{c: pd.Series(dtype=np.int64) for c in ["n", *names]}})
        n = len(self.counts)
        hist = pd.DataFrame({
            "key": [k for k, _ in self.counts],
            "value": np.fromiter((v for _, v in self.counts), np.int64, n),
            "__cnt": np.fromiter(self.counts.values(), np.int64, n),
        })
        return _quantile_reduce(hist, ["key"], "value", self.qs, names, "n")


class StreamingQuantileRunner:
    """Single-pass streaming EXACT grouped quantiles: shard replayers reduce
    each micro-batch to (key, value)→count partials, bucketed histogram
    states merge them commutatively (shard interleaving cannot change a
    histogram), and the flush reads quantiles off cumulative counts with
    the same percentile_disc rule as the batch
    :func:`~pipeflow_ray.stages.window.grouped_quantiles` — equal results
    in one pass with histogram-only state, available mid-stream at any
    barrier."""

    def __init__(self, key_col: str, qs=(0.25, 0.5, 0.75), value_fn=None,
                 columns: "list[str] | None" = None,
                 num_buckets: int = 8, max_replayers: int = 16):
        self.key_col = key_col
        self.qs = tuple(qs)
        # value_fn: table→table adding an int64 ``value`` column (derived
        # inside the replayers); columns: raw columns read, the key column
        # (whose null rows are dropped before value_fn) and what the
        # derivation needs
        self.value_fn = value_fn
        self.columns = columns or [key_col, "value"]
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers

    def run(self, parquet_path: str, micro_batch_rows: int = 65_536):
        result, metrics = _run_on_ingest(
            parquet_path, micro_batch_rows, num_buckets=self.num_buckets,
            max_replayers=self.max_replayers, state=(_HistogramState, self.qs),
            columns=self.columns, key_col=self.key_col,
            partial=_histogram_partial, partial_args=(self.key_col, self.value_fn))
        result = result.rename(columns={"key": self.key_col})
        metrics["keys"] = len(result)
        return result, metrics


def _kll_partial(t: pa.Table, key_col: str, value_fn, k: int):
    """One KLL sketch per (batch, key) of float values (the combiner: rows
    never leave the replayer), as serialized blobs."""
    from pipeflow_ray.functions.sketches import KLLSketch

    if value_fn is not None:
        t = value_fn(t)
    df = pd.DataFrame({"key": t[key_col].to_pandas(),
                       "value": t["value"].to_pandas().astype(np.float64)})
    vals = df["value"].to_numpy()
    key_rows, blobs = [], []
    for kv, idx in df.groupby("key", sort=False).indices.items():
        sk = KLLSketch(k)
        sk.update_many(vals[idx])
        key_rows.append(kv)
        blobs.append(sk.dumps())
    return pd.Series(key_rows).to_numpy(dtype=object), np.array(blobs, dtype=object)


class _KLLState(_IngestState):
    """KLL-sketch state for one hash bucket of keys: ``key → KLLSketch``.
    Commutative merge (any shard interleaving), state O(keys · k · log(n/k))
    floats REGARDLESS of the value domain — the unbounded-continuous-domain
    sibling of :class:`_HistogramState`'s exact histograms. The flush reads
    the quantiles in the bucket."""

    def __init__(self, qs: tuple):
        self.qs = qs
        self.sketches: dict = {}

    def process(self, keys: np.ndarray, blobs: np.ndarray) -> None:
        from pipeflow_ray.functions.sketches import KLLSketch

        sketches = self.sketches
        for key, blob in zip(keys.tolist(), blobs.tolist()):
            sk = sketches.get(key)
            incoming = KLLSketch.loads(blob)
            if sk is None:
                sketches[key] = incoming
            else:
                sk.merge(incoming)

    def state_size(self) -> int:
        return int(sum(sk.size() for sk in self.sketches.values()))

    def flush(self) -> pd.DataFrame:
        sks = list(self.sketches.values())
        q = np.array([sk.quantiles(self.qs) for sk in sks], np.float64)
        q = q.reshape(len(sks), len(self.qs))
        return pd.DataFrame({
            "key": pd.Series(list(self.sketches)),
            "n": np.fromiter((sk.n for sk in sks), np.int64, len(sks)),
            **{name: q[:, j] for j, name in enumerate(_quantile_names(self.qs))},
        })


class StreamingSketchQuantileRunner:
    """Single-pass streaming APPROXIMATE grouped quantiles over unbounded
    continuous value domains: replayers shrink each micro-batch to per-key
    KLL sketches, bucket states merge them commutatively (shard interleaving
    changes nothing beyond the sketch's own error bound), and the flush reads
    quantiles off the merged sketches — state is O(keys · k · log(n/k))
    floats where :class:`StreamingQuantileRunner`'s exact histograms would
    hold one entry per distinct value. Rank error ≈ 2.3/k whp; ``n`` exact."""

    def __init__(self, key_col: str, qs=(0.25, 0.5, 0.75), value_fn=None,
                 columns: "list[str] | None" = None, k: int = 400,
                 num_buckets: int = 8, max_replayers: int = 16):
        self.key_col = key_col
        self.qs = tuple(qs)
        self.value_fn = value_fn  # table→table adding a float64 ``value`` column
        self.columns = columns or [key_col, "value"]
        self.k = k
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers

    def run(self, parquet_path: str, micro_batch_rows: int = 65_536):
        result, metrics = _run_on_ingest(
            parquet_path, micro_batch_rows, num_buckets=self.num_buckets,
            max_replayers=self.max_replayers, state=(_KLLState, self.qs),
            columns=self.columns, key_col=self.key_col, partial=_kll_partial,
            partial_args=(self.key_col, self.value_fn, self.k),
            state_metric="retained_items")
        result = result.rename(columns={"key": self.key_col})
        metrics["keys"] = len(result)
        return result, metrics


def _vocab_partial(t: pa.Table, text_col: str, id_col: str):
    """Per-batch (doc, token, tf) via the exact explode kernel (each doc is
    one row, so tf is complete per doc), reduced to per-token (df, tf)."""
    from pipeflow_ray.functions.text import _doc_token_tf

    p = (_doc_token_tf(t, text_col, id_col).groupby("token", sort=False)
         .agg(df_c=(id_col, "size"), tf_c=("tf", "sum")).reset_index())
    return p.token.to_numpy(dtype=object), p.df_c.to_numpy(), p.tf_c.to_numpy()


class _VocabState(_IngestState):
    """Vocabulary state for one hash bucket of tokens: per-token document
    frequency and total term frequency. Commutative merge; state is
    O(vocabulary) — the vocabulary-build sibling of dedup-on-ingest.

    Fully vectorized: incoming partials buffer as frames and compact into
    one via ``pd.concat + groupby.sum`` every *compact_every* batches — no
    per-token Python loop; between compactions the extra state is bounded
    by ``compact_every`` per-batch partials."""

    def __init__(self, compact_every: int = 32):
        self.frames: list[pd.DataFrame] = []
        self.pending = 0
        self.compact_every = max(1, compact_every)

    def _compact(self) -> None:
        if len(self.frames) > 1:
            df = pd.concat(self.frames, ignore_index=True)
            self.frames = [df.groupby("token", sort=False, as_index=False)
                             [["df_c", "tf_c"]].sum()]
        self.pending = 0

    def process(self, tokens: np.ndarray, df_c: np.ndarray, tf_c: np.ndarray) -> None:
        self.frames.append(pd.DataFrame({"token": tokens, "df_c": df_c, "tf_c": tf_c}))
        self.pending += 1
        if self.pending >= self.compact_every:
            self._compact()

    def flush(self) -> pd.DataFrame:
        self._compact()
        out = (self.frames[0] if self.frames
               else pd.DataFrame({"token": [], "df_c": [], "tf_c": []}, dtype=object))
        return pd.DataFrame({"token": out["token"],
                             "df": out["df_c"].astype(np.int64),
                             "tf_total": out["tf_c"].astype(np.int64)})


class StreamingVocabRunner:
    """Single-pass streaming vocabulary build: exact per-token document
    frequency and total term frequency over a sharded corpus log, with
    O(vocabulary) actor state — the batch :func:`~pipeflow_ray.functions.
    text.tfidf_terms` df-side, available mid-stream at any flush."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 num_buckets: int = 8, max_replayers: int = 16):
        self.text_col = text_col
        self.id_col = id_col
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers

    def run(self, parquet_path: str, micro_batch_rows: int = 65_536):
        vocab, metrics = _run_on_ingest(
            parquet_path, micro_batch_rows, num_buckets=self.num_buckets,
            max_replayers=self.max_replayers, state=(_VocabState,),
            columns=[self.id_col, self.text_col], key_col=None,
            partial=_vocab_partial, partial_args=(self.text_col, self.id_col))
        metrics["vocab"] = len(vocab)
        return vocab, metrics


# ---------------------------------------------------------------------------
# Streaming exact dedup: single-pass dedup-on-ingest with bounded state
# ---------------------------------------------------------------------------


def _fingerprint_partial(t: pa.Table, text_col: str, id_col: str):
    """Normalize → 64-bit fingerprint (the SAME kernel as batch
    ``exact_dedup``, so the two paths group identically) → (fingerprint, id)
    ints; the content never leaves the replayer."""
    from pipeflow_ray.functions.text import fingerprint

    t = fingerprint(text_col)(t)
    return (t["fingerprint"].to_numpy(zero_copy_only=False),
            t[id_col].to_numpy(zero_copy_only=False).astype(np.int64))


class _FingerprintState(_IngestState):
    """Seen-fingerprint state for one hash bucket: fingerprint → min doc id.
    State is O(distinct fingerprints in the bucket) int64 pairs — the content
    itself is never held, which is what makes dedup-on-ingest feasible at
    corpus scale (a 10^9-doc bucket shard is ~16 GB of ints across ALL
    buckets, spread over the pool)."""

    def __init__(self):
        self.best: dict[int, int] = {}

    def process(self, fps: np.ndarray, ids: np.ndarray) -> None:
        # vectorized pre-reduce to batch-distinct fingerprints (sort + min per
        # segment); the dict update loop then touches each DISTINCT value once
        order = np.lexsort((ids, fps))
        f_s, i_s = fps[order], ids[order]
        first = np.ones(len(f_s), dtype=bool)
        first[1:] = f_s[1:] != f_s[:-1]
        best = self.best
        for f, i in zip(f_s[first].tolist(), i_s[first].tolist()):
            prev = best.get(f)
            if prev is None or i < prev:
                best[f] = i

    def flush(self) -> pd.DataFrame:
        return pd.DataFrame(
            {"fingerprint": np.fromiter(self.best.keys(), np.int64, len(self.best)),
             "doc_id": np.fromiter(self.best.values(), np.int64, len(self.best))}
        )


class StreamingDedupRunner:
    """Single-pass streaming exact dedup over a sharded corpus log: parallel
    shard replayers compute normalized-content fingerprints and
    route ONLY (fingerprint, id) int pairs to bucketed states; the
    end-of-stream flush yields the min doc id per fingerprint — exactly the
    batch ``exact_dedup`` result (min-id is commutative, so shard interleaving
    cannot change it), reached in one pass with fingerprint-only state.

    This is the dedup-at-ingest shape for an unbounded corpus: state grows
    with DISTINCT content, not stream length, and a mid-stream ``flush`` at
    any barrier gives the dedup of everything ingested so far."""

    def __init__(self, num_buckets: int = 8, max_replayers: int = 16):
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers

    def run(self, parquet_path: str, text_col: str = "text",
            id_col: str = "doc_id", micro_batch_rows: int = 65_536):
        kept, metrics = _run_on_ingest(
            parquet_path, micro_batch_rows, num_buckets=self.num_buckets,
            max_replayers=self.max_replayers, state=(_FingerprintState,),
            columns=[id_col, text_col], key_col=None,
            partial=_fingerprint_partial, partial_args=(text_col, id_col))
        metrics["kept"] = len(kept)
        return kept, metrics


# ---------------------------------------------------------------------------
# Streaming approximate distinct (HLL-on-ingest): per-key cardinality with
# CONSTANT state per key
# ---------------------------------------------------------------------------


def _hll_partial(t: pa.Table, key_col: str, value_col: str, p: int):
    """Hash the value column once per micro-batch (pd.util.hash_array — the
    same deterministic 64-bit hash on every worker) and fold each key
    group's hashes into a fresh register array: (key, rowcount, registers).
    Raw values never leave the replayer."""
    from pipeflow_ray.functions.sketches import HyperLogLog

    df = t.to_pandas()
    hashes = pd.util.hash_array(df[value_col].to_numpy())
    keys, ns, regs = [], [], []
    for kv, idx in df.groupby(key_col, sort=False).indices.items():
        h = HyperLogLog(p)
        h.add_hashes(hashes[idx])
        keys.append(kv)
        ns.append(len(idx))
        regs.append(h.registers.tobytes())
    return (pd.Series(keys).to_numpy(dtype=object), np.array(ns, np.int64),
            np.array(regs, dtype=object))


class _HLLState(_IngestState):
    """Per-key HyperLogLog register state for one hash bucket of keys.
    Merge is element-wise max — associative/commutative, so shard
    interleaving yields BIT-IDENTICAL registers to a single sequential pass
    (unlike the sketch-quantile runner there is no error-bound caveat on
    ordering). State is exactly ``2^p`` bytes per key plus an int64 row
    count, independent of stream length or value cardinality."""

    def __init__(self, p: int):
        self.p = p
        self.regs: dict = {}
        self.counts: dict = {}

    def process(self, keys: np.ndarray, counts: np.ndarray, regs: np.ndarray) -> None:
        for k, c, raw in zip(keys.tolist(), counts.tolist(), regs.tolist()):
            arr = np.frombuffer(raw, np.uint8)
            cur = self.regs.get(k)
            if cur is None:
                self.regs[k] = arr.copy()
                self.counts[k] = c
            else:
                np.maximum(cur, arr, out=cur)
                self.counts[k] += c

    def flush(self) -> pd.DataFrame:
        from pipeflow_ray.functions.sketches import HyperLogLog

        keys, ns, ests = [], [], []
        for k, regs in self.regs.items():
            h = HyperLogLog(self.p)
            h.registers = regs
            keys.append(k)
            ns.append(self.counts[k])
            ests.append(h.estimate())
        return pd.DataFrame({"key": pd.Series(keys),
                             "n": np.array(ns, np.int64),
                             "approx_distinct": np.array(ests, np.float64)})

    def state_size(self) -> int:
        return int(sum(r.nbytes for r in self.regs.values()))


class StreamingHLLRunner:
    """Single-pass streaming per-key approximate-distinct on ingest: the
    aggregate-on-ingest sibling of :class:`StreamingVocabRunner` /
    :class:`StreamingDedupRunner` for cardinality telemetry (distinct users
    per tenant, distinct prompts per role, ...). Replayers shrink each
    micro-batch to one ``2^p``-byte register array per key; bucket states
    merge by element-wise max — state is O(keys · 2^p) bytes regardless of
    stream length, where exact distinct (``StreamingDedupRunner``) holds
    O(distinct) ints. Standard error ≈ 1.04/√(2^p) (p=12 → ~1.6%); the row
    count ``n`` is exact. Registers after any shard interleaving are
    bit-identical to a sequential pass, so a mid-stream flush is as
    deterministic as an end-of-stream one."""

    def __init__(self, key_col: str, value_col: str, p: int = 12,
                 num_buckets: int = 4, max_replayers: int = 16):
        self.key_col = key_col
        self.value_col = value_col
        self.p = p
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers

    def run(self, parquet_path: str, micro_batch_rows: int = 65_536):
        result, metrics = _run_on_ingest(
            parquet_path, micro_batch_rows, num_buckets=self.num_buckets,
            max_replayers=self.max_replayers, state=(_HLLState, self.p),
            columns=[self.key_col, self.value_col], key_col=self.key_col,
            partial=_hll_partial, partial_args=(self.key_col, self.value_col, self.p),
            state_metric="state_bytes")
        result = result.rename(columns={"key": self.key_col})
        metrics["keys"] = len(result)
        return result, metrics


# ---------------------------------------------------------------------------
# Streaming top-k (heavy hitters on ingest): mergeable space-saving summaries
# with bounded per-bucket state
# ---------------------------------------------------------------------------


def _key_count_partial(t: pa.Table, key_col: str):
    """Per micro-batch exact key counts (the combiner — the state sees one
    partial per key per batch)."""
    vc = t[key_col].to_pandas().value_counts()
    return vc.index.to_numpy(dtype=object), vc.to_numpy()


class _SpaceSavingState(_IngestState):
    """Space-saving summary (Metwally et al., mergeable batched variant) for
    one hash bucket of keys. Holds at most *m* (key → [count_upper, err])
    entries; a batch partial (key, cnt) either adds to an existing entry,
    fills a free slot with (cnt, 0), or evicts the current minimum —
    inheriting its upper bound as error: new = (min + cnt, min). Invariants
    (per bucket, n_b = rows routed here): count_upper − err ≤ true ≤
    count_upper, and every key with true count > n_b / m is retained.
    Each key lives in exactly ONE bucket (hash routing), so per-bucket
    guarantees compose by union — no cross-bucket merge is needed."""

    def __init__(self, m: int):
        self.m = m
        self.state: dict = {}  # key -> [count_upper, err]
        self.rows = 0
        # lazy min-heap of (count_upper, insertion seq, key), one entry per
        # retained key. Counts only grow, so an entry's count is a lower
        # bound; a stale top entry is pushed back with the current count
        # before the minimum is trusted. The seq tie-break evicts the first
        # minimal key in dict insertion order, exactly the key
        # ``min(state, key=count_upper)`` picks.
        self.heap: list = []
        self.seq = 0

    def process(self, keys: np.ndarray, counts: np.ndarray) -> None:
        state, m, heap, seq = self.state, self.m, self.heap, self.seq
        self.rows += int(counts.sum())
        for k, c in zip(keys.tolist(), counts.tolist()):
            cur = state.get(k)
            if cur is not None:
                cur[0] += c
            elif len(state) < m:
                state[k] = [c, 0]
                heapq.heappush(heap, (c, seq, k))
                seq += 1
            else:
                mn, mn_seq, mn_k = heap[0]
                while state[mn_k][0] != mn:
                    heapq.heapreplace(heap, (state[mn_k][0], mn_seq, mn_k))
                    mn, mn_seq, mn_k = heap[0]
                del state[mn_k]
                state[k] = [mn + c, mn]
                heapq.heapreplace(heap, (mn + c, seq, k))
                seq += 1
        self.seq = seq

    def flush(self) -> pd.DataFrame:
        ks = list(self.state.keys())
        arr = np.array(list(self.state.values()), np.int64).reshape(-1, 2)
        return pd.DataFrame({"key": pd.Series(ks), "est": arr[:, 0], "err": arr[:, 1],
                             "bucket_rows": np.full(len(ks), self.rows, np.int64)})


class StreamingTopKRunner:
    """Single-pass streaming heavy hitters: bounded-state top-k candidates
    over an UNBOUNDED key column — the on-ingest counterpart of the batch
    :func:`~pipeflow_ray.functions.sketches.detect_hot_keys`. State is at
    most ``num_buckets × m`` (key, int, int) entries no matter how many
    distinct keys stream past; every key whose true count exceeds its
    bucket's rows / m is guaranteed retained, with per-key bounds
    ``est − err ≤ true ≤ est``. The returned frame carries est/err/
    bucket_rows so callers can select PROVEN heavy keys (est − err above
    the competition's est) or feed the candidates to a tiny exact recount
    (the pattern streaming_topk_convs gates)."""

    def __init__(self, key_col: str, m: int = 256, num_buckets: int = 4,
                 max_replayers: int = 16):
        self.key_col = key_col
        self.m = m
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers

    def run(self, parquet_path: str, micro_batch_rows: int = 65_536):
        result, metrics = _run_on_ingest(
            parquet_path, micro_batch_rows, num_buckets=self.num_buckets,
            max_replayers=self.max_replayers, state=(_SpaceSavingState, self.m),
            columns=[self.key_col], key_col=self.key_col,
            partial=_key_count_partial, partial_args=(self.key_col,))
        result = (result.rename(columns={"key": self.key_col})
                  .sort_values("est", ascending=False, ignore_index=True))
        metrics["retained"] = len(result)
        metrics["state_cap"] = self.num_buckets * self.m
        return result, metrics


# ---------------------------------------------------------------------------
# Streaming conversation template dedup (dedup-on-ingest for transcript
# streams): the batch `functions/dedup.conv_template_dedup` semantics in one
# pass. Because a conversation's signature is a WRAPPING SUM of
# position-mixed row hashes (functions/dedup.conv_row_mix — the same kernel
# as batch), the combine is associative/commutative: turns of one
# conversation may arrive split across shards, replayers and micro-batches
# in ANY interleaving and the end-of-stream signature is bit-identical to
# the sequential pass. State is one (uint64, int64) pair per conversation —
# O(conversations), never turns or text.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _conv_sig_partial(t: pa.Table, key_col: str, order_col: str, sig_cols: list):
    """Mix row hashes (the shared batch kernel) and pre-reduce to one
    (conv, partial_sig, n) row per conversation: only conv-sized int rows
    leave the replayer."""
    from pipeflow_ray.functions.dedup import conv_row_mix

    df = t.to_pandas()
    mixed = conv_row_mix(df, order_col, sig_cols)
    keys = df[key_col].to_numpy()
    order = np.argsort(keys, kind="stable")
    ks, ms = keys[order], mixed[order]
    brk = np.empty(len(ks), dtype=bool)
    brk[0] = True
    brk[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(brk)
    return (ks[starts], np.add.reduceat(ms, starts).view(np.int64),  # uint64 wraps
            np.diff(np.append(starts, len(ks))).astype(np.int64))


class _ConvSigState(_IngestState):
    """Per-conversation accumulating signature state for one key bucket."""

    def __init__(self):
        self.sig: dict = {}
        self.n: dict = {}

    def process(self, keys: np.ndarray, sigs: np.ndarray, ns: np.ndarray) -> None:
        # inputs are already pre-reduced to one row per conv per micro-batch
        # (the _FingerprintState pattern: the loop touches DISTINCT convs only)
        sig, n = self.sig, self.n
        for k, s, c in zip(keys.tolist(), sigs.tolist(), ns.tolist()):
            sig[k] = (sig.get(k, 0) + (s & _MASK64)) & _MASK64
            n[k] = n.get(k, 0) + c

    def flush(self) -> pa.Table:
        # an Arrow table typed at any row count: Ray measures a zero-row
        # pandas "string" column only with a logged error per empty bucket.
        # Keys travel as strings, the output type of the batch operator.
        n = len(self.sig)
        sig_u = np.fromiter(self.sig.values(), np.uint64, n)
        return pa.table({
            "__key": pa.array([str(k) for k in self.sig], pa.string()),
            "sig_h": pa.array(sig_u.view(np.int64), pa.int64()),
            "n_turns": pa.array(np.fromiter(self.n.values(), np.int64, n), pa.int64()),
        })


class StreamingConvDedupRunner:
    """Single-pass streaming conversation template dedup: parallel shard
    replayers → conv-bucketed signature states → end-of-stream flush → one
    signature-keyed exchange for the group-min (the flushed frames go
    straight from the actors into the exchange as object refs — the driver
    never holds the conversation table). Result ≡ batch
    ``conv_template_dedup`` under any shard interleaving (commutative
    combine; tested). Rows with a null conversation id are dropped and
    counted (``null_key_rows``)."""

    def __init__(self, num_buckets: int = 8, max_replayers: int = 16,
                 sig_cols: list | None = None):
        self.num_buckets = num_buckets
        self.max_replayers = max_replayers
        self.sig_cols = sig_cols or ["role", "tool"]

    def run(self, parquet_path: str, key_col: str = "conv_id",
            order_col: str = "turn_idx", micro_batch_rows: int = 65_536):
        import ray.data as _rd

        from pipeflow_ray.functions.dedup import (
            _conv_canon_fn,
            _stable_empty,
        )
        from pipeflow_ray.stages.core import grouped_by_bucket

        refs, metrics = _run_on_ingest(
            parquet_path, micro_batch_rows, num_buckets=self.num_buckets,
            max_replayers=self.max_replayers, state=(_ConvSigState,),
            columns=[key_col, order_col, *self.sig_cols], key_col=key_col,
            partial=_conv_sig_partial,
            partial_args=(key_col, order_col, self.sig_cols), fetch=False)
        sigs = _rd.from_arrow_refs(refs)

        def _canon(df: pd.DataFrame) -> pd.DataFrame:
            return _conv_canon_fn(key_col)(df.rename(columns={"__key": key_col}))

        out = grouped_by_bucket(sigs, ["sig_h"], _canon,
                                self.num_buckets, batch_format="pandas")
        out = _stable_empty(out, pa.schema([
            (key_col, pa.string()), (f"canonical_{key_col}", pa.string()),
            ("is_dup", pa.int64()), ("group_size", pa.int64()),
        ]))
        return out, metrics
