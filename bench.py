"""Benchmark harness.

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default: the
sf0.1 test data) with ``ray.init(num_cpus=$RAY_GRAFT_CPUS)`` and print ONE
JSON line: ``{"metric": ..., "value": <headline sec>, "unit":
"sec", "queries": {...}, "sf": ..., "num_cpus": N, "usable_cores": U}``.
``RAY_GRAFT_CPUS`` defaults to the usable cores (the affinity mask, capped by
the cgroup CPU quota); asking for more oversubscribes the host and prints a
warning, since walls then stop being comparable across hosts. The walls are
absolute; a same-host comparison of two commits is ``tools/ab.py``.

``--scaling``: run the headline pipeline in two fresh processes at N and 4N
CPUs on the same input (the sandbox proxy for the N vs 4N node criterion;
``GRAFT_SCALE_LEVELS``, default ``2,8``) and print both wall times, both
throughputs, and the scaling efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)


# Contention canary: a single-process, deterministic, stateless CPU kernel
# (the winnow fingerprint pass — the steadiest query across all four rounds,
# ±6%). Its wall time against the pinned idle reference below detects host
# contention that absolute bench numbers would otherwise silently absorb.
CANARY_REF_S = 0.245  # best-known idle wall of _canary() on this VM (r5)
CANARY_INFLATED = 1.25  # canary/ref above this ⇒ contended host ⇒ more reps


def _canary_table():
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(7)
    words = np.array(["tok%03d" % i for i in range(512)], dtype=object)
    docs = [" ".join(rng.choice(words, size=120)) for _ in range(4500)]
    return pa.table({"doc_id": list(range(len(docs))), "text": docs})


def _canary(tab=None) -> float:
    """Median-of-3 wall of the deterministic winnow kernel (driver process
    only — no Ray, no IO). Median, not min: the canary's job is to SEE
    contention, not hide it."""
    from pipeflow_ray.functions.text import winnow_batch

    tab = tab if tab is not None else _canary_table()
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        winnow_batch(tab)
        walls.append(time.perf_counter() - t0)
    return sorted(walls)[1]


def _headline(sf_dir: str, out_root: str, reps: int) -> dict:
    """Flagship chain (read transcripts → normalize → stateful join →
    tumbling window aggregate → exactly-once partitioned sink), min-of-*reps*
    wall after an untimed warm-up. The canary in ``bench_once`` is the
    contention signal; a speed claim is a ``tools/ab.py`` ratio against a
    named commit, not this absolute wall."""
    import pyarrow.parquet as pq

    from pipeflow_ray.fixtures import ensure_transcripts
    from pipeflow_ray.pipelines.flagship import flagship_pipeline

    path = ensure_transcripts(sf_dir)
    files = sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )
    n_turns = sum(pq.read_metadata(f).num_rows for f in files)
    for fp in files:  # warm page cache: measure compute, not cold disk
        with open(fp, "rb") as f:
            while f.read(1 << 24):
                pass
    # warm the Ray workers + plan path on the small fixture (untimed) so the
    # measurement is sustained throughput, not one-time process startup
    warm = ensure_transcripts(0.001)
    warm_dir = os.path.join(out_root, "warmup_out")
    shutil.rmtree(warm_dir, ignore_errors=True)
    flagship_pipeline(warm, out_dir=warm_dir, num_partitions=8)

    out_dir = os.path.join(out_root, "headline_out")
    walls = []
    for _ in range(reps):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        flagship_pipeline(path, out_dir=out_dir, num_partitions=64,
                          return_windowed=False)
        walls.append(time.perf_counter() - t0)
    return {"value": round(min(walls), 3), "turns": n_turns}


def _run_queries(sf_dir: str, reps: int = 2) -> dict[str, float]:
    """Representative per-operator timings (full consumption each),
    min-of-N reps (GRAFT_QUERY_REPS, default 2) — the min is robust to the
    shared host's intermittent ~30% contention spikes (see BASELINE.md
    host-noise discipline) while staying an honest full-execution wall."""
    import ray.data

    from pipeflow_ray.pipelines.queries import QUERIES

    # task-pool queries first, actor-spawning streaming runners LAST: a
    # finishing streaming topology's dying workers hold their CPUs for ~3 s
    # (see working notes), which would tax whatever query runs next
    names = [
        "q1_pricing_summary",
        "filter_project",
        "tumbling_events",
        "session_events",
        "transcripts_turn_join",
        "transcripts_sessions",
        "cep_pattern_turns",
        "cep_timeout_turns",
        "cep_kleene_open_turns",
        "turn_analytics_transcripts",
        "repetition_docs",
        "tfidf_docs",
        "inverted_index_docs",
        "dedup_exact_docs",
        "pack_sequences_docs",
        "epoch_shuffle_docs",
        "winnow_fingerprint_docs",
        "minhash_pairs_docs",
        "bm25_topk_docs",
        "substring_dedup_docs",
        "conv_dedup_transcripts",
        "ann_topk",
        "ann_corpus_topk",
        "kmeans_embeddings",
        "semdedup_embeddings",
        "knn_classify_embeddings",
        "sketch_quantiles_price",
        "unpivot_lineitem",
        "pivot_wider_transcripts",
        "hll_distinct_orders",
        "hash_join_segment",
        "streaming_sessions",
        "streaming_cep_pattern",
        "streaming_cep_kleene_open",
        "streaming_join",
        "streaming_sketch_quantiles",
        "streaming_hll_distinct",
        "streaming_topk_convs",
        "streaming_conv_dedup",
    ]
    out = {}
    for name in names:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            res = QUERIES[name](sf_dir)
            if isinstance(res, ray.data.Dataset):
                res.count()  # force full execution
            best = min(best, time.perf_counter() - t0)
        out[name] = round(best, 3)
    return out


def _pin_worker_threads():
    """One compute thread per Ray worker: Arrow kernels are internally
    multithreaded and oversubscribe the node (measured: 32-cpu flagship run
    2.1x FASTER pinned), and unpinned workers make the num_cpus knob
    meaningless for scaling measurements."""
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["ARROW_NUM_THREADS"] = "1"
    import pyarrow as pa

    pa.set_cpu_count(1)
    pa.set_io_thread_count(2)


def _cgroup_cpu_quota() -> float | None:
    """CPUs allowed by the cgroup CPU quota (v2, then v1), or None when
    unlimited or unreadable."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()[:2]
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
            quota = int(f.read())
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
            period = int(f.read())
    except (OSError, ValueError):
        return None
    return quota / period if quota > 0 and period > 0 else None


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, capped by the cgroup
    CPU quota (a fractional quota still leaves one core)."""
    n = len(os.sched_getaffinity(0))
    quota = _cgroup_cpu_quota()
    return n if quota is None else max(1, min(n, int(quota)))


def bench_once() -> dict:
    _pin_worker_threads()
    # Ray workers resolve imports via PYTHONPATH, not the driver's sys.path —
    # export it so bench works from any CWD
    os.environ["PYTHONPATH"] = REPO + os.pathsep + os.environ.get("PYTHONPATH", "")
    import ray

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    usable = usable_cores()
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", usable))
    if num_cpus > usable:
        print(f"bench.py: warning: RAY_GRAFT_CPUS={num_cpus} exceeds the {usable} "
              "usable cores; the run oversubscribes this host", file=sys.stderr)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR",
             runtime_env={"env_vars": {"OMP_NUM_THREADS": "1", "ARROW_NUM_THREADS": "1"}})
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    # contention canary: adaptive reps — an inflated canary means the host is
    # contended RIGHT NOW, so buy robustness with more min-of-N samples
    ctab = _canary_table()
    canary_start = _canary(ctab)
    contended = canary_start / CANARY_REF_S > CANARY_INFLATED
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "6" if contended else "3"))
    query_reps = int(os.environ.get("GRAFT_QUERY_REPS", "3" if contended else "2"))

    head = _headline(sf_dir, "/tmp/pipeflow_bench", reps)
    queries = {} if os.environ.get("GRAFT_HEADLINE_ONLY") else _run_queries(sf_dir, query_reps)
    canary_end = _canary(ctab)

    from pipeflow_ray.fixtures import sf_of_dir

    wall, n_turns = head["value"], head["turns"]
    result = {
        "metric": "flagship transcripts pipeline (read→normalize→join→window agg→exactly-once sink) wall time",
        "value": wall,
        "unit": "sec",
        "queries": queries,
        "sf": sf_of_dir(sf_dir),
        "num_cpus": num_cpus,
        "usable_cores": usable,
        "turns": n_turns,
        "turns_per_sec": round(n_turns / wall, 1),
        "headline_reps": reps,
        "query_reps": query_reps,
        "canary": {
            "start_s": round(canary_start, 3),
            "end_s": round(canary_end, 3),
            "ref_s": CANARY_REF_S,
            "inflation": round(canary_start / CANARY_REF_S, 2),
            "contended": contended,
        },
    }
    ray.shutdown()
    return result


def bench_scaling() -> dict:
    # Scaling evidence needs a compute-dominated job: a larger fixture
    # (GRAFT_SCALING_SF, default sf2.0 = ~10M turns) amortizes the ~2s fixed
    # plan/shuffle-coordination overhead. Levels default to 2 vs 8 worker
    # slots (the driver's "N and 4N CPUs" form): with single-threaded workers
    # each slot is one core, and N→4N multiplies worker count exactly the way
    # added nodes would. (8 vs 32 on THIS single box saturates its memory
    # bandwidth — two runs sharing one socket is where the sandbox proxy
    # diverges from real added nodes; see BASELINE.md.)
    scaling_sf = os.environ.get("GRAFT_SCALING_SF", "4.0")
    lo_n, hi_n = (int(x) for x in os.environ.get("GRAFT_SCALE_LEVELS", "2,8").split(","))
    sys.path.insert(0, REPO)
    from pipeflow_ray.fixtures import FIXTURE_ROOT, ensure_transcripts

    ensure_transcripts(float(scaling_sf))  # generate once, shared by both runs
    sf_dir = os.path.join(FIXTURE_ROOT, f"sf{float(scaling_sf)}")

    def run(ncpu: int, reps: str) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_HEADLINE_ONLY="1",
                   GRAFT_SF_DIR=sf_dir, PYTHONPATH=REPO, OMP_NUM_THREADS="1",
                   GRAFT_BENCH_REPS=reps)
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    if os.environ.get("GRAFT_SCALE_INTERLEAVE"):
        # Interleave the two levels IN TIME (lo,hi,hi,lo,lo,hi …): the
        # host's bursty external contention (see BASELINE.md attempts 1/3/4,
        # where a burst hit exactly one side and collapsed the ratio) then
        # taxes both levels symmetrically, as tools/ab.py's rotating run
        # order does for two commits. min-of-reps per level.
        reps = int(os.environ.get("GRAFT_SCALE_REPS", "3"))
        los, his = [], []
        for i in range(reps):
            order = ((lo_n, los), (hi_n, his)) if i % 2 == 0 else ((hi_n, his), (lo_n, los))
            for n, acc in order:
                acc.append(run(n, "1"))
        lo_sec = min(r["value"] for r in los)
        hi_sec = min(r["value"] for r in his)
        turns, sf = los[0]["turns"], los[0]["sf"]
        tput_lo = round(turns / lo_sec, 1)
        tput_hi = round(turns / hi_sec, 1)
        eff = (tput_hi / tput_lo) / (hi_n / lo_n)
        return {
            "metric": (f"scaling efficiency, flagship pipeline, num_cpus {lo_n} vs "
                       f"{hi_n} (N vs 4N proxy), time-interleaved"),
            f"sec_{lo_n}": lo_sec,
            f"sec_{hi_n}": hi_sec,
            f"turns_per_sec_{lo_n}": tput_lo,
            f"turns_per_sec_{hi_n}": tput_hi,
            "scaling_efficiency": round(eff, 3),
            "sf": sf,
            "turns": turns,
            "mode": "interleaved",
            f"walls_{lo_n}": [r["value"] for r in los],
            f"walls_{hi_n}": [r["value"] for r in his],
        }

    lo = run(lo_n, os.environ.get("GRAFT_BENCH_REPS", "3"))
    hi = run(hi_n, os.environ.get("GRAFT_BENCH_REPS", "3"))
    tput_lo = lo["turns_per_sec"]
    tput_hi = hi["turns_per_sec"]
    eff = (tput_hi / tput_lo) / (hi_n / lo_n)
    return {
        "metric": f"scaling efficiency, flagship pipeline, num_cpus {lo_n} vs {hi_n} (N vs 4N proxy)",
        f"sec_{lo_n}": lo["value"],
        f"sec_{hi_n}": hi["value"],
        f"turns_per_sec_{lo_n}": tput_lo,
        f"turns_per_sec_{hi_n}": tput_hi,
        "scaling_efficiency": round(eff, 3),
        "sf": lo["sf"],
        "turns": lo["turns"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(bench_scaling()))
    else:
        print(json.dumps(bench_once()))
