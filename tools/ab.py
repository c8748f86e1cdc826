"""Interleaved A/B of two git revisions on the perfbench workloads, with an
A/A control on every call.

    python tools/ab.py <base-rev> [<change-rev>] --workload vector_dedup \\
        --seeds 20501-20510 --out bench_runs/ab_name.jsonl [--trace 1]

The base is exported twice and the change once, each with ``git archive``
into its own directory under ``--workdir`` (no worktree, no network). For
every seed the three trees run ``perfbench/run.py --workload W --seed S
--seconds T --trace X`` one after the other, with ``T`` the ``run_seconds``
of ``BENCHMARK.json`` so every side and the benchmark itself run for the
same length. The order rotates from seed to seed, so each tree goes first
once in every three seeds and a slow spell of a shared host lands on every
side. ``<change-rev>`` defaults to ``HEAD``. The second base copy (tree
``aa``) is the A/A control: its shift from the base is the noise floor a
real effect has to clear, taken in the same sitting, so ``ab.py X X`` adds
nothing a normal call does not already measure.

Each run appends one JSON record to ``--out``: ``workload, trace, seed,
tree, rev, attempt, exit, stderr_class, check_failed_lines, cpu_warnings,
wall_s, seconds, result``. ``tree`` is the base revision's short hash,
``change`` or ``aa``. A run that prints no result line is classified from
its stderr (``temp_dir`` for perfbench's refusal of a Ray temp dir too long
for unix sockets, ``check_failed`` for Ray's fatal ``Check failed``,
``timeout`` and ``signal`` for the supervisor's "exceeded" and "died of
signal" messages, ``traceback``, else ``other``) and run once more
(``attempt`` 2); both records are kept. A ``temp_dir`` refusal depends only
on the export path, so it would repeat: the A/B stops there and names the
``--workdir`` to shorten. ``cpu_warnings`` counts Ray Data's "does not have
any available CPUs" warning. Every run's stderr is kept under
``<workdir>/logs``.

The report gives, per workload and metric, both medians, the change/base
ratio, the A/A ratio and the pairs the A/A copy won, each side's IQR/median
next to the metric's ``BENCHMARK.json`` bound, the pairs the change won,
and whether the change's and the A/A copy's medians differ from the base's
by more than the base's IQR. ``--report FILE`` prints it for records
already taken; records from before the A/A control get the table without
its columns, and records without ``cpu_warnings`` show ``n/a``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPU_WARNING = "does not have any available CPUs"
TEMP_DIR_REFUSAL = "too long for Ray's unix sockets"
AA = "aa"  # the tree label of the base's second export


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> str:
    """``git archive`` *rev* into a fresh *dest*; return *dest*."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def classify(stderr: str) -> str:
    """Why a run printed no result line, read from its stderr. The
    supervisor exits 6 both on a timeout and on a signal death, so the exit
    code cannot tell them apart; its messages can."""
    if TEMP_DIR_REFUSAL in stderr:
        return "temp_dir"
    if "Check failed" in stderr:
        return "check_failed"
    if "perfbench: run exceeded" in stderr:
        return "timeout"
    if "perfbench: run died of signal" in stderr:
        return "signal"
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    return "other"


def run_one(tree_dir: str, workload: str, seed: int, seconds: float, trace: int,
            log: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree_dir, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    with open(log, "w") as f:
        f.write(proc.stderr)
    result = None
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                continue
            if "metrics" in result:
                break
            result = None
    return {"exit": proc.returncode,
            "stderr_class": None if result else classify(proc.stderr),
            "check_failed_lines": proc.stderr.count("Check failed"),
            "cpu_warnings": proc.stderr.count(CPU_WARNING),
            "wall_s": round(wall, 1), "result": result}


def run_order(i: int, trees: list[str]) -> list[str]:
    """The order the *i*-th seed runs *trees* in: rotated by one per seed."""
    k = i % len(trees)
    return trees[k:] + trees[:k]


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _warnings(recs: list[dict]) -> str:
    counts = [r.get("cpu_warnings") for r in recs]
    return "n/a" if None in counts else str(sum(counts))


def report(records: list[dict], benchmark: dict, out=sys.stdout) -> None:
    """Print the per-metric comparison of base, change and A/A records, over
    the seeds that have a result from every tree."""
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    keys = sorted({(r["workload"], r["trace"]) for r in records})
    for workload, trace in keys:
        recs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
        base_label = next(r["tree"] for r in recs if r["tree"] not in ("change", AA))
        has_aa = any(r["tree"] == AA for r in recs)
        trees = [base_label, "change"] + ([AA] if has_aa else [])
        by_seed: dict[int, dict] = {}
        for r in recs:
            if r.get("result"):  # a re-run's result stands for its seed
                by_seed.setdefault(r["seed"], {})[r["tree"]] = r["result"]
        full = [s for s in by_seed.values() if all(t in s for t in trees)]
        failed = [r for r in recs if not r.get("result")]
        classes = (f" {sorted({r.get('stderr_class') for r in failed}, key=str)}"
                   if failed else "")
        warnings = " / ".join(f"{name} {_warnings([r for r in recs if r['tree'] == t])}"
                              for name, t in zip(("base", "change", "a/a"), trees))
        print(f"\n{workload} trace={trace}: {len(full)} seeds, base {base_label}, "
              f"{len(failed)} run(s) without a result{classes}; cpu warnings {warnings}",
              file=out)
        aa_head = f" {'a/a':>7s} {'a/a won':>7s}" if has_aa else ""
        print(f"  {'metric':28s} {'base':>11s} {'change':>11s} {'ratio':>7s}{aa_head} "
              f"{'iqr/med b':>9s} {'iqr/med c':>9s} {'bound':>6s} {'won':>6s} "
              f"beyond-iqr{' a/a-beyond-iqr' if has_aa else ''}", file=out)
        names = [n for n in specs if any(n in res["metrics"] for s in full for res in s.values())]
        for name in names:
            base, chg, *aa = ([s[t]["metrics"][name]["value"] for s in full] for t in trees)
            if not any(chg) and not any(base):  # a layer this workload never runs
                continue
            bq1, bmed, bq3 = _quartiles(base)
            cq1, cmed, cq3 = _quartiles(chg)
            lower = specs[name]["better"] == "lower"

            def won(xs):
                n = sum((x < b) if lower else (x > b) for x, b in zip(xs, base))
                return f"{n}/{len(xs)}"

            def beyond(med):
                return "yes" if abs(med - bmed) > (bq3 - bq1) else "no"

            def ratio(med):
                return med / bmed if bmed else float("nan")

            aa_cols = aa_end = ""
            if aa:
                amed = statistics.median(aa[0])
                aa_cols, aa_end = f" {ratio(amed):7.3f} {won(aa[0]):>7s}", f" {beyond(amed)}"
            bound = bounds.get(name)
            print(f"  {name:28s} {bmed:11.4g} {cmed:11.4g} {ratio(cmed):7.3f}{aa_cols} "
                  f"{(bq3 - bq1) / bmed if bmed else 0:9.3f} "
                  f"{(cq3 - cq1) / cmed if cmed else 0:9.3f} "
                  f"{'' if bound is None else bound:>6} {won(chg):>6s} "
                  f"{beyond(cmed):10s}{aa_end}".rstrip(), file=out)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?", default="HEAD")
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="repeatable; default: every BENCHMARK.json workload")
    ap.add_argument("--seeds", default="1-10", help="e.g. 20501-20510 or 1,4,9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="JSONL file the records are appended to")
    ap.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "pipeflow_ab"),
                    help="where the exported trees and run logs go")
    ap.add_argument("--report", metavar="FILE", help="only report FILE's records")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    if args.report:
        with open(args.report) as f:
            report([json.loads(line) for line in f if line.strip()], benchmark)
        return 0
    if not args.base or not args.out:
        ap.error("a base revision and --out are required unless --report is given")

    base_sha = _git("rev-parse", "--short", args.base)
    change_sha = _git("rev-parse", "--short", args.change)
    trees = {base_sha: export(args.base, os.path.join(args.workdir, "a-" + base_sha)),
             "change": export(args.change, os.path.join(args.workdir, "b-" + change_sha)),
             AA: export(args.base, os.path.join(args.workdir, "c-" + base_sha))}
    revs = {base_sha: base_sha, "change": change_sha, AA: base_sha}
    logs = os.path.join(args.workdir, "logs")
    os.makedirs(logs, exist_ok=True)
    seconds = benchmark["run_seconds"]
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    records = []
    with open(args.out, "a") as out:
        for workload in workloads:
            for i, seed in enumerate(parse_seeds(args.seeds)):
                for tree in run_order(i, list(trees)):
                    for attempt in (1, 2):
                        log = os.path.join(logs, f"{tree}-{revs[tree]}-{workload}-{seed}"
                                                 f"-t{args.trace}-{attempt}.err")
                        rec = {"workload": workload, "trace": args.trace, "seed": seed,
                               "tree": tree, "rev": revs[tree], "attempt": attempt,
                               **run_one(trees[tree], workload, seed, seconds,
                                         args.trace, log),
                               "seconds": seconds}
                        out.write(json.dumps(rec) + "\n")
                        out.flush()
                        records.append(rec)
                        res = rec["result"]
                        value = (res["metrics"].get("pass_s", {}).get("value")
                                 if res else rec["stderr_class"])
                        print(f"{workload} seed {seed} {tree} attempt {attempt}: "
                              f"exit {rec['exit']} pass_s {value}", flush=True)
                        if rec["stderr_class"] == "temp_dir":
                            with open(log) as f:
                                why = next(ln for ln in f if TEMP_DIR_REFUSAL in ln).strip()
                            sys.exit(f"{why}\nab.py: stopped: every run would be refused the "
                                     f"same way; pass a shorter --workdir than {args.workdir!r}")
                        if res:
                            break
    report(records, benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
