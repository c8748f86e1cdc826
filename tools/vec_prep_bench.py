"""Vector-kernel microbench: list column → ndarray, zero-copy vs per-row
boxing, and the nearest-centroid assignment.

Times ``similarity._list_matrix`` against the per-row expressions it
replaced, on synthetic columns (no test data is read):

- ``emb_2k`` / ``emb_100k``: 2,000 and 100,000 rows × 64 float32 in a
  ``list<float>`` column, against ``np.stack(col.to_pylist())`` cast to
  float64 (the old ANN / near-dup prep);
- ``sig_100k``: 100,000 MinHash signatures × 64 uint64 (values above 2^53),
  against ``np.stack([np.asarray(s) for s in col.to_pylist()])`` (the old
  banding prep).

Both sides run in this process on one thread (``OMP_NUM_THREADS=1``, Arrow
CPU count 1), best of ``--reps``. The column is a slice with a non-zero
offset, as exchange outputs are. The helper's matrix must equal the source
array exactly; ``boxed_exact`` reports whether the per-row expression did
(it does not on signatures: ``np.asarray`` turns a row holding a value
≥ 2^63 into float64, and ``np.stack`` then rounds the whole batch). Gates:
the helper is no slower at 2k rows and at least 50× faster at 100k rows.

``kmeans_assign_4k`` times ``similarity._centroid_dist(x, c).argmin(1)``
(one matmul) against the ``(n, k, d)`` broadcast
``((x[:, None] - c[None]) ** 2).sum(-1).argmin(1)`` it replaced, at
4,096 × 16 centroids × 64 float64 (one IVF training sample). The argmins
must be identical; the gate is at least 4× faster.

The exit status is 1 when a gate or an exactness check fails.

Usage: python tools/vec_prep_bench.py [--reps 3]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402

DIM = 64


def _column(x: np.ndarray) -> pa.ChunkedArray:
    """*x* as a list column, sliced one row in from a longer array."""
    pad = np.concatenate([x[:1], x])
    flat = pa.array(pad.ravel())
    col = pa.FixedSizeListArray.from_arrays(flat, DIM).cast(pa.list_(flat.type))
    return pa.chunked_array([col.slice(1, len(x))])


def _best(fn, reps: int) -> tuple[float, np.ndarray]:
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    pa.set_cpu_count(1)
    from pipeflow_ray.functions.similarity import _list_matrix

    rng = np.random.default_rng(0)
    cases = {
        "emb_2k": (rng.standard_normal((2_000, DIM)).astype(np.float32), np.float64,
                   lambda c: np.stack(c.to_pylist()).astype(np.float64)),
        "emb_100k": (rng.standard_normal((100_000, DIM)).astype(np.float32), np.float64,
                     lambda c: np.stack(c.to_pylist()).astype(np.float64)),
        "sig_100k": (rng.integers(2**53, 2**64 - 1, size=(100_000, DIM), dtype=np.uint64),
                     np.uint64,
                     lambda c: np.stack([np.asarray(s) for s in c.to_pylist()]).astype(np.uint64)),
    }
    gates = {"emb_2k": 1.0, "emb_100k": 50.0}
    ok = True
    for name, (x, dtype, boxed) in cases.items():
        col = _column(x)
        t_box, m_box = _best(lambda: boxed(col), args.reps)
        t_new, m_new = _best(lambda: _list_matrix(col, name, dtype), args.reps)
        exact = m_new.dtype == dtype and np.array_equal(m_new, x.astype(dtype))
        speedup = t_box / t_new
        gate = gates.get(name)
        passed = exact and (gate is None or speedup >= gate)
        ok &= passed
        print(json.dumps({"case": name, "rows": len(x), "dim": DIM, "dtype": np.dtype(dtype).name,
                          "boxed_s": round(t_box, 5), "list_matrix_s": round(t_new, 5),
                          "speedup": round(speedup, 1), "min_speedup": gate,
                          "exact": exact, "boxed_exact": bool(np.array_equal(m_box, x.astype(dtype))),
                          "ok": passed}))
        del col, m_box, m_new
    ok &= _kmeans_assign_case(rng, args.reps)
    return 0 if ok else 1


def _kmeans_assign_case(rng, reps: int) -> bool:
    from pipeflow_ray.functions.similarity import _centroid_dist

    gate = 4.0
    x = rng.standard_normal((4_096, DIM))
    cent = rng.standard_normal((16, DIM))
    t_old, a_old = _best(lambda: ((x[:, None, :] - cent[None, :, :]) ** 2).sum(-1).argmin(1), reps)
    t_new, a_new = _best(lambda: _centroid_dist(x, cent).argmin(1), reps)
    same = bool(np.array_equal(a_old, a_new))
    speedup = t_old / t_new
    passed = same and speedup >= gate
    print(json.dumps({"case": "kmeans_assign_4k", "rows": len(x), "clusters": len(cent),
                      "dim": DIM, "broadcast_s": round(t_old, 5),
                      "centroid_dist_s": round(t_new, 5), "speedup": round(speedup, 1),
                      "min_speedup": gate, "same_argmin": same, "ok": passed}))
    return passed


if __name__ == "__main__":
    sys.exit(main())
