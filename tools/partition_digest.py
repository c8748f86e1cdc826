"""Per-partition digest of the flagship's exactly-once output, to check that
two revisions commit the same rows to the same partitions.

    PYTHONPATH=<tree> python tools/partition_digest.py <transcripts> <out_dir> \\
        [--partitions 64] [--cpus 4] > digest.json

Runs ``flagship_pipeline`` over *transcripts* (a parquet file or a directory
of shards) into a fresh *out_dir* in a local Ray session of ``--cpus``
slots, then prints one JSON object ``{pid: [rows, sha256]}``, the hash taken
over the partition file's rows sorted by every column. Run it once per
tree on the same input and compare the two outputs with ``cmp``; the
benchmark's generator makes a fixed input with
``perfbench.gen.write_shards(perfbench.gen.transcripts(500_000, seed), dir, 4)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil


def digest(out_dir: str, partitions: int) -> dict:
    import pandas as pd
    import pyarrow.parquet as pq

    out = {}
    for pid in range(partitions):
        df = pq.read_table(os.path.join(out_dir, f"part-{pid:05d}.parquet")).to_pandas()
        df = df.sort_values(list(df.columns), ignore_index=True)
        h = pd.util.hash_pandas_object(df, index=False).to_numpy()
        out[pid] = [len(df), hashlib.sha256(h.tobytes()).hexdigest()]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("transcripts")
    ap.add_argument("out_dir")
    ap.add_argument("--partitions", type=int, default=64)
    ap.add_argument("--cpus", type=int, default=4)
    args = ap.parse_args()

    import ray
    from ray.data import DataContext

    from pipeflow_ray.pipelines.flagship import flagship_pipeline

    shutil.rmtree(args.out_dir, ignore_errors=True)
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        _, stats = flagship_pipeline(args.transcripts, out_dir=args.out_dir,
                                     num_partitions=args.partitions, return_windowed=False)
    finally:
        ray.shutdown()
    assert stats.partition_id.tolist() == list(range(args.partitions))
    print(json.dumps(digest(args.out_dir, args.partitions), sort_keys=True))


if __name__ == "__main__":
    main()
