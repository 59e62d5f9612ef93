"""Measure every workload over several seeds and write a baseline record.

    python3 perfbench/baseline.py --out perfbench/BENCH_baseline.json

For each workload this makes ``BASELINE_RUNS`` trace-0 runs of ``run.py``
with seeds 0, 1, ... and one trace-1 run at the reference seed.  The record
holds each end-to-end metric's values, median, quartiles and spread
(quartile distance over median), every per-layer metric of the traced run,
and the machine the numbers were taken on.  The spreads are printed next to
a third of each metric's bound, the steadiness the benchmark aims for; the
exit code is 1 if any spread reaches it or any scenario run failed.
Without ``--out`` nothing is written.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spec import BASELINE_RUNS, END_TO_END, REFERENCE_SEED, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes():
    """Size of the highest cache level of CPU 0, from sysfs."""
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        sizes[level] = int(size.rstrip("KMG")) * scale
    return sizes[max(sizes)] if sizes else None


def machine() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": len(os.sched_getaffinity(0)),
    }


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seconds = RUN_SECONDS
    record = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload, scenarios in WORKLOADS.items():
        runs = [run_once(workload, seed, seconds, 0) for seed in range(BASELINE_RUNS)]
        entry = {"scenarios": [list(s) for s in scenarios],
                 "seeds": list(range(BASELINE_RUNS)),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for metric in END_TO_END:
            name, bound = metric["name"], metric["bound"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            steady = stats["spread"] < bound / 3
            ok &= steady
            print(f"{workload:<16} {name:<12} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f}  bound/3 {bound / 3:.4f}"
                  f"{'' if steady else '  NOT STEADY'}  values "
                  + " ".join(f"{v:.4g}" for v in stats["values"]), flush=True)
        traced = run_once(workload, REFERENCE_SEED, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["failed"] += traced["failed"]
        entry["attempted"] += traced["attempted"]
        print(f"{workload:<16} failed {entry['failed']} of {entry['attempted']} scenario runs",
              flush=True)
        ok &= entry["failed"] == 0
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
