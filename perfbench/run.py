"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload probe-study --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workloads and metrics are named in ``BENCHMARK.json`` and described in
``spec.py``.  Every step runs in
a fresh process (``worker.py``) with BLAS threads capped at the number of
usable CPUs:

* set-up: one untimed warm-up, then ``SETUP_SAMPLES`` timed processes that
  import vexleb and load the workload's scenario files; each pass process
  below times the same set-up first, and ``setup_s`` is the minimum over
  all of them;
* with ``--trace 0``: passes over the workload's scenarios through
  ``vexleb.cli.run`` until ``--seconds`` have elapsed, at least
  ``MIN_PASSES``; ``run_s`` and ``peak_rss_mb`` are medians over passes;
  ``setup_s`` and ``run_s`` are scaled to the machine's reference speed by
  ``CAL_REF_S`` over the mean time of the calibration kernel, which
  every pass process times before and after its pass (``calibrate.py``);
* with ``--trace 1``: one untraced pass, which gives ``run.cpu_s``, and
  one traced pass, which gives the other per-layer metrics (see
  ``spans.summarize``).

Every scenario run is checked: it must exit 0, its report must match the
reference report in ``reference/<workload>/`` (condition values, geometry
and verdicts at any seed, ratios only at the reference seed), and all
passes of one invocation must write byte-identical report files.  A run
that fails any check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of the traced
pass are written to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import (CAL_REF_S, END_TO_END, MIN_PASSES, PER_LAYER, REFERENCE_SEED, REL_TOL,
                  SETUP_SAMPLES, WORKLOADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
OUT = ROOT / ".bench_out"
# A run must end within 180 s; worker processes still running after this
# many seconds from the start are killed.
DEADLINE_S = 175


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) \
            or not isinstance(b, (int, float)):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare_values(where: str, got, ref, errors: list) -> None:
    if isinstance(ref, dict) and isinstance(got, dict):
        if list(got) != list(ref):
            errors.append(f"{where}: keys {list(got)} != {list(ref)}")
            return
        for key in ref:
            _compare_values(f"{where}.{key}", got[key], ref[key], errors)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            errors.append(f"{where}: length {len(got)} != {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_values(f"{where}[{i}]", g, r, errors)
    elif not _close(got, ref):
        errors.append(f"{where}: {got!r} != {ref!r}")


def compare_report(got: dict, ref: dict, check_ratios: bool) -> list:
    """Differences between a report and its reference, as messages.

    Condition values, geometry constants and all verdicts do not depend on
    the seed and are always compared; ratios are compared only when
    ``check_ratios`` (the run used the reference seed)."""
    errors: list = []
    _compare_values("geometry", got.get("geometry"), ref["geometry"], errors)
    _compare_values("conditions", [[c["name"], c["value"]] for c in got.get("conditions", [])],
                    [[c["name"], c["value"]] for c in ref["conditions"]], errors)
    study, ref_study = got.get("study") or {}, ref["study"] or {}
    keys = ["resolutions", "condition_values", "geometry", "condition_trends", "ratio_trend"]
    if check_ratios:
        keys.append("ratios")
    for key in keys:
        if key in ref_study:
            _compare_values(f"study.{key}", study.get(key), ref_study[key], errors)
    return errors


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _child_env() -> dict:
    cap = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.env = _child_env()
        self.jobs = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str) -> dict:
        """Run one worker process to completion and return its result."""
        self.jobs += 1
        tag = f"{self.jobs:03d}-{mode}"
        job = {
            "root": str(ROOT), "mode": mode, "seed": self.seed,
            "scenarios": [[path, list(res)] for path, res in WORKLOADS[self.workload]],
            "out_dir": str(self.work / tag),
            "result": str(self.work / f"{tag}.result.json"),
            "trace_file": str(OUT / f"trace-{self.workload}-seed{self.seed}.jsonl"),
        }
        job_path = self.work / f"{tag}.job.json"
        job_path.write_text(json.dumps(job))
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(Path(job["result"]).read_text())


def check_passes(workload: str, seed: int, passes: list) -> tuple:
    """Check every scenario run of every pass; returns (attempted, failed)."""
    attempted = failed = 0
    first_digest: dict = {}
    for k, result in enumerate(passes):
        for run in result["runs"]:
            attempted += 1
            errors = []
            out_dir = Path(run["out_dir"])
            report = out_dir / f"{run['name']}.json"
            if run["code"] != 0:
                errors.append(f"exit code {run['code']}")
            elif not report.exists():
                errors.append("no report written")
            else:
                ref = REFERENCE / workload / report.name
                errors += compare_report(json.loads(report.read_text()),
                                         json.loads(ref.read_text()), seed == REFERENCE_SEED)
                digest = _digest(out_dir)
                if first_digest.setdefault(out_dir.name, digest) != digest:
                    errors.append("report files differ from the first pass")
            if errors:
                failed += 1
                sys.stderr.write(f"pass {k} {run['name']}: FAILED\n")
                for err in errors[:20]:
                    sys.stderr.write(f"  {err}\n")
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(workload, seed, work)
        runner.spawn("setup")
        setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        if trace:
            passes = [runner.spawn("pass"), runner.spawn("traced")]
        else:
            passes = []
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                passes.append(runner.spawn("pass"))
            # every pass process sets up the same way before its pass
            setups += [p["setup_s"] for p in passes]
        attempted, failed = check_passes(workload, seed, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        plain, traced = passes
        values = dict(traced["layers"])
        values["run.cpu_s"] = plain["cpu_s"]
        metrics = PER_LAYER
    else:
        # times at the machine's reference speed (see calibrate.py)
        scale = CAL_REF_S / statistics.mean(c for p in passes for c in p["cal_s"])
        values = {
            "setup_s": min(setups) * scale,
            "run_s": statistics.median(p["run_s"] for p in passes) * scale,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
        "samples": {"setup_s": setups,
                    "run_s (untraced, traced)" if trace else "run_s": [p["run_s"] for p in passes],
                    "kernel_s": [c for p in passes for c in p["cal_s"]]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "vexleb" / "cli.py"]
    needed += [ROOT / path for path, _ in WORKLOADS[args.workload]]
    needed += [REFERENCE / args.workload]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.stderr.write(f"error: run from a vexleb checkout; missing {', '.join(missing)}\n")
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    samples = result.pop("samples")
    print(f"workload {args.workload}, seed {args.seed}")
    for name, values in samples.items():
        print(f"  {name} samples: {' '.join(f'{v:.4g}' for v in values)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<40} {result['failed'] / result['attempted']:>14.6g} fraction "
          f"({result['failed']} of {result['attempted']} scenario runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
