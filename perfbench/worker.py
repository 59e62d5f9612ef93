"""One benchmark process.

    python perfbench/worker.py JOB.json

The job file names the checkout root, the scenarios with their
resolutions, the seed, the mode and where to write.  Every mode times
set-up: importing vexleb and loading and validating the scenario files.
Mode ``setup`` stops there.  Mode ``pass`` then runs each scenario once
through ``vexleb.cli.run`` and records wall time, CPU time and peak
resident memory, with the calibration kernel (``calibrate.py``) timed just
before and just after the pass; mode ``traced`` does the same with spans recorded around
every layer (see ``spans.py``) and adds the per-layer summary, with
``trace.overhead_s`` as the span count times the measured cost of one span.
The result is written as JSON to the job's ``result`` path.
"""
import json
import os
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    root = job["root"]
    sys.path.insert(0, os.path.join(root, "src"))

    t0 = time.perf_counter()
    import vexleb.cli as cli
    scenarios = [(cli.load_scenario(os.path.join(root, path)), res)
                 for path, res in job["scenarios"]]
    result = {"setup_s": time.perf_counter() - t0}

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"vexleb imported from {cli.__file__}, not from {src}")

    if job["mode"] != "setup":
        from calibrate import kernel
        tracer = None
        if job["mode"] == "traced":
            from spans import Tracer, install, summarize, wrapper_cost_ns
            tracer = Tracer()
            install(tracer)
        cal_s = [kernel()]
        runs = []
        cpu0, t0 = time.process_time(), time.perf_counter()
        for i, (scenario, res) in enumerate(scenarios):
            if tracer is not None:
                tracer.run_id = f"{i}:{scenario.name}"
            out_dir = os.path.join(job["out_dir"], f"{i}-{scenario.name}")
            code = cli.run(scenario, out_dir, fmt="both", resolutions=res, seed=job["seed"])
            runs.append({"name": scenario.name, "out_dir": out_dir, "code": code})
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["cal_s"] = cal_s + [kernel()]
        result["runs"] = runs
        if tracer is not None:
            tracer.write(job["trace_file"])
            result["layers"] = summarize(tracer.spans)
            result["layers"]["trace.overhead_s"] = len(tracer.spans) * wrapper_cost_ns() / 1e9

    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
