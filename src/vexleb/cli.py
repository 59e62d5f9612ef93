"""Command-line runner: load a scenario file, evaluate its conditions and
refinement study, and emit machine-readable reports.

    vexleb run scenario.json --resolutions 64,256,1024 --seed 0 \
        --out-dir out --format both

Exit codes: 0 on completion, 2 on validation or precondition failures and
on paths that cannot be read or written, 1 on internal errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import __version__
from .errors import DomainError, PreconditionError, ValidationError
from .report import fmt_float, write_csv, write_json
from .scenario import Scenario, _resolutions
from .space import _integer
from .verify import refinement_study

__all__ = ["load_scenario", "run", "emit_report", "main"]


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; error messages carry the failing
    field."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario parse error at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"scenario file {path}: not UTF-8 at byte {exc.start}") from None
    except OSError as exc:
        raise ValidationError(f"scenario file {path}: {exc.strerror}") from None
    sc = Scenario.from_dict(data)
    if sc.name == "scenario":
        sc.name = path.stem
    return sc


def run(scenario: Scenario, out_dir, fmt: str = "both", resolutions=None, seed=None) -> int:
    """Execute one scenario and write its reports.  Returns the exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        sys.stderr.write(f"error: --out-dir {out}: {exc}\n")
        return 2
    try:
        if seed is not None:
            scenario.seed = _integer(seed, "--seed", 0)
        if resolutions:
            scenario.resolutions = _resolutions(resolutions, "--resolutions")
        if scenario.operator is not None and len(scenario.resolutions) < 3:
            raise ValidationError(
                f"{'--resolutions' if resolutions else 'scenario.resolutions'}: operator "
                f"{scenario.operator!r} needs at least 3 resolutions for its ratio study, "
                f"got {scenario.resolutions}")
        study = None
        if len(scenario.resolutions) >= 3 and (scenario.conditions or scenario.operator):
            # the report's geometry and conditions are the study's finest resolution
            study = refinement_study(scenario, scenario.resolutions)
            geometry, reports = study.geometry[-1], study.reports
        else:
            mat = scenario.materialize(scenario.resolutions[-1])
            geometry, reports = mat.geometry_summary(), mat.evaluate_conditions()
    except (ValidationError, PreconditionError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    results = {
        "meta": {"name": scenario.name, "seed": scenario.seed,
                 "version": __version__, "scenario": scenario.to_dict()},
        "geometry": geometry,
        "conditions": [
            {"name": name, "value": rep.value, "argmax_t": rep.argmax_t,
             "resolution": rep.resolution, "curve_ref": f"{scenario.name}_{name}.csv"}
            for name, rep in reports.items()
        ],
        "study": None if study is None else study.to_dict(),
    }
    try:
        emit_report(results, fmt, out, curves=reports, study=study)
    except OSError as exc:
        sys.stderr.write(f"error: --out-dir {out}: {exc}\n")
        return 2
    return 0


def emit_report(results: dict, fmt: str, out_dir, curves=None, study=None):
    """Write the JSON report and/or CSV curves with deterministic bytes."""
    if not results:
        raise DomainError("nothing to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = results.get("meta", {}).get("name", "report")
    if fmt in ("json", "both"):
        write_json(out / f"{name}.json", results)
    if fmt in ("csv", "both"):
        # the reports of one memoized evaluation share their arrays: each
        # shared curve is formatted once and its bytes copied, and each
        # shared sweep grid is formatted once, as the text write_csv prints
        written, t_text = {}, {}
        for cname, rep in (curves or {}).items():
            path, key = out / f"{name}_{cname}.csv", (id(rep.ts), id(rep.curve))
            if key in written:
                path.write_bytes(written[key])
                continue
            if id(rep.ts) not in t_text:
                t_text[id(rep.ts)] = [fmt_float(t) for t in rep.ts.tolist()]
            written[key] = write_csv(path, ["t", "value"],
                                     zip(t_text[id(rep.ts)], rep.curve.tolist()))
        if study is not None:
            rows = []
            for i, n in enumerate(study.resolutions):
                for metric, series in study.condition_values.items():
                    rows.append((n, f"condition:{metric}", series[i]))
                if study.ratios[i] is not None:
                    rows.append((n, "ratio", study.ratios[i]))
            write_csv(out / f"{name}_study.csv", ["resolution", "metric", "value"], rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vexleb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario", help="path to the scenario JSON file")
    runp.add_argument("--resolutions", default=None,
                      help="comma-separated resolutions, e.g. 64,256,1024")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out-dir", default="out")
    runp.add_argument("--format", choices=("json", "csv", "both"), default="both")
    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            scenario = load_scenario(args.scenario)
        except ValidationError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        res = None
        if args.resolutions:
            try:
                res = [int(r) for r in args.resolutions.split(",")]
            except ValueError:
                sys.stderr.write("error: --resolutions expects comma-separated integers\n")
                return 2
        return run(scenario, args.out_dir, fmt=args.format, resolutions=res, seed=args.seed)
    return 1


if __name__ == "__main__":
    sys.exit(main())
