"""Run the cayleyunits benchmark.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py                                  # all workloads, one seed each
    python3 benchmarks/run.py --runs 10 --trace 1 --record benchmarks/BENCH_<commit>.json

Every run of a workload happens in fresh child processes, one after
another: several that only set up (for the median ``setup_s``), then
one that measures (see ``workloads.py``). The metric names and units
are those of ``BENCHMARK.json`` at the root of the checkout. For one
workload and one run the last line of output is the result object
{"correct", "attempted", "failed", "metrics"}; otherwise a table per
workload is printed, with medians and quartile spreads over the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "workloads.py"
WORKLOADS = ("sweep", "cyclic_large", "cli_dense")
SETUP_ONLY_RUNS = 10  # with the measuring child's own set-up, eleven samples
TIME_LIMIT_S = 170.0  # a single run must exit within 180 s


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int, load_start) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
    }


def child(args: list[str], deadline: float) -> dict:
    """Run workloads.py in a fresh interpreter and read its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args], cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: set-up samples, then one measuring child."""
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        return child(base + ["--seconds", str(seconds), "--trace", "1"], deadline)
    # Half the set-up samples come before the measuring child and half
    # after it, so that they span the run's changes in machine speed.
    setups = [child(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_ONLY_RUNS // 2)]
    res = child(base + ["--seconds", str(seconds), "--trace", "0"], deadline)
    setups += [child(base + ["--setup-only"], deadline)["setup_s"]
               for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    res["metrics"]["setup_s"] = statistics.median(setups + [res["setup_s"]])
    return res


def result_line(res: dict, spec: list[dict]) -> dict:
    metrics = {}
    for m in spec:
        if m["name"] not in res["metrics"]:
            raise SystemExit(f"the workload did not report {m['name']}")
        metrics[m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--record", type=Path, help="write every figure to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cayleyunits" / "__init__.py").is_file():
        print(f"error: no cayleyunits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = os.getloadavg()

    if args.workload != "all" and args.runs == 1 and args.record is None:
        res = run_once(args.workload, args.seed, args.seconds, args.trace)
        print("machine " + json.dumps(machine(args.seed, load_start)))
        if res["first_failure"]:
            print(f"first failure: {res['first_failure']}")
        line = result_line(res, spec["per_layer" if args.trace else "end_to_end"])
        for name, m in line["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"failed_ratio = {res['failed'] / res['attempted']:.6g} ratio")
        print(json.dumps(line))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {"command": sys.argv, "seconds": args.seconds, "workloads": {}}
    attempted = failed = 0
    summary = {}
    for name in names:
        runs = [run_once(name, args.seed + i, args.seconds, 0) for i in range(args.runs)]
        entry = {"runs": runs, "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values),
                "spread": spread(values), "bound": m["bound"],
            }
        a, f = sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)
        entry["attempted"], entry["failed"], entry["failed_ratio"] = a, f, f / a
        attempted, failed = attempted + a, failed + f
        print(f"{name}: {args.runs} run(s), {a} executions, failed_ratio {f / a:.4g}")
        for mname, e in entry["end_to_end"].items():
            print(f"  {mname:16s} {e['median']:12.6g} {e['unit']:5s} "
                  f"spread {e['spread']:.3f} (bound {e['bound']})")
            summary[f"{name}.{mname}"] = {"value": e["median"], "unit": e["unit"]}
        summary[f"{name}.failed_ratio"] = {"value": f / a, "unit": "ratio"}
        if args.trace:
            traced = run_once(name, args.seed, args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            failed += traced["failed"]
            attempted += traced["attempted"]
            wall = traced["metrics"]["trace.wall_s"]
            print(f"  traced split over {traced['attempted'] // 2} operations "
                  f"(overhead x{traced['metrics']['trace.overhead_ratio']:.3f}):")
            for key, value in traced["metrics"].items():
                share = f"  {value / wall:6.1%}" if key.endswith(("self_s", "total_s")) else ""
                print(f"    {key:40s} {value:12.6g}{share}")
        record["workloads"][name] = entry
    record["machine"] = machine(args.seed, load_start)
    print("machine " + json.dumps(record["machine"]))
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
