"""Run-to-run spread of the end-to-end metrics, the way it is judged.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workload NAME ...] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, for
each workload, and reports per metric the median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  With ``--out`` the set is appended to the sets
already in FILE, with the machine facts of the runs, and every set's
medians are compared with the first set's.

Exits 1 if a run is incorrect, if a spread other than that of ``setup_s``
exceeds its metric's bound, or if a median moved in the worse direction
by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    table, machine, over = {}, None, []
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            details, result = run_once(workload, seed, bench["run_seconds"])
            machine = details["machine"]
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: {details['problems']}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        table[workload] = {name: spread(vals) for name, vals in values.items()}
        for name, row in table[workload].items():
            flag = "" if row["iqr_share"] <= bounds[name] / 3 else "  (above a third of the bound)"
            if row["iqr_share"] > bounds[name] and name != "setup_s":
                flag = "  OVER BOUND"
                over.append(f"{workload} {name} spread")
            print(f"{workload:18s} {name:14s} median {row['median']:.4g} "
                  f"iqr/median {row['iqr_share']:.3f} bound {bounds[name]}{flag}", flush=True)
    if args.out:
        out = Path(args.out)
        sets = json.loads(out.read_text())["sets"] if out.exists() else []
        sets.append({"runs": args.runs, "first_seed": args.first_seed, "spread": table})
        shifts = median_shifts(sets, bench)
        for line in shifts:
            print(line)
        over += [line for line in shifts if line.endswith("OVER BOUND")]
        out.write_text(json.dumps({
            "machine": machine,
            "note": "every number comes from one process on a shared 2-CPU virtual machine, one run at a time",
            "sets": sets,
            "median_shift_vs_first_set": shifts,
        }, indent=1, sort_keys=True) + "\n")
    if over:
        print("over bound: " + "; ".join(over), file=sys.stderr)
        return 1
    return 0


def median_shifts(sets: list[dict], bench: dict) -> list[str]:
    """How far each later set's medians moved, in the worse direction."""
    lines = []
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        for later in sets[1:]:
            for workload, table in later["spread"].items():
                first = sets[0]["spread"].get(workload, {}).get(name)
                if first is None:
                    continue
                worse = sign * (table[name]["median"] - first["median"]) / first["median"]
                status = "ok" if worse <= metric["bound"] else "OVER BOUND"
                lines.append(f"{workload} {name}: seeds {later['first_seed']}+ vs "
                             f"{sets[0]['first_seed']}+ worse by {worse:+.3f} "
                             f"(bound {metric['bound']}) {status}")
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
