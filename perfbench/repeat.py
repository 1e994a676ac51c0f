"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --workloads pose-sweep cli-cold --seeds 1 2 3 4 5 \
        --seconds 15 --trace 0 [--out results.json]

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of the median, the
figure BENCHMARK.json's bounds are compared against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the runs and summary as JSON here")
    args = p.parse_args()
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, check=True, capture_output=True, text=True,
                                   timeout=600).stdout.splitlines()
            result, machine = json.loads(lines[-1]), json.loads(lines[-2])["machine"]
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{wl} seed {seed}: incorrect run: {lines[-1]}")
            runs.append({"seed": seed, "result": result})
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, rel_iqr = spread(values)
            summary[name] = {"median": med, "rel_iqr": rel_iqr,
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
            print(f"  {wl:12s} {name:34s} median {med:14.6g}  IQR/median {rel_iqr:.4f}")
        report["workloads"][wl] = {"summary": summary, "runs": runs}
    report["machine"] = {k: v for k, v in machine.items() if k != "seed"}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
