"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/repeat.py --workloads deform_pair fit_cage \
        --seeds 1 2 3 4 5 --seconds 10 --trace 0 1 [--out POINT.json]

Each run is its own process, one after another.  For every trace mode,
workload and metric it prints the median, the quartiles
(``statistics.quantiles``, n=4) and the spread, (q3 - q1) / median.
``--out`` writes the same summary, with every run's values and
provenance, as one JSON trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    prov = [ln for ln in lines if ln.startswith("provenance ")]
    result["provenance"] = json.loads(prov[-1].split(" ", 1)[1]) if prov else {}
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1),
                        default=[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    point = {"seconds": args.seconds, "trace": {}}
    for trace in args.trace:
        point["trace"][str(trace)] = summary = {}
        for workload in args.workloads:
            runs = [one_run(workload, s, args.seconds, trace)
                    for s in args.seeds]
            metrics = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                                 **summarize(values), "values": values}
            summary[workload] = w = {
                "seeds": args.seeds,
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
                "provenance": runs[0]["provenance"],
            }
            print(f"{workload} trace {trace}: correct={w['correct']}"
                  f" failed={w['failed']}/{w['attempted']}")
            for name, m in metrics.items():
                print(f"  {name:<30} median {m['median']:<12.6g}"
                      f" q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
                      f" spread {m['spread']:.4f} {m['unit']}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
