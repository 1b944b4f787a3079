"""cagewarp benchmark: one closed-loop caller per workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): deform_pair, fit_cage, train_toy and
transfer_cli.  A single caller issues one call at a time and waits for it,
with the library on its default threading.  Every call's output is checked
(step count, finite losses, stored reference values, bitwise repeatability);
a call that raises or fails a check counts in ``failed``.

``--trace 0`` runs the workload in ``PROCESSES`` fresh processes, one after
another, each measuring ``--seconds / PROCESSES`` seconds, and pools their
calls.  Heap layout and page-fault counts differ from process to process,
so pooling several processes keeps one unlucky process from setting the
result.  It reports the end-to-end metrics:

* setup_s      median over the processes of: importing cagewarp, generating
               the inputs and one warm-up call
* step_ms_p50  median over calls of call wall / steps (a command is one step)
* cmd_s_p50    median wall of one call or command
* peak_rss_mb  largest ru_maxrss of the processes

``--trace 1`` alternates untraced and traced calls in this process for
``--seconds`` and reports per-layer metrics from spans recorded around each
layer's public functions (see ``spans.py``); the spans are written to
``benchmarks/.out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--make-reference`` recomputes
the stored reference values in ``reference.json`` instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
REFERENCE = HERE / "reference.json"
PROCESSES = 3
RUN_LIMIT_S = 170
WORKLOAD_NAMES = ("deform_pair", "fit_cage", "train_toy", "transfer_cli")

END_TO_END_UNITS = {"setup_s": "s", "step_ms_p50": "ms", "cmd_s_p50": "s",
                    "peak_rss_mb": "MiB"}


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
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


def provenance(name: str, seed: int, index: int) -> dict:
    import numpy
    import scipy
    from cagewarp import runtime

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "kdtree_workers": runtime.kdtree_workers(),
        "workload": name,
        "seed": seed,
        "input_index": index,
    }


def load_reference(name: str, index: int):
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(name, {}).get(str(index))


class Call:
    """One timed call: wall seconds, CPU seconds and its check problems."""

    def __init__(self, workload, reference, tracer=None):
        from workloads import check

        span = (tracer.span(workload.root_span) if tracer
                else contextlib.nullcontext())
        self.outcome = None
        if tracer:
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with span:
                result = workload.call(workload.budget)
        except Exception as exc:  # a failing call is counted, the run goes on
            self.problems = [f"raised {type(exc).__name__}: {exc}"]
            return
        finally:
            self.wall = time.perf_counter() - t0
            self.cpu = time.process_time() - cpu0
            if tracer:
                tracer.uninstall()
        try:
            self.outcome = workload.outcome(result)
        except Exception as exc:  # unreadable output fails the check
            self.problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
            return
        self.problems = check(self.outcome, workload.budget, reference,
                              workload.rtol)

    @property
    def steps(self) -> int:
        return self.outcome.steps if self.outcome else 0


def closed_loop(workload, reference, seconds, tracer=None):
    """Calls until ``seconds`` have passed; traced and untraced alternate
    when a tracer is given.  Returns (untraced calls, traced calls)."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(Call(workload, reference))
        if tracer:
            tracer.begin_call(len(traced))
            traced.append(Call(workload, reference, tracer))
    first = untraced[0].outcome
    for c in untraced + traced:
        if c.outcome and first and c.outcome.digest != first.digest:
            c.problems.append("output differs bitwise from the first call")
    return untraced, traced


@contextlib.contextmanager
def prepared(name: str, index: int, warm_up: bool = True):
    """A workload with its inputs generated, in a scratch directory that is
    removed afterwards; ``warm_up`` makes one one-step call first."""
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[name](index, workdir)
        workload.prepare()
        if warm_up:
            workload.call(1)  # every code path once
        yield workload
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def child(name: str, seed: int, seconds: float, t_start: float) -> dict:
    """One measuring process: set up, warm up, then the closed loop."""
    from workloads import POOL

    index = seed % POOL
    with prepared(name, index) as workload:
        setup_s = time.perf_counter() - t_start
        calls, _ = closed_loop(workload, load_reference(name, index), seconds)
    first = calls[0].outcome
    return {
        "setup_s": setup_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "budget": workload.budget,
        "digest": first.digest if first else None,
        "calls": [[c.wall, c.problems] for c in calls],
    }


def run_end_to_end(name: str, seed: int, seconds: float):
    """Pooled calls and end-to-end metrics of ``PROCESSES`` fresh processes."""
    results = []
    t0 = time.perf_counter()
    for _ in range(PROCESSES):
        done = subprocess.run(
            [sys.executable, __file__, "--child", "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds / PROCESSES)],
            capture_output=True, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - t0)),
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"measuring process exited with "
                               f"{done.returncode}")
        results.append(json.loads(done.stdout.splitlines()[-1]))
    calls = []
    for r in results:
        if r["digest"] != results[0]["digest"]:
            for c in r["calls"]:
                c[1].append("output differs bitwise between processes")
        calls.extend(r["calls"])
    budget = results[0]["budget"]
    ok = [wall for wall, problems in calls if not problems] or [
        wall for wall, _ in calls]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results),
                    len(results)),
        "step_ms_p50": (statistics.median(1e3 * w / budget for w in ok),
                        len(ok)),
        "cmd_s_p50": (statistics.median(ok), len(ok)),
        "peak_rss_mb": (max(r["rss_mib"] for r in results), len(results)),
    }
    return ([problems for _, problems in calls],
            {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in metrics.items()})


def run_traced(name: str, seed: int, seconds: float, prov: dict):
    """Per-layer metrics from alternating untraced and traced calls."""
    import spans
    from workloads import POOL

    index = seed % POOL
    tracer = spans.Tracer()
    with prepared(name, index) as workload:
        untraced, traced = closed_loop(workload, load_reference(name, index),
                                       seconds, tracer)
    metrics = spans.layer_metrics(tracer, sum(c.steps for c in traced))
    metrics["tracing.overhead_frac"] = (
        statistics.median(c.wall for c in traced)
        / statistics.median(c.wall for c in untraced) - 1.0)
    metrics["process.cpu_util"] = (sum(c.cpu for c in untraced)
                                   / sum(c.wall for c in untraced))

    # A call's span self times add up to its root span, which must match
    # the call's wall to within the tracing overhead.
    per_call = [0.0] * len(traced)
    for s, t in zip(tracer.spans, spans.self_times(tracer.spans)):
        per_call[s[spans.CALL]] += t
    gap = max(abs(c.wall - t) / c.wall for c, t in zip(traced, per_call))
    if gap > max(metrics["tracing.overhead_frac"], 0.01):
        traced[0].problems.append(f"span self times miss the wall by {gap:.2%}")

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w") as fh:
        json.dump({"provenance": prov, "absent": tracer.absent,
                   "counts": dict(tracer.counts), "self_time_gap": gap,
                   "fields": ["name", "start", "end", "parent", "call",
                              "error"],
                   "spans": tracer.spans}, fh)
    n = len(traced)
    return ([c.problems for c in untraced + traced],
            {k: (v, spans.UNITS[k], n) for k, v in sorted(metrics.items())})


def make_reference(names) -> int:
    from workloads import POOL, WORKLOADS, check_sanity

    data = {}
    if REFERENCE.is_file():
        with open(REFERENCE) as fh:
            data = json.load(fh)
    bad = 0
    for name in names:
        budget = WORKLOADS[name].budget
        data[name] = {}
        for index in range(POOL):
            with prepared(name, index, warm_up=False) as workload:
                out = workload.outcome(workload.call(budget))
            problems = check_sanity(out, budget)
            if problems:
                print(f"{name} #{index}: {'; '.join(problems)}",
                      file=sys.stderr)
                bad += 1
            data[name][str(index)] = {"values": out.values,
                                      "fingerprint": out.fingerprint}
            print(f"{name} #{index}: {out.values}", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--make-reference", action="store_true",
                        help="recompute reference.json for --workload "
                             "(all workloads without it)")
    args = parser.parse_args(argv)
    if not (SRC / "cagewarp" / "__init__.py").is_file():
        print(f"error: cagewarp sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if not args.make_reference and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))

    if args.make_reference:
        return make_reference(
            [args.workload] if args.workload else WORKLOAD_NAMES)
    if args.child:
        print(json.dumps(child(args.workload, args.seed, args.seconds,
                               t_start)))
        return 0

    from workloads import POOL

    name, index = args.workload, args.seed % POOL
    prov = provenance(name, args.seed, index)
    if args.trace:
        problems, metrics = run_traced(name, args.seed, args.seconds, prov)
    else:
        problems, metrics = run_end_to_end(name, args.seed, args.seconds)

    failed = [p for p in problems if p]
    for p in failed[:5]:
        print(f"failed call: {'; '.join(p)}", file=sys.stderr)
    print(f"workload {name}  seed {args.seed} (input set {index} of {POOL})"
          f"  trace {args.trace}  closed loop, 1 caller")
    for key, (value, unit, n) in metrics.items():
        print(f"  {key:<30} {value:>14.6g} {unit:<6} n={n}")
    print(f"  {'failed_frac':<30} {len(failed) / len(problems):>14.6g}"
          f" {'ratio':<6} n={len(problems)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
