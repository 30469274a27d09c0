#!/usr/bin/env python3
"""twistlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; twistlab is imported from the
checkout's `src`.  The process here only orchestrates: it warms the file
cache with a throwaway import, and starts one worker interpreter that
builds the workload, runs the closed timed loop (one caller, waiting for
each result) for whole rounds until `--seconds` have passed and at least
100 operations completed, checks the outputs and reports.  setup_s is
the median set-up time of the worker and of fresh interpreters started
before and after it.  With `--trace 1` the worker runs the untraced loop
and then a traced one, and reports the per-layer metrics and the tracing
overhead instead of the end-to-end metrics.

The last line of standard output is the result, a JSON object with keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("products-n2", "wavefront-n2", "cli-jobs")
THREADS = "1"           # BLAS/OpenMP threads; the reference machine has 2 cores
MIN_OPS = 100           # so that at least ten latencies lie beyond p90
SETUP_PROBES = 1        # fresh interpreters timed for setup_s before the worker, and as
                        # many after it, so the set-ups sample the machine a run apart
CHILD_TIMEOUT = 160.0   # seconds; the whole run must end within 180


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[key] = THREADS
    env.pop("TWISTLAB_THREADS", None)   # the program runs with threads=None
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "worker"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# orchestration (no numpy or twistlab import in this process)

def _child(args, role: str) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    return subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)


def _until_ready(proc: subprocess.Popen, t0: float) -> float:
    for line in proc.stdout:
        if line.strip() == "READY":
            return time.perf_counter() - t0
    raise RuntimeError(f"{proc.args[-1]} process exited before its inputs were ready")


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.args[-1]} process exited with code {proc.returncode}")
    return out


def _probe_setups(args, procs: list, deadline: float) -> list[float]:
    """Set-up times of fresh interpreters that build the inputs and exit.
    Traced runs report no setup_s and take none."""
    setup = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _child(args, "probe")
        procs.append(proc)
        setup.append(_until_ready(proc, t0))
        _finish(proc, deadline)
    return setup


def orchestrate(args) -> int:
    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"twistlab sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT
    procs = []
    try:
        # untimed, so the file cache is equally warm for every timed set-up
        subprocess.run([sys.executable, "-c", "import twistlab"], cwd=ROOT, env=child_env(),
                       check=True, timeout=60)
        setup = _probe_setups(args, procs, deadline)
        t0 = time.perf_counter()
        worker = _child(args, "worker")
        procs.append(worker)
        setup.append(_until_ready(worker, t0))
        lines = _finish(worker, deadline).strip().splitlines()
        result = json.loads(lines[-1])
        setup += _probe_setups(args, procs, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError, IndexError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
    text = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# worker

def _build(args, role: str):
    import twistlab  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS as BUILDERS

    scratch = OUT / args.workload / role
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    return BUILDERS[args.workload](args.seed, scratch)


def timed_loop(wl, seconds: float, reference: list | None, tracer=None) -> dict:
    """Whole rounds until `seconds` have passed and MIN_OPS completed.

    With no reference, the first round's outputs and fingerprints are
    kept; every later round (and every round when a reference is given)
    must reproduce the reference fingerprints.

    Each operation is timed in process CPU time.  The program runs on
    one thread here (threads=None, BLAS/OpenMP pinned to one), so this is
    its wall time without the time the virtual machine was descheduled
    (steal), which made wall-time figures twice as spread.  `busy`, their
    sum, leaves out the fingerprinting done between the timed calls.
    """
    from workloads import Failed

    latencies, first, mismatched, raised = [], [], set(), 0
    fingerprints = reference
    done = 0
    t0 = time.perf_counter()
    while True:
        round_fps = []
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_id = done
            s = time.process_time()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                out = Failed(f"{op.name}: {type(exc).__name__}: {exc}")
            latencies.append(time.process_time() - s)
            done += 1
            if isinstance(out, Failed):
                raised += 1
                fp = out
            else:
                fp = wl.fingerprint(i, out)
            if fingerprints is None:
                first.append(out)
                round_fps.append(fp)
            elif fp != fingerprints[i]:
                mismatched.add(op.name)
        if fingerprints is None:
            fingerprints = round_fps
        rounds = done // len(wl.ops)
        if time.perf_counter() - t0 >= seconds and done >= MIN_OPS:
            break
    return dict(latencies=latencies, busy=sum(latencies), rounds=rounds, first=first,
                fingerprints=fingerprints, mismatched=mismatched, raised=raised)


def judge(wl, run: dict) -> tuple[list[str], int]:
    """Problems with the outputs, and failed operations per round."""
    from workloads import Failed

    outputs = run["first"]
    statuses = [out if isinstance(out, Failed) else None for out in outputs]
    problems = []
    if any(statuses):
        problems.append("outputs not checked: an operation raised in the first round")
    else:
        try:
            statuses = wl.check(outputs)
        except Exception as exc:  # a crashing check is a failed check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    problems += [s for s in statuses if s is not None and not isinstance(s, Failed)]
    problems += [f"{name}: output differs between rounds" for name in sorted(run["mismatched"])]
    failed = sum(isinstance(s, Failed) for s in statuses)
    return problems, failed


def worker(args) -> int:
    import resource

    wl = _build(args, "worker")
    print("READY", flush=True)
    run = timed_loop(wl, args.seconds, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = run["rounds"] * len(wl.ops)
    jobs_per_s = (attempted - run["raised"]) / run["busy"]
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = timed_loop(wl, args.seconds, run["fingerprints"], tracer)
        finally:
            tracer.restore()
        ops = traced["rounds"] * len(wl.ops)
        metrics = tracing.layer_metrics(tracer, ops)
        metrics["trace.overhead_jobs_per_s"] = {
            "value": jobs_per_s - (ops - traced["raised"]) / traced["busy"], "unit": "1/s"}
        run["mismatched"] |= traced["mismatched"]
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "operations": ops,
                      "op_names": [op.name for op in wl.ops]})
    else:
        lat_ms = sorted(1e3 * x for x in run["latencies"])
        deciles = statistics.quantiles(lat_ms, n=10)
        metrics = {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_p90_ms": {"value": deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    problems, failed_per_round = judge(wl, run)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    failed = run["rounds"] * failed_per_round
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def probe(args) -> int:
    _build(args, "probe")
    print("READY", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "worker":
        return worker(args)
    if args.role == "probe":
        return probe(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
