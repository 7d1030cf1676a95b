"""kleinfour benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload census|verify_table|identity \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

Run from the repository root.  The package is used from ``src/`` through
PYTHONPATH, as the tests do; nothing needs installing.

With ``--trace 0`` (timed run) the command repeats whole passes of the
workload, each in a fresh interpreter, while the next pass is expected to
end within ``--seconds``; the first pass always runs.  It prints the
end-to-end metrics.  With ``--trace 1`` it runs an untraced and a traced
pass side by side, then the layer microbenchmarks, and prints the per-layer
metrics.  Times are scaled by the speed probe described in worker.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
makes the command exit with code 1; a missing ``src/kleinfour`` or a worker
that crashes makes it exit with code 2 and print no result.  The full record
of a run (machine, seed, every raw value) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("census", "verify_table", "identity")
SETUP_PROBES = 5        # extra set-up-only processes per timed run
RUN_LIMIT_S = 175       # a run must end within 180 s

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
}

_FIELD_M = (1, 2, 6, 12, 16, 24)
PER_LAYER = {
    **{f"field.mul_ns.m{m}": "ns" for m in _FIELD_M},
    **{f"field.inv_ns.m{m}": "ns" for m in _FIELD_M},
    "field.mul_calls": "count",
    "field.inv_calls": "count",
    "poly.mul_calls": "count",
    "poly.divmod_calls": "count",
    "poly.factor_calls": "count",
    "poly.factor_s": "s",
    "poly.factor_cache_hit_ratio": "ratio",
    "poly.embedding_s": "s",
    "poly.factor_us": "us",
    "poly.self_s": "s",
    "ratfun.init_calls": "count",
    "ratfun.add_calls": "count",
    "ratfun.pole_divisor_s": "s",
    "ratfun.principal_parts_s": "s",
    "ratfun.self_s": "s",
    "ascurve.reduce_calls": "count",
    "ascurve.reduce_misses": "count",
    "ascurve.reduce_s": "s",
    "ascurve.reduce_us": "us",
    "ascurve.self_s": "s",
    "klein4.cover_attempts": "count",
    "klein4.cover_valid": "count",
    "klein4.cover_init_s": "s",
    "klein4.cover_us": "us",
    "klein4.self_s": "s",
    "census.enumerate_s": "s",
    "census.functions": "count",
    "census.pairs_tried": "count",
    "census.covers_distinct": "count",
    "census.dedup_ratio": "ratio",
    "census.cells": "count",
    "census.self_s": "s",
    "realize.calls": "count",
    "realize.realizable_s": "s",
    "realize.self_s": "s",
    "construct.calls": "count",
    "construct.construct_s": "s",
    "construct.witness_field_bits_max": "bits",
    "construct.self_s": "s",
    "zeta.verify_s": "s",
    "zeta.count_points_calls": "count",
    "zeta.count_points_s": "s",
    "zeta.count_points_cover_calls": "count",
    "zeta.count_points_cover_s": "s",
    "zeta.points_evaluated": "count",
    "zeta.repeat_counts": "count",
    "zeta.lpoly_s": "s",
    **{f"zeta.count_ns_per_point.m{m}": "ns" for m in (6, 12, 16)},
    "zeta.self_s": "s",
    "trace.traced_run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.span_records": "count",
}


class WorkerFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def start(cfg):
    """Start one fresh worker interpreter; returns (start time, process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    began = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    return began, proc


def finish(cfg, started, deadline):
    """Wait for a worker started by start() and return its parsed result."""
    began, proc = started
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{cfg['mode']} worker ran past the time limit") \
            from e
    wall = time.monotonic() - began
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{cfg['mode']} worker exited with "
                           f"{proc.returncode}:\n{err[-3000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if "setup_done" in result:
        result["setup_wall_s"] = result.pop("setup_done") - began
        result["setup_s"] = (result["setup_wall_s"] * PROBE_REF_S
                             / result["probe_s"])
    return result


def spawn(cfg, deadline):
    """Run one fresh worker interpreter to its end."""
    return finish(cfg, start(cfg), deadline)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p % at or below it."""
    v = sorted(values)
    return v[max(0, math.ceil(p / 100 * len(v)) - 1)]


def timed_run(cfg, seconds, deadline):
    setups = [spawn({**cfg, "mode": "setup"}, deadline)
              for _ in range(SETUP_PROBES)]
    end = time.monotonic() + seconds
    passes = []
    while True:
        passes.append(spawn({**cfg, "mode": "pass"}, deadline))
        setups.append(passes[-1])
        expected = statistics.median(p["wall_s"] for p in passes)
        if time.monotonic() + expected > end:
            break
    latencies = [it["ms"] for p in passes for it in p["items"]]
    metrics = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "item_p50_ms": percentile(latencies, 50),
        "item_p90_ms": percentile(latencies, 90),
    }
    return passes, metrics, {"setups": [
        {k: s[k] for k in ("setup_s", "setup_wall_s", "probe_s")}
        for s in setups]}


def traced_run(cfg, deadline):
    """An untraced and a traced pass side by side, then the micros.

    The two passes run at the same time, one per core, so that a slow host
    cannot push the census past the time limit.  Each scales its times by
    its own speed probe, which also absorbs the load of the other.
    """
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{cfg['workload']}-seed{cfg['seed']}-spans.json"
    configs = [{**cfg, "mode": "pass"},
               {**cfg, "mode": "pass", "trace": True, "spans": str(spans)}]
    running = [start(c) for c in configs]
    try:
        untraced, traced = [finish(c, r, deadline)
                            for c, r in zip(configs, running)]
    finally:
        for _, proc in running:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    metrics = dict(traced.pop("layers"))
    micro = spawn({**cfg, "mode": "micro"}, deadline)
    metrics.update((k, v) for k, v in micro.items() if k != "wall_s")
    metrics["trace.traced_run_s"] = traced["run_s"]
    metrics["trace.untraced_run_s"] = untraced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    return [untraced, traced], metrics, {"spans_file": str(spans)}


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "commit": commit}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--golden", default=str(BENCH / "golden.json"),
                    help="exact fingerprints the outputs are checked against")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "kleinfour" / "__init__.py").is_file():
        print(f"no kleinfour package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cfg = {"workload": args.workload, "seed": args.seed, "size": args.size,
           "golden": os.path.abspath(args.golden), "trace": False}
    try:
        if args.trace:
            passes, metrics, extra = traced_run(cfg, deadline)
            units = PER_LAYER
        else:
            passes, metrics, extra = timed_run(cfg, args.seconds, deadline)
            units = END_TO_END
    except WorkerFailed as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 2

    errors = [it["error"] for p in passes for it in p["items"] if it["error"]]
    pass_errors = sorted({p["pass_error"] for p in passes if p["pass_error"]})
    attempted = sum(len(p["items"]) for p in passes)
    correct = not errors and not pass_errors
    for e in pass_errors + errors[:10]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "error_rate": len(errors) / attempted,
              "pass_errors": pass_errors, **extra,
              "passes": passes,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"error_rate = {record['error_rate']:.6g} over {attempted} items; "
          f"record in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
