#!/usr/bin/env python3
"""Benchmark of the mubcurves pipeline; see bench/README.md.

    python3 bench/run.py --workload atlas --seed 1 --seconds 25 --trace 0

One client runs a seeded cycle of ops in closed loop (each op starts when
the previous one has returned), checks every answer against `oracle`, and
prints the metrics by name with their units. The last line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
A JSON record of the run (environment, raw samples, spans of the first
traced op) is written under bench/results/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads
from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5   # this process's set-up plus four fresh interpreters
TAIL_BEYOND = 10    # the tail percentile is the highest with ten samples beyond it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> (unit, where the per-op value comes from)
PER_LAYER = {
    "field.build_s": ("s/op", ("self_s", "field.build")),
    "field.builds": ("count/op", ("calls", "field.build")),
    "field.linalg_s": ("s/op", ("self_s", "field.linalg")),
    "field.linalg_calls": ("count/op", ("calls", "field.linalg")),
    "curves.enumerate_s": ("s/op", ("self_s", "curves.enumerate")),
    "curves.enumerated": ("count/op", ("counts", "curves.enumerated")),
    "curves.admissible_s": ("s/op", ("self_s", "curves.admissible")),
    "curves.admissible_calls": ("count/op", ("calls", "curves.admissible")),
    "curves.classify_s": ("s/op", ("self_s", "curves.classify")),
    "curves.classify_calls": ("count/op", ("calls", "curves.classify")),
    "curves.forms_s": ("s/op", ("self_s", "curves.forms")),
    "pauli.partition_s": ("s/op", ("self_s", "pauli.partition")),
    "pauli.partition_calls": ("count/op", ("calls", "pauli.partition")),
    "pauli.transform_s": ("s/op", ("self_s", "pauli.transform")),
    "bundles.build_s": ("s/op", ("self_s", "bundles.build")),
    "bundles.search_s": ("s/op", ("self_s", "bundles.search")),
    "bundles.disjoint_tests": ("count/op", ("counts", "bundles.disjoint_tests")),
    "bundles.found": ("count/op", ("counts", "bundles.found")),
    "verify.eigenbasis_s": ("s/op", ("self_s", "verify.eigenbasis")),
    "verify.eigenbases": ("count/op", ("calls", "verify.eigenbasis")),
    "verify.trace_orth_s": ("s/op", ("self_s", "verify.trace_orth")),
    "verify.trace_orth_calls": ("count/op", ("calls", "verify.trace_orth")),
    "verify.trace_orth_pairs": ("count/op", ("counts", "verify.trace_orth_pairs")),
    "verify.overlap_s": ("s/op", ("self_s", "verify.overlap")),
    "verify.overlaps": ("count/op", ("counts", "verify.overlaps")),
    "verify.bundle_s": ("s/op", ("self_s", "verify.bundle")),
    "cli.self_s": ("s/op", ("self_s", "cli.self")),
    "cli.parse_s": ("s/op", ("self_s", "cli.parse")),
    "cli.output_bytes": ("B/op", ("counts", "cli.output_bytes")),
}


def setup(workload: str, seed: int, workdir: str):
    """Import the package from this checkout's source, build the fields and
    the seeded op cycle. Returns (scaled seconds, raw seconds, workload)."""
    clock = Clock()
    for _ in range(3):
        clock.sample()
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import mubcurves
    from mubcurves import bundles, cli, field, verify

    if Path(mubcurves.__file__).resolve().parent != SRC / "mubcurves":
        raise SystemExit(f"error: imported mubcurves from {mubcurves.__file__}, not {SRC}")
    lib = SimpleNamespace(bundles=bundles, cli=cli, field=field, verify=verify)
    wl = workloads.build(lib, workload, seed, workdir)
    t1 = perf_counter()
    for _ in range(3):
        clock.sample()
    return (t1 - t0) * clock.scale(t0, t1), t1 - t0, wl


def setup_in_fresh_interpreter(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True,
                          cwd=ROOT)
    scaled, raw = done.stdout.split()[-2:]
    return float(scaled), float(raw)


def measure(cycle, seconds: float, clock: Clock, whole_cycles: bool, min_ops: int = 1,
            tracer=None):
    """Run ops from the cycle until `seconds` have passed (and, if asked, the
    cycle is complete). Only the program call is timed, not the check.
    A sample's `raw_s` is its latency in program time, `s` that scaled by
    the clock."""
    samples, first, intervals = [], None, []
    clock.sample()
    start = perf_counter()
    i = 0
    with clock.sampling():
        while i < min_ops or perf_counter() - start < seconds or (
                whole_cycles and i % len(cycle)):
            op = cycle[i % len(cycle)]
            run = op.run if tracer is None else functools.partial(tracer.op(op.kind), op.run)
            if tracer is not None:
                tracer.record = i == 0
            w0, p0 = perf_counter(), clock.now()
            res = run()
            latency, w1 = clock.now() - p0, perf_counter()
            if tracer is not None:
                tracer.record = False
                tracer.counts["cli.output_bytes"] += len(res.out.encode())
            if i == 0:
                first = res.value
            intervals.append((w0, w1))
            problem = op.check(res)
            samples.append({"op": i % len(cycle), "kind": op.kind, "raw_s": latency,
                            "wellformed": op.wellformed, "problem": problem})
            i += 1
    clock.sample()
    for sample, (w0, w1) in zip(samples, intervals):
        sample["s"] = sample["raw_s"] * clock.scale(w0, w1)
    return samples, first


def end_to_end(samples, setup_samples, peak_rss_mb):
    lat = sorted(s["s"] for s in samples)
    n = len(lat)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": lat[n - TAIL_BEYOND - 1] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    tail = {"percentile": 100 * (n - TAIL_BEYOND) / n, "samples": n}
    return values, tail


def per_layer(tracer, ops: int, scale: float, overhead: float):
    """Per-op layer values; self times take the traced ops' clock scale."""
    values = {}
    for name, (_, (table, key)) in PER_LAYER.items():
        values[name] = getattr(tracer, table)[key] / ops * (scale if table == "self_s" else 1)
    tests = values["bundles.disjoint_tests"]
    values["bundles.found_per_ktest"] = values["bundles.found"] / tests * 1e3 if tests else 0.0
    values["trace.overhead_x"] = overhead
    return values


def layer_unit(name: str) -> str:
    return {"bundles.found_per_ktest": "1/ktest", "trace.overhead_x": "ratio"}.get(
        name) or PER_LAYER[name][0]


def environment(seed: int) -> dict:
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "host": platform.node(), "platform": platform.platform(),
           "seed": seed, "commit": None, "src_modified": None}
    try:
        git = ["git", "-C", str(ROOT)]
        top = subprocess.run(git + ["rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            env["commit"] = lines[1]
            status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                    capture_output=True, text=True, timeout=20)
            env["src_modified"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def write_record(args, record: dict) -> Path:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="mubcurves benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mubcurves" / "__init__.py").is_file():
        print(f"error: no mubcurves source under {SRC}", file=sys.stderr)
        return 2
    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as workdir:
        *setup_s, wl = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(*map(repr, setup_s))
            return 0
        setups = [setup_s] + [setup_in_fresh_interpreter(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        record = {"args": vars(args), "env": environment(args.seed),
                  "setup_samples_s": [s for s, _ in setups],
                  "setup_samples_raw_s": [r for _, r in setups],
                  "cycle": [op.kind for op in wl.cycle]}
        clock = Clock()
        if args.trace:
            base, first = measure(wl.cycle, args.seconds / 2, clock, whole_cycles=True)
            tracer = spans.Tracer(now=clock.now)
            tracer.install()
            try:
                traced, _ = measure(wl.cycle, args.seconds / 2, clock, whole_cycles=True,
                                    tracer=tracer)
            finally:
                tracer.uninstall()
            samples = base + traced
            overhead = (sum(s["s"] for s in traced) / len(traced)) / (
                sum(s["s"] for s in base) / len(base))
            scale = sum(s["s"] for s in traced) / sum(s["raw_s"] for s in traced)
            metrics = per_layer(tracer, len(traced), scale, overhead)
            units = {name: layer_unit(name) for name in metrics}
            record.update(untraced_samples=base, traced_samples=traced,
                          layer_time_scale=scale,
                          self_s=dict(tracer.self_s), calls=dict(tracer.calls),
                          counts=dict(tracer.counts),
                          first_op_spans=[dict(zip(("id", "parent", "name", "start", "end"), s))
                                          for s in tracer.spans])
        else:
            samples, first = measure(wl.cycle, args.seconds, clock, whole_cycles=False,
                                     min_ops=TAIL_BEYOND + 1)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, tail = end_to_end(samples, record["setup_samples_s"], peak_rss_mb)
            units = END_TO_END
            raw, _ = end_to_end([{"s": s["raw_s"]} for s in samples],
                                record["setup_samples_raw_s"], peak_rss_mb)
            record.update(samples=samples, tail=tail, raw_metrics=raw)
        record["calibration"] = [(t - clock.times[0], k)
                                 for t, k in zip(clock.times, clock.kernel_s)]
        post_problem = wl.post_check(first) if wl.post_check else None
        defects = {}
        for label, op in wl.probes:
            defects[label] = op.check(op.run())

    failed = [s for s in samples if s["problem"]]
    correct = post_problem is None and all(not s["wellformed"] for s in failed)
    record.update(metrics=metrics, correct=correct, attempted=len(samples),
                  failed=len(failed), failed_frac=len(failed) / len(samples),
                  post_check_problem=post_problem, known_defects=defects)
    path = write_record(args, record)

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"host {env['host']}  commit {env['commit']}")
    unscaled = record.get("raw_metrics", {})
    for name, value in metrics.items():
        raw = f"  (unscaled {unscaled[name]:.6f})" if unscaled.get(name, value) != value else ""
        print(f"  {name:<26} {value:>16.6f} {units[name]}{raw}")
    if not args.trace:
        print(f"  latency tail is p{record['tail']['percentile']:.1f} "
              f"of {record['tail']['samples']} samples")
    print(f"  failed_frac {record['failed_frac']:.6f} ({len(failed)} of {len(samples)})")
    for problem in sorted({s["problem"] for s in failed}):
        print(f"  failure: {problem}")
    for label, problem in defects.items():
        print(f"  known defect {label}: " + (f"still present ({problem})" if problem else "fixed"))
    if post_problem:
        print(f"  post-run check failed: {post_problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
