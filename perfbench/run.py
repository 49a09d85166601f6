"""The synself benchmark: one workload per fresh process, metrics by name and unit.

    python3 perfbench/run.py --workload pipeline16 --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics.
``--trace 1`` runs it twice, untraced and then traced, and prints the
per-layer metrics of the traced run and the tracing overhead (traced minus
untraced ``pipeline_s``). ``--workload all`` runs every workload in turn.
``--seconds`` sets the number of train steps through each workload's nominal
step time. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics in
``workloads.PRINTED_ONLY`` are printed but left out of ``metrics``. Timing
metrics are stated at the speed of a reference machine (``workloads.Pace``);
each is printed as measured too, with the run's slowdown. Span files
and the digest store go to ``.perfbench-out/`` in the checkout.

Tests of the benchmark itself: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # every worker of one invocation ends within this
# One OpenBLAS thread unless the caller sets a count. On a 2-vCPU x86-64 VM a
# second thread made no train step or embedding faster (the matrix products
# are small; im2col copies dominate), and it made train steps up to 2.3x
# slower whenever anything else ran on the other core.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}


def _worker(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_header(r: dict, trace: int) -> None:
    print(f"== {r['workload']}  seed={r['seed']}  seconds={r['seconds']:g}  trace={trace}  "
          f"passes={r['passes']}, the first with {r['steps']} train steps ({r['timed_steps']} timed)")
    print("provenance: " + json.dumps(r["provenance"], sort_keys=True))
    print("digests: " + json.dumps(r["digests"], sort_keys=True))
    for failure in r["failures"]:
        print(f"FAILED {failure}")


def report_end_to_end(r: dict) -> dict:
    """Print every end-to-end metric by name and unit; return the metrics of the JSON result line."""
    import workloads

    _print_header(r, 0)
    metrics = {}
    for metric, unit, _ in workloads.END_TO_END:
        if metric not in r["metrics"]:
            print(f"  {metric:<24} n/a {unit}  ({r['workload']} does not embed or analyze)")
            continue
        value = r["metrics"][metric]
        note = f"  ({r['failed']} failed of {r['attempted']} attempted)" if metric == "failed_ops_frac" else ""
        if metric in workloads.TIMINGS:
            note = f"  (measured {_fmt(r['measured'][metric])} {unit})"
        print(f"  {metric:<24} {_fmt(value)} {unit}{note}")
        # a non-finite value (from a failed run) is left out rather than read as a number
        if metric not in workloads.PRINTED_ONLY and math.isfinite(value):
            metrics[metric] = {"value": value, "unit": unit}
    print(f"  slowdown {r['slowdown']:.4f}: median of {r['pace_samples']} reference times / "
          f"{workloads.REF_S} s; timings are stated at the reference speed")
    for key, values in r["samples"].items():
        if values:
            print(f"  samples of {key}: n={len(values)} median={_fmt(statistics.median(values))} "
                  f"min={_fmt(min(values))} max={_fmt(max(values))}")
    return metrics


def report_per_layer(r: dict, base: dict) -> dict:
    """Print every per-layer metric of traced run r and its overhead against untraced run base."""
    import spans

    _print_header(r, 1)
    for failure in base["failures"]:
        print(f"FAILED (untraced run) {failure}")
    layer = dict(r["layer"])
    layer["trace.overhead_s"] = r["metrics"]["pipeline_s"] - base["metrics"]["pipeline_s"]
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / base["metrics"]["pipeline_s"]
    print("per-layer metrics of the traced run; self_s = span time minus its child spans;"
          " [computed] = counted from operand shapes and sampler results, not measured")
    metrics = {}
    for metric, unit, _, computed in spans.PER_LAYER:
        print(f"  {metric:<44} {_fmt(layer[metric])} {unit}{'  [computed]' if computed else ''}")
        metrics[metric] = {"value": layer[metric], "unit": unit}
    print(f"tracing overhead: traced pipeline_s {r['metrics']['pipeline_s']:.4f} s - untraced "
          f"{base['metrics']['pipeline_s']:.4f} s = {layer['trace.overhead_s']:.4f} s "
          f"({100 * layer['trace.overhead_frac']:.2f}%)")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: int, deadline: float):
    """Returns (attempted, failed, metrics) of one workload."""
    if not trace:
        r = _worker(name, seed, seconds, 0, deadline)
        return r["attempted"], r["failed"], report_end_to_end(r)
    base = _worker(name, seed, seconds, 0, deadline)
    r = _worker(name, seed, seconds, 1, deadline)
    return (r["attempted"] + base["attempted"], r["failed"] + base["failed"],
            report_per_layer(r, base))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "synself" / "__init__.py").is_file():
        print(f"no synself sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    import workloads

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or all")
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = measure(name, args.seed, args.seconds, args.trace, deadline)
        attempted += a
        failed += f
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
