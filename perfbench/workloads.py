"""Benchmark workloads: generate -> train -> embed -> analyze, with output checks.

``run`` executes one workload in this process. ``perfbench/run.py`` starts
this file as a fresh process per workload:

    python3 perfbench/workloads.py --workload pipeline16 --seed 0 --seconds 20 --trace 0

and it prints one JSON result line. The seed makes the phantom (the program's
only input); every other setting is the default a user gets, so the seed
never selects a code path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(SRC))

from synself import analysis, encoder, sampler, synthgen, trainer, volume_io  # noqa: E402

import spans  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_views_per_s", "views/s", "higher"),
    ("embed_synapses_per_s", "synapses/s", "higher"),
    ("analyze_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("final_loss", "nats", "lower"),
    ("nmi", "1", "higher"),
    ("failed_ops_frac", "1", "lower"),
)
# Printed by run.py but kept out of BENCHMARK.json and the JSON result line.
PRINTED_ONLY = {
    "failed_ops_frac": "0 on every correct run; the JSON's failed/attempted carry it",
    "analyze_s": "on a 2-vCPU x86-64 VM it reads 0.14 s or 0.27 s on pipeline16 from one "
                 "process to the next, so its ten-seed spread (0.54) exceeds any bound allowed",
}
# the provenance fields that select a run's earlier digests, besides workload and steps
DIGEST_ENV = ("seed", "source_sha256", "blas", "numpy", "python", "machine", "cpu_features",
              "nproc", "usable_cpus", "thread_env")
ANALYSIS_CALLS = ("pca_project", "kmeans", "nmi", "ari", "concordance", "emit_scatter")
# Seconds of one Pace.sample on a quiet 2-vCPU x86-64 VM (OpenBLAS 0.3.31,
# numpy 2.4, Python 3.11). The timing metrics are stated in seconds of a
# machine that runs the reference this fast; see Pace.
REF_S = 0.030
# Seconds between reference samples inside an embedding; a traced run samples
# only around it, so that no span holds reference time.
EMBED_PACE_S = 0.5
# the metrics that Pace states at the reference speed
TIMINGS = ("setup_s", "train_views_per_s", "embed_synapses_per_s", "analyze_s", "pipeline_s")
# A run makes one full pass, then PASSES - 1 more without training, and reports
# medians; every pass must give the same outputs.
PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    patch_side: int
    batch_pairs: int = 16
    gen: dict = field(default_factory=dict)  # GenConfig fields besides the seed
    # Seconds per train step on a 2-core x86-64 machine with OpenBLAS. It only
    # turns --seconds into a step count, so that count (and every output the
    # run checks for determinism) depends on the arguments, never the clock.
    step_s: float = 1.0
    embed: bool = True

    def steps(self, seconds: float) -> int:
        """About --seconds of training, with at least one timed step after the warm-up step."""
        return max(2, round(seconds / self.step_s))

    def gen_config(self, seed: int) -> synthgen.GenConfig:
        return synthgen.GenConfig(seed=seed, **self.gen)

    def train_config(self, seconds: float) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            steps=self.steps(seconds),
            encoder=encoder.EncoderConfig(patch_side=self.patch_side),
            sampler=sampler.SamplerConfig(patch_side=self.patch_side, batch_pairs=self.batch_pairs),
        )


WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline16",
        "default phantom and TrainConfig at 16^3; conv work in numcore dominates, so kernel and batching changes show",
        patch_side=16, step_s=1.0,
    ),
    Workload(
        "dense_sv",
        "256 synapses on each of 16 supervoxels at 8^3; the O(k^2) pair rebuild, concordance and set-up dominate",
        patch_side=8, step_s=0.45,
        gen={"dims": (280, 280, 140), "n_supervoxels": 16, "synapses_per_supervoxel": 256},
    ),
    # Not in BENCHMARK.json: it neither embeds nor analyzes, so it lacks three
    # end-to-end metrics every listed workload reports, and a run takes about
    # 45 s at 1.9 GB peak RSS. Run it by hand for 80^3 memory-traffic changes.
    Workload(
        "train80",
        "paper-scale 80^3 patches, 2 pairs per step, no embedding; im2col far exceeds the cache",
        patch_side=80, batch_pairs=2, step_s=19.0, embed=False,
    ),
)}


class Ops:
    """Attempted operations and the failures among them, each with a reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, what: str, n: int = 1, failed: int = 0, why: str = "") -> None:
        self.attempted += n
        if failed:
            self.failed += failed
            self.failures.append(f"{failed}/{n} {what}: {why}")


class Pace:
    """How fast this machine runs right now, from a fixed reference computation.

    The host shares its cores, caches and memory bandwidth with other work, so
    the same code runs up to 1.4x slower for seconds to minutes at a time. A
    run therefore times this reference just before and just after each timed
    part: the strided copy, small matrix product and max-pool of one 16^3
    im2col convolution, and a Python loop, the mix the workloads spend their
    time on. It calls no synself code, so a change to the program never moves
    it. A sample's slowdown is its time over REF_S; a timed part is divided by
    the mean slowdown of the samples around it (see ``paced``), so the timing
    metrics read in seconds of a machine that runs the reference in REF_S.
    run.py prints them as measured too.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((8, 18, 18, 18))
        self._w = rng.standard_normal((8 * 27, 16))
        self.slowdowns: list[float] = []
        self.spent = 0.0  # seconds spent in the reference

    def sample(self) -> float:
        """Time the reference once; returns its slowdown."""
        t = time.perf_counter()
        for _ in range(3):
            win = sliding_window_view(self._x, (3, 3, 3), axis=(1, 2, 3))
            col = win.transpose(1, 2, 3, 0, 4, 5, 6).reshape(16 ** 3, -1)
            y = np.ascontiguousarray((col @ self._w).T).reshape(16, 8, 2, 8, 2, 8, 2)
            y.max(axis=(2, 4, 6))
        sums: dict[int, float] = {}
        for i in range(30000):
            sums[i % 97] = sums.get(i % 97, 0.0) + i * 0.5
        seconds = time.perf_counter() - t
        self.spent += seconds
        self.slowdowns.append(seconds / REF_S)
        return self.slowdowns[-1]

    @contextmanager
    def through(self, module, name: str, every_s: float):
        """Time a block that calls module.name many times, sampling the reference
        before such a call once every_s seconds have passed since the last sample.
        Yields a list that receives (seconds, seconds at the reference speed) of
        each stretch between two samples."""
        inner = getattr(module, name)
        stretches: list[tuple[float, float]] = []
        before, start = self.sample(), time.perf_counter()

        def sampling(*args, **kwargs):
            nonlocal before, start
            elapsed = time.perf_counter() - start
            if elapsed >= every_s:
                after = self.sample()
                stretches.append((elapsed, paced(elapsed, before, after)))
                before, start = after, time.perf_counter()
            return inner(*args, **kwargs)

        setattr(module, name, sampling)
        try:
            yield stretches
        finally:
            setattr(module, name, inner)
            elapsed = time.perf_counter() - start
            stretches.append((elapsed, paced(elapsed, before, self.sample())))


def paced(seconds: float, before: float, after: float) -> float:
    """seconds at the reference speed, given the slowdowns sampled before and after."""
    return seconds * 2 / (before + after)


class StepClock:
    """Times each trainer.train_step call that trainer.train makes, and samples
    pace before the first step and after each (outside the steps' times)."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.slowdowns: list[float] = []
        self.durations: list[float] = []
        self.losses: list[float] = []

    def paced_durations(self) -> list[float]:
        s = self.slowdowns
        return [paced(d, s[i], s[i + 1]) for i, d in enumerate(self.durations)]

    @contextmanager
    def installed(self):
        inner = trainer.train_step
        self.slowdowns.append(self.pace.sample())

        def timed(*args, **kwargs):
            t = time.perf_counter()
            row = inner(*args, **kwargs)
            self.durations.append(time.perf_counter() - t)
            self.losses.append(row["loss"])
            self.slowdowns.append(self.pace.sample())
            return row

        trainer.train_step = timed
        try:
            yield self
        finally:
            trainer.train_step = inner


def _data_setup(gen: synthgen.GenConfig, out_dir: Path):
    """generate -> save_phantom -> read back; returns (phantom, volume, synapses, seconds)."""
    t = time.perf_counter()
    ph = synthgen.generate(gen)
    synthgen.save_phantom(ph, out_dir)
    vol = volume_io.read_volume(out_dir / "intensity.vol")
    syn = volume_io.read_synapse_table(out_dir / "synapses.csv")
    return ph, vol, syn, time.perf_counter() - t


def _analyze(emb, synapses, n_classes: int, svg: Path):
    """The six analysis calls a user runs on an embedding; returns (seconds, results)."""
    classes = [r.class_label for r in synapses]
    t = time.perf_counter()
    pca = analysis.pca_project(emb)
    km = analysis.kmeans(emb.values, n_classes)
    nmi = analysis.nmi(km.labels, classes)
    ari = analysis.ari(km.labels, classes)
    intra, inter = analysis.concordance(emb, synapses)
    analysis.emit_scatter(pca.coords, classes, svg)
    seconds = time.perf_counter() - t
    return seconds, {"coords": pca.coords, "labels": km.labels, "nmi": nmi, "ari": ari,
                     "intra": intra, "inter": inter, "svg": svg.read_bytes()}


def _analysis_outputs(r: dict) -> dict:
    return {"nmi": r["nmi"], "ari": r["ari"], "intra": r["intra"], "inter": r["inter"],
            "labels": r["labels"].tolist(), "svg": hashlib.sha256(r["svg"]).hexdigest()}


def _analysis_failures(r: dict, n_rows: int, n_classes: int) -> list[str]:
    bad = []
    if r["coords"].shape != (n_rows, 2) or not np.isfinite(r["coords"]).all():
        bad.append("pca_project: coordinates not finite")
    if r["labels"].shape != (n_rows,) or r["labels"].min() < 0 or r["labels"].max() >= n_classes:
        bad.append("kmeans: labels out of range")
    if not 0.0 <= r["nmi"] <= 1.0:
        bad.append(f"nmi {r['nmi']} outside [0, 1]")
    if not -1.0 <= r["ari"] <= 1.0:
        bad.append(f"ari {r['ari']} outside [-1, 1]")
    if not (-1.0 <= r["intra"] <= 1.0 and -1.0 <= r["inter"] <= 1.0):
        bad.append(f"concordance ({r['intra']}, {r['inter']}) outside [-1, 1]")
    if not r["svg"].startswith(b"<svg") or b"nan" in r["svg"]:
        bad.append("emit_scatter: malformed SVG")
    return bad


def params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "synself").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_features() -> str:
    """The SIMD features numpy found on this CPU; OpenBLAS picks its kernels by them too."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "unknown"
    return " ".join(k for k, on in __cpu_features__.items() if on)


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_features": _cpu_features(),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": source_digest(),
    }


def _check_digests(key: str, digests: dict, store: Path) -> str | None:
    """Compare with the digests an earlier run of the same key stored; store them if new."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return None if known[key] == digests else f"digests {digests} differ from earlier {known[key]}"
    known[key] = digests
    tmp = store.with_name(f"{store.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def _pipeline(wl: Workload, gen, cfg, work: Path, first: bool, pace: Pace,
              embed_pace_s: float) -> dict:
    """One timed pass: set-up, train (first pass only), embed and analyze, as a user runs
    them. pace samples the reference around each part, and inside the embedding every
    embed_pace_s; pipeline_s leaves those samples out, and out["paced"] holds the
    times at the reference speed."""
    out = {"clock": StepClock(pace), "emb": None, "analysis": None, "paced": {}}
    ckpt = work / "train" / "ckpt_final.dckpt"
    n0 = len(pace.slowdowns)
    before = pace.sample()
    spent0 = pace.spent
    t0 = time.perf_counter()
    out["phantom"], out["vol"], out["syn"], out["data_s"] = _data_setup(gen, work / "phantom")
    out["paced"]["data_s"] = paced(out["data_s"], before, pace.sample())
    if first:
        out["state"] = None
        try:
            with out["clock"].installed():
                out["state"], _ = trainer.train(cfg, sampler.Dataset(out["vol"], out["syn"]), work / "train")
        except Exception:
            traceback.print_exc()
    if wl.embed and ckpt.exists():
        try:
            # embed_all makes one encoder.forward call per synapse
            with pace.through(encoder, "forward", embed_pace_s) as stretches:
                out["emb"] = analysis.embed_all(ckpt, out["vol"], out["syn"], wl.patch_side)
            out["embed_s"] = sum(raw for raw, _ in stretches)
            out["paced"]["embed_s"] = sum(at_ref for _, at_ref in stretches)
            before = pace.slowdowns[-1]
            out["analyze_s"], out["analysis"] = _analyze(out["emb"], out["syn"], gen.n_classes,
                                                         work / "scatter.svg")
            out["paced"]["analyze_s"] = paced(out["analyze_s"], before, pace.sample())
        except Exception:
            traceback.print_exc()
    out["pipeline_s"] = time.perf_counter() - t0 - (pace.spent - spent0)
    # the whole pass at the median slowdown sampled through it
    out["paced"]["pipeline_s"] = out["pipeline_s"] / statistics.median(
        pace.slowdowns[n0:] + [pace.sample()])
    return out


def _check_pass(wl: Workload, gen, cfg, work: Path, t: dict, ops: Ops) -> dict:
    """Count one pass's operations and failures; return its timings and checked outputs."""
    ph, syn = t["phantom"], t["syn"]
    ops.record("set-up read-back", 1, int(t["vol"] != ph.intensity or syn != ph.synapses),
               "volume or synapse table read back differs from the generated phantom")
    p = {"measured": {k: t[k] for k in ("data_s", "pipeline_s")}, "paced": t["paced"], "outputs": {
        "phantom": hashlib.sha256(ph.intensity.voxels.tobytes() + repr(ph.synapses).encode()).hexdigest()}}
    if "state" in t:  # the pass that trained
        clock, state = t["clock"], t["state"]
        finite = sum(1 for v in clock.losses if np.isfinite(v))
        ops.record("train step", cfg.steps, cfg.steps - finite, "exception or non-finite loss")
        p["measured"]["step_s"] = clock.durations
        p["paced"]["step_s"] = clock.paced_durations()
        p["final_loss"] = clock.losses[-1] if clock.losses else float("nan")
        if state is None:
            ops.record("checkpoint reload", 1, 1, "training failed")
        else:
            loaded, _ = encoder.load(work / "train" / "ckpt_final.dckpt")
            same = loaded.keys() == state.params.keys() and all(
                np.array_equal(loaded[k], state.params[k]) for k in loaded)
            ops.record("checkpoint reload", 1, int(not same), "reloaded parameters differ from memory")
            p["digests"] = {
                "params": params_digest(state.params),
                "metrics_csv": hashlib.sha256((work / "train" / "metrics.csv").read_bytes()).hexdigest()}
    if not wl.embed:
        return p
    if t["emb"] is None:
        ops.record("embedded synapse", len(syn), len(syn), "embedding failed")
    else:
        bad = int((~np.isfinite(t["emb"].values).all(axis=1)).sum())
        ops.record("embedded synapse", len(syn), bad, "non-finite embedding row")
        p["measured"]["embed_synapses_per_s"] = len(syn) / t["embed_s"]
        p["paced"]["embed_synapses_per_s"] = len(syn) / t["paced"]["embed_s"]
        p["outputs"]["embedding"] = hashlib.sha256(t["emb"].values.tobytes()).hexdigest()
    r = t["analysis"]
    if r is None:
        ops.record("analysis call", len(ANALYSIS_CALLS), len(ANALYSIS_CALLS), "no analysis result")
        return p
    bad = _analysis_failures(r, len(syn), gen.n_classes)
    ops.record("analysis call", len(ANALYSIS_CALLS), len(bad), "; ".join(bad))
    p["outputs"].update(_analysis_outputs(r))
    p["measured"]["analyze_s"] = t["analyze_s"]
    return p


def _timings(wl: Workload, passes: list[dict], views: int, kind: str) -> dict:
    """The samples of each timing metric, from the passes' "measured" or "paced" times."""
    steps = passes[0][kind].get("step_s", [])
    samples = {
        # each pass sets up again; the one warm-up step belongs to every set-up sample
        "setup_s": [p[kind]["data_s"] + (steps[0] if steps else 0.0) for p in passes],
        "train_views_per_s": [views / d for d in steps[1:]],
        "pipeline_s": [passes[0][kind]["pipeline_s"]],
    }
    if wl.embed:
        samples["embed_synapses_per_s"] = [p[kind]["embed_synapses_per_s"] for p in passes
                                           if "embed_synapses_per_s" in p[kind]]
        samples["analyze_s"] = [p[kind]["analyze_s"] for p in passes if "analyze_s" in p[kind]]
    return samples


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run(wl: Workload, seed: int, seconds: float, out_dir: Path = OUT,
        tracer: spans.Tracer | None = None) -> dict:
    """One pipeline pass, then PASSES - 1 passes without training (none when traced);
    checks every pass's outputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    gen = wl.gen_config(seed)
    cfg = wl.train_config(seconds)
    ops = Ops()
    pace = Pace()
    passes = []
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=out_dir))
    try:
        for i in range(1 if tracer else PASSES):
            with tracer.installed() if tracer else nullcontext():
                timed = _pipeline(wl, gen, cfg, work, i == 0, pace,
                                  math.inf if tracer else EMBED_PACE_S)
            passes.append(_check_pass(wl, gen, cfg, work, timed, ops))
            del timed
            shutil.rmtree(work / "phantom")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = passes[0]
    for p in passes[1:]:
        ops.record("pass repeat", 1, int(p["outputs"] != first["outputs"]),
                   "a repeated pass gave another phantom, embedding or analysis result")
    prov = provenance(seed)
    digests = first.get("digests", {})
    if digests:
        # float results may differ with the BLAS kernel (picked per CPU), the numpy
        # build and the thread count, so only runs in the same environment compare
        key = json.dumps({"workload": wl.name, "steps": cfg.steps, **{
            k: prov[k] for k in DIGEST_ENV}}, sort_keys=True)
        clash = _check_digests(key, digests, out_dir / "digests.json")
        ops.record("digest", 1, int(clash is not None), clash or "")

    views = 2 * cfg.sampler.batch_pairs
    samples = _timings(wl, passes, views, "paced")
    measured = {k: _median(v) for k, v in _timings(wl, passes, views, "measured").items()}
    metrics = {k: _median(v) for k, v in samples.items()}
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_loss": first.get("final_loss", float("nan")),
        "failed_ops_frac": ops.failed / ops.attempted,
    })
    if wl.embed:
        metrics["nmi"] = first["outputs"].get("nmi", float("nan"))

    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "steps": cfg.steps,
        "passes": len(passes), "timed_steps": len(samples["train_views_per_s"]),
        "metrics": metrics, "measured": measured, "slowdown": statistics.median(pace.slowdowns),
        "pace_samples": len(pace.slowdowns), "samples": samples,
        "attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures,
        "digests": digests, "provenance": prov,
    }
    if tracer is not None:
        result["layer"] = spans.layer_metrics(tracer.spans)
        tracer.write(out_dir / f"{wl.name}-seed{seed}-spans.jsonl")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = spans.Tracer(f"{wl.name}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    result = run(wl, args.seed, args.seconds, tracer=tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
