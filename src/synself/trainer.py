"""Contrastive training loop: sample pairs, NT-Xent over projections, Adam.

Every artifact is a deterministic function of (config, dataset): the sampler
rng and the logged metrics rows are owned by the train state and saved in
checkpoints, the reduction order of the gradients is fixed, and
metrics/checkpoint files carry no clocks or hostnames. A step's views run in
chunks of ``encoder.views_per_chunk``: each chunk's backward sums its views'
gradients, and the step sums the chunk gradients in chunk order.

Checkpoints. Only :func:`save_train_state` writes one and :func:`load_train_state`
reads one, raising CheckpointError for any malformed byte. The bytes are the
magic line ``DCKPT1\\n``; one compact, key-sorted JSON line, ``asdict`` of the
run's TrainConfig plus a ``train_state`` key (step, sampler rng state, metrics
rows); then a record per tensor in :func:`_layout` order, the parameters in
``encoder.param_shapes`` order and then the Adam moments ``adam.m.<name>``
and ``adam.v.<name>``: a ``<I`` name length, the UTF-8 name, a ``<I`` rank,
``<Q`` extents and ``<f8`` data. Other, reordered, extra or trailing records
are refused.

Spreads. :func:`train` spreads each step's chunks, and :func:`spread_rows`
(which ``analysis.embed_with_params`` runs its chunks through) a set of
chunks, over the CPUs this process may use, both through :func:`_spread`.
A spread's parts each run a contiguous run of whole chunks through the
same serve: this process the first run, as a :class:`_Local`, and one
forked helper per further CPU a later run (no helper where ``fork`` is
missing or no OpenBLAS thread count can be set). Each part takes a request
and gives as its reply what serving it returned, raising what serving it
raised; a helper that exits before it replies raises HelperExitError.
Helpers ignore SIGINT, so Ctrl-C reaches the parent alone, which joins
every helper before it returns or raises, killing them first when it
raises. The parameters, the views and the gradient sum pass through one
anonymous shared mmap made before the fork; the messages carry the
requests, the z rows, d_z, the embedding rows and the exceptions. A serve
never returns an exception object, since a reply raises any exception it
receives. While a spread runs, OpenBLAS runs on one thread in every
process of it (each would otherwise take one thread per CPU), and the
parent's own count comes back afterwards.

Training's helpers live as long as the :func:`train` call, since a fork and
join cost about 5 ms, a fifth of a helped dense_sv step. Each step every
part serves ("forward", step), which forwards and projects its chunks and
returns their z rows, and then, once the shared gradient sum is zeroed,
("backward", d_z). The first part, whose run starts at chunk 0, adds each
of its chunk gradients to the sum as its backward makes it, so it holds
none; every later part keeps its own until "add", which adds them in chunk
order, part after part. So the step's gradient is the same chain of
additions in the same order wherever its chunks run, and keeps every bit:
each chunk's forward, projection and backward run the same code on the
same bytes in every process. A direct :func:`train_step` call runs the same serve over
every chunk in this process. :func:`spread_rows`'s parts serve one request,
which returns their rows; a chunk's rows sum nothing across chunks, so
every row keeps its bits.

Fork safety, not yet verified: with ``OPENBLAS_NUM_THREADS`` unset, the
parent still has two OS threads when it forks, because setting OpenBLAS to
one thread leaves its idle worker thread alive. Python 3.12 and later warn
with a DeprecationWarning when a multi-threaded process forks; only Python
3.11, which does not, has run this code.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import mmap
import multiprocessing as mp
import os
import signal
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from multiprocessing.connection import wait
from typing import Annotated

import numpy as np

from . import encoder as enc
from . import ntxent
from . import sampler as sp
from .volume_io import _atomic_write, _check_fields, _json_line, _parse_json_line, _write_table

METRICS_COLUMNS = ("step", "loss", "grad_norm", "pos_cos", "neg_cos")
# a resumed run may only extend these; every other TrainConfig field shapes the result
RESUMABLE_FIELDS = ("steps", "checkpoint_every")
# Adam's moment decays and denominator term. ADAM_EPS > 0: with 0, a parameter
# whose gradient is exactly 0 gets a 0/0 = NaN update
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MAGIC = b"DCKPT1\n"


class TrainError(RuntimeError):
    """Non-finite loss/gradient or unresumable state."""


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


class HelperExitError(RuntimeError):
    """A helper process of a spread, :func:`train`'s or :func:`spread_rows`'s,
    exited before it replied."""


@dataclass(frozen=True)
class TrainConfig:
    steps: Annotated[int, ">= 1"] = 2000
    lr: Annotated[float, "> 0"] = 1e-3
    temperature: ntxent.Temperature = 0.5  # NT-Xent's tau
    checkpoint_every: Annotated[int, ">= 1"] = 500
    log_every: Annotated[int, ">= 1"] = 10
    seed: Annotated[int, ">= 0"] = 0  # numpy would reject a negative seed only once init_state runs
    sampler: sp.SamplerConfig = field(default_factory=sp.SamplerConfig)
    encoder: enc.EncoderConfig = field(default_factory=enc.EncoderConfig)

    def __post_init__(self):
        _check_fields(self, ValueError)
        if self.sampler.patch_side != self.encoder.patch_side:
            raise ValueError(
                f"sampler patch_side {self.sampler.patch_side} != encoder patch_side "
                f"{self.encoder.patch_side}"
            )


@dataclass
class TrainState:
    step: int
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    rng: np.random.Generator
    rows: list[dict] = field(default_factory=list)  # metrics rows logged so far
    # the parts that run the step's chunks, the first in this process, and the arrays they share
    parts: list[_Local | _Helper] = field(default_factory=list, init=False, repr=False, compare=False)
    shared: _Shared | None = field(default=None, init=False, repr=False, compare=False)


def init_state(cfg: TrainConfig) -> TrainState:
    params = enc.init(cfg.encoder)
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    return TrainState(
        0,
        params,
        zeros,
        {k: v.copy() for k, v in zeros.items()},
        np.random.default_rng(cfg.seed),
    )


def _batch_fingerprint(views: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(views)).hexdigest()[:12]  # the array's own buffer, in C order


def train_step(state: TrainState, dataset, cfg: TrainConfig):
    """Advance one step in place; returns the step's metrics dict. Each of
    the state's parts runs its chunks through the same serve, the first in
    this process; a direct call, outside :func:`train`, makes one such part
    for every chunk when the state has none for cfg, and keeps it on the
    state."""
    if state.shared is None or state.shared.cfg != cfg:
        state.shared = _Shared(cfg)
        state.parts = [_Local(_chunk_server(state.shared, 0, 2 * cfg.sampler.batch_pairs))]
    parts, shared, t = state.parts, state.shared, state.step + 1
    batch = sp.sample_batch(dataset, cfg.sampler, state.rng)
    np.concatenate([batch.views_a, batch.views_b], axis=0, out=shared.views)
    for k, p in state.params.items():
        shared.params[k][...] = p
    for part in parts:
        part.send(("forward", t))
    z = np.concatenate([part.reply() for part in parts])  # in chunk order: the first zero projection is raised
    value, d_z = ntxent.loss(z, cfg.temperature)
    grads = shared.grads
    for g in grads.values():
        g[...] = 0.0
    for part in parts:  # the first adds its chunk gradients to the sum as it makes them
        part.send(("backward", d_z))
    for part in parts:
        part.reply()
    for part in parts[1:]:  # each later one adds its own to the sum so far, in chunk order
        part.send("add")
        part.reply()

    sq_sum = sum(float(np.sum(g * g)) for g in grads.values())
    grad_norm = float(np.sqrt(sq_sum))
    if not (np.isfinite(value) and np.isfinite(grad_norm)):
        raise TrainError(
            f"non-finite loss/gradient at step {t} "
            f"(batch fingerprint {_batch_fingerprint(shared.views)})"
        )

    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for k, g in grads.items():
        m = state.adam_m[k]
        v = state.adam_v[k]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        state.params[k] -= cfg.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    state.step = t

    pos_cos, neg_cos = ntxent.batch_cosine_stats(z)
    return {
        "step": t,
        "loss": value,
        "grad_norm": grad_norm,
        "pos_cos": pos_cos,
        "neg_cos": neg_cos,
    }


def _is_logged(step: int, cfg: TrainConfig) -> bool:
    return step % cfg.log_every == 0 or step == cfg.steps


def write_metrics(rows: list[dict], path) -> None:
    _write_table(path, METRICS_COLUMNS, [[r[c] for c in METRICS_COLUMNS] for r in rows])


def _valid_row(row) -> bool:
    return (isinstance(row, dict) and set(row) == set(METRICS_COLUMNS) and type(row["step"]) is int
            and all(type(row[c]) is float for c in METRICS_COLUMNS[1:]))


def _key_mismatch(saved: dict, full: dict, at: str = "") -> str | None:
    """The first key path, dotted, that only one of the dicts holds: "missing
    field 'a.b'" when ``saved`` lacks it, "unknown field 'a.b'" when ``full`` does."""
    for k in [*full, *(k for k in saved if k not in full)]:
        if k not in saved or k not in full:
            return f"{'missing' if k in full else 'unknown'} field '{at}{k}'"
        if isinstance(full[k], dict) and isinstance(saved[k], dict) and (
                sub := _key_mismatch(saved[k], full[k], f"{at}{k}.")):
            return sub
    return None


def _layout(cfg: TrainConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each tensor of a checkpoint of cfg, in file order: the
    parameters in ``encoder.param_shapes`` order, then Adam's m, then Adam's v."""
    shapes = enc.param_shapes(cfg.encoder)
    return [(prefix + name, shape) for prefix in ("", "adam.m.", "adam.v.") for name, shape in shapes.items()]


def _record_header(name: str, shape) -> bytes:
    nb = name.encode("utf-8")
    return struct.pack(f"<I{len(nb)}sI{len(shape)}Q", len(nb), nb, len(shape), *shape)


def save_train_state(state: TrainState, cfg: TrainConfig, path) -> None:
    config = asdict(cfg)
    config["train_state"] = {"step": state.step, "rng_state": state.rng.bit_generator.state, "rows": state.rows}
    arrays = [group[k] for group in (state.params, state.adam_m, state.adam_v) for k in enc.param_shapes(cfg.encoder)]

    def body(f):
        f.write(MAGIC + _json_line(config))
        for (name, _), arr in zip(_layout(cfg), arrays, strict=True):
            f.write(_record_header(name, np.shape(arr)))
            f.write(np.ascontiguousarray(arr, dtype="<f8"))  # in C order, whatever arr's layout

    _atomic_write(path, body)


def load_train_state(path) -> tuple[TrainState, TrainConfig]:
    """Resume state from a checkpoint, with the TrainConfig it was saved under.

    Malformed bytes raise CheckpointError, and so does every tensor record
    but the ones save_train_state writes for that config, in its order.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read_exact(n: int, what: str) -> bytes:
            # bounded by the bytes left, so a corrupt length never asks for more
            if n > size - f.tell():
                raise CheckpointError(f"{path}: truncated {what}")
            return f.read(n)

        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: magic mismatch: got {magic!r}, want {MAGIC!r}")
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointError(f"{path}: truncated config line")
        config = _parse_json_line(line, CheckpointError, f"{path}: bad config line")
        ts = config.pop("train_state", None)
        if not isinstance(ts, dict) or set(ts) != {"step", "rng_state", "rows"}:
            got = sorted(ts) if isinstance(ts, dict) else type(ts).__name__
            raise CheckpointError(f"{path}: bad train_state: want the keys step, rng_state and rows, got {got}")
        step, rows = ts["step"], ts["rows"]
        rng = np.random.default_rng(0)
        try:
            rng.bit_generator.state = ts["rng_state"]
            if rng.bit_generator.state != ts["rng_state"]:  # numpy truncates a float such as 1.5
                raise ValueError(f"rng_state {ts['rng_state']} is held as {rng.bit_generator.state}")
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CheckpointError(f"{path}: bad train_state: {e!r}") from e
        if type(step) is not int or step < 0:
            raise CheckpointError(f"{path}: bad train_state: step {step!r} is not an integer >= 0")
        if not isinstance(rows, list) or not all(_valid_row(r) for r in rows):
            raise CheckpointError(f"{path}: bad train_state: rows are not metrics rows")
        # asdict saved every field and no other: a missing one would take its default, which may shape another run
        mismatch = _key_mismatch(config, asdict(TrainConfig()))
        if mismatch:
            raise CheckpointError(f"{path}: bad config: {mismatch}")
        try:
            train_cfg = TrainConfig(**config)
        except ValueError as e:
            raise CheckpointError(f"{path}: bad config: {e}") from e
        # the steps train logs up to this one, as _is_logged picks them; a resume would drop any
        # other row without a word. Lengths first, so that a corrupt huge step builds no list.
        steps, every = [r["step"] for r in rows], train_cfg.log_every
        logged, last = range(every, step + 1, every), [step] if step == train_cfg.steps and step % every else []
        if len(steps) != len(logged) + len(last) or steps != [*logged, *last]:
            raise CheckpointError(f"{path}: bad train_state: row steps {steps} are not the steps "
                                  f"logged up to step {step} with log_every {every}")
        # each record byte for byte as save_train_state writes it, so its extents are the config's
        tensors = []
        for name, shape in _layout(train_cfg):
            what, header = f"tensor {name!r}", _record_header(name, shape)
            got = read_exact(len(header), what)
            if got != header:
                raise CheckpointError(f"{path}: config/shape disagreement: want {what} of shape {shape} "
                                      f"next, got the record header {got!r}")
            tensors.append(np.frombuffer(read_exact(8 * math.prod(shape), what), dtype="<f8").reshape(shape).copy())
        if f.read(1):
            raise CheckpointError(f"{path}: bytes after the last tensor {name!r}")
    n = len(tensors) // 3  # the parameters, Adam's m and Adam's v, each in param_shapes order
    params, adam_m, adam_v = (dict(zip(enc.param_shapes(train_cfg.encoder), tensors[i:i + n])) for i in (0, n, 2 * n))
    return TrainState(step, params, adam_m, adam_v, rng, rows), train_cfg


# ---------------------------------------------------------------------------
# helper processes


def _shared_arrays(shapes) -> list[np.ndarray]:
    """float64 arrays of the given shapes, each 64-byte aligned, in one
    anonymous shared mmap that the processes forked after it inherit."""
    sizes = [-(-8 * math.prod(shape) // 64) * 64 for shape in shapes]
    buf = mmap.mmap(-1, sum(sizes))
    offsets = np.cumsum([0, *sizes[:-1]])
    return [np.ndarray(shape, np.float64, buf, int(at)) for shape, at in zip(shapes, offsets)]


class _Shared:
    """The arrays a step passes between processes, from :func:`_shared_arrays`:
    the parameters, the views and the running gradient sum, for the steps of
    cfg."""

    def __init__(self, cfg: TrainConfig):
        n, s = 2 * cfg.sampler.batch_pairs, cfg.sampler.patch_side
        shapes = enc.param_shapes(cfg.encoder)
        arrays = _shared_arrays([*shapes.values(), *shapes.values(), (n, s, s, s)])
        self.cfg = cfg
        self.params = dict(zip(shapes, arrays))
        self.grads = dict(zip(shapes, arrays[len(shapes):]))
        self.views = arrays[-1]


def _spare_cpus() -> int:
    """The CPUs past the first that this process may run on; 0 where fork is
    missing, in a daemonic process, which multiprocessing lets start none, and
    where no OpenBLAS thread count can be set (see :func:`_one_blas_thread`)."""
    if ("fork" not in mp.get_all_start_methods() or not hasattr(os, "sched_getaffinity")
            or mp.current_process().daemon or _openblas_threads() is None):
        return 0
    return len(os.sched_getaffinity(0)) - 1

def _openblas_threads():
    """(get, set) ctypes functions for the thread count of the OpenBLAS loaded
    in this process, or None where no such library or symbol is found. The
    library is found by its path in /proc/self/maps; numpy's own wheels name
    its functions scipy_openblas_*64_, other builds plain openblas_*."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            mapped = [line.split(maxsplit=5) for line in f if "openblas" in line.lower()]
    except OSError:
        return None
    for path in sorted({m[5].strip() for m in mapped if len(m) == 6}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread for the block, in this process and in every
    process forked inside it, which inherits the count; restore this
    process's own count on the way out. Two processes of a spread on two CPUs
    would otherwise each run OpenBLAS's default of one thread per CPU."""
    blas = _openblas_threads()
    if blas is None:  # _spare_cpus starts no spread then, so only a forced one gets here
        yield
        return
    get, set_ = blas
    own = get()
    set_(1)
    try:
        yield
    finally:
        set_(own)


class _Local:
    """The part of a spread that this process runs: it takes requests as a
    :class:`_Helper` does, but reply() serves the last one here, returning
    what serving it returned or raising what it raised. Replies are read in
    part order after every part was sent its request, so this process serves
    its own while the helpers serve theirs."""

    def __init__(self, serve):
        self.serve, self.request = serve, None

    def send(self, request) -> None:
        self.request = request

    def reply(self):
        return self.serve(self.request)


class _Helper:
    """A forked process that serves requests with serve, about a contiguous
    run of whole chunks; see :func:`_work`."""

    def __init__(self, ctx, serve, others: list[_Helper]):
        self.conn, child_end = ctx.Pipe()
        # the child closes the parent's ends of every pipe, so that it reads EOF once the parent is gone
        self.proc = ctx.Process(target=_work, args=(child_end, [self.conn, *(h.conn for h in others)], serve))
        self.proc.start()
        child_end.close()

    def _died(self) -> HelperExitError:
        self.proc.join()
        return HelperExitError(f"helper process {self.proc.pid} exited with code {self.proc.exitcode}")

    def send(self, request) -> None:
        try:
            self.conn.send(request)
        except ConnectionError:  # its end of the pipe (a socket pair) closed as it exited
            raise self._died() from None

    def reply(self):
        """Wait for the reply to the last request and return it; raise what
        serving it raised, as the chunks run here would have."""
        if self.conn not in wait([self.conn, self.proc.sentinel]):
            raise self._died()
        try:
            result = self.conn.recv()
        except (EOFError, ConnectionError):  # reset, when it exited before reading all that was sent
            raise self._died() from None
        if isinstance(result, Exception):
            raise result
        return result


def _work(conn, parent_ends, serve) -> None:
    """A helper's loop: receive a request, call serve(request), and reply what
    it returned or the exception it raised. Returns at EOF, once the parent
    closed its end or exited."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the parent, which stops the helpers
    for end in parent_ends:
        end.close()
    try:
        while True:
            request = conn.recv()
            try:
                result = serve(request)
            except Exception as e:  # the parent raises it
                result = e
            conn.send(result)
    except (EOFError, ConnectionError):
        return


@contextmanager
def _spread(n: int, chunk: int, serve_run):
    """Yield the parts of a spread of the chunks of chunk items in range(n),
    in item order, one per CPU this process may use (see :func:`_spare_cpus`)
    but no more than chunks. Of P parts over C chunks, part k serves
    serve_run(lo, hi) for the items [lo, hi) from chunk k * C // P to the
    next part's first: the first part is a :class:`_Local`, each later one a
    forked :class:`_Helper`. Only the local part, of serve_run(0, n), when
    nothing is spread. On the way out close and join the helpers, killing
    them first if the body raised; OpenBLAS runs on one thread meanwhile."""
    n_chunks = -(-n // chunk)
    parts = 1 + min(_spare_cpus(), n_chunks - 1)
    if parts <= 1:
        yield [_Local(serve_run(0, n))]
        return
    ctx, helpers = mp.get_context("fork"), []
    bounds = [*(chunk * (k * n_chunks // parts) for k in range(parts)), n]
    with _one_blas_thread():
        try:
            for lo, hi in zip(bounds[1:], bounds[2:]):
                helpers.append(_Helper(ctx, serve_run(lo, hi), helpers))
            yield [_Local(serve_run(0, bounds[1])), *helpers]
        except BaseException:
            for h in helpers:
                h.proc.kill()
            raise
        finally:
            for h in helpers:
                h.conn.close()
                h.proc.join()


def _chunk_server(shared: _Shared, lo: int, hi: int):
    """The serve of the part of a spread that runs views [lo, hi) of every
    step of shared.cfg, on the shared arrays. ("forward", step) forwards and
    projects its chunks and returns their z rows in chunk order, raising a
    TrainError for a zero projection; ("backward", d_z) backwards each chunk
    with its rows of the step's d_z, dropping each chunk's cache as it makes
    its gradient; "add" adds the chunk gradients to the shared sum in chunk
    order. The part at chunk 0 adds each gradient to the shared sum, which
    the step zeroed, as its backward makes it, and so keeps none for "add"."""
    cfg = shared.cfg
    chunk = enc.views_per_chunk(cfg.encoder)
    starts = range(lo, hi, chunk)
    caches, grads = [], []

    def add(g):
        for k, total in shared.grads.items():
            total += g[k]

    def serve(request):
        nonlocal caches
        if request == "add":
            for g in grads:
                add(g)
            grads.clear()
            return None
        stage, arg = request
        if stage == "backward":
            made = add if lo == 0 else grads.append
            for i in starts:
                made(enc.backward(shared.params, caches.pop(0), arg[i:i + chunk]))
            return None
        caches, z = [], []
        for i in starts:
            _, cache = enc.forward(shared.params, shared.views[i:i + chunk], cfg.encoder)
            try:
                z.append(enc.project(shared.params, cache))
            except ValueError as e:
                raise TrainError(f"zero projection at step {arg} "
                                 f"(batch fingerprint {_batch_fingerprint(shared.views)}): {e}") from e
            caches.append(cache)
        return np.concatenate(z)

    return serve


def spread_rows(n: int, chunk: int, rows) -> np.ndarray:
    """The rows(lo, hi), the rows of items [lo, hi), over the chunks [0,
    chunk), [chunk, 2 chunk), ... of range(n), stacked in order into a new
    array. Each chunk runs alone, so its rows have the same bits wherever it
    runs.

    The chunks are spread through :func:`_spread`, as train's steps are:
    each part, this process's first, serves one request by returning the
    rows of its run stacked in chunk order, and the parts' replies are
    stacked in part order. An exception a part's chunks raise is raised
    here, and a helper that exits before it replies raises HelperExitError.
    """
    def serve_run(lo: int, hi: int):
        return lambda _: np.concatenate([rows(i, min(i + chunk, n)) for i in range(lo, hi, chunk)])

    with _spread(n, chunk, serve_run) as parts:
        for part in parts:
            part.send("rows")
        return np.concatenate([part.reply() for part in parts])


def train(
    cfg: TrainConfig,
    dataset,
    out_dir,
    resume_from=None,
) -> tuple[TrainState, list[dict]]:
    """Run cfg.steps total steps, writing checkpoints and metrics.csv to out_dir.

    metrics.csv is rewritten with every checkpoint, so after a crash it holds
    the rows of the latest checkpoint. Resuming continues the checkpoint's run:
    its metrics rows are kept, and a config that differs in any field besides
    RESUMABLE_FIELDS, or asks for fewer steps than the checkpoint holds, raises
    TrainError.

    The steps' later chunks run in helper processes forked here through
    :func:`_spread`, one per CPU this process may use past the first, which
    live until it returns or raises. Each step they read the parameters and
    views from the shared mmap, reply with their z rows, and add their
    gradients to the shared sum after this process's. The run writes the
    bytes of a one-process run. An exception a helper's chunks raise is
    raised here, and a helper that exits before it replies raises
    HelperExitError.
    """
    if resume_from is None:
        state = init_state(cfg)
    else:
        state, ck_cfg = load_train_state(resume_from)
        if cfg.steps < state.step:
            raise TrainError(f"{resume_from}: checkpoint step {state.step} > train config steps {cfg.steps}")
        for name in (f.name for f in fields(cfg) if f.name not in RESUMABLE_FIELDS):
            ck, want = getattr(ck_cfg, name), getattr(cfg, name)
            if ck != want:
                raise TrainError(f"{resume_from}: checkpoint {name} config {ck} != train config {want}")
        # the earlier run also logged its last step, which this run may not log
        state.rows = [r for r in state.rows if _is_logged(r["step"], cfg)]
    sp.batchable_supervoxels(dataset, cfg.sampler)  # SamplingError if no batch can be drawn
    os.makedirs(out_dir, exist_ok=True)  # after the checks, so a refused run leaves no directory
    metrics_path = os.path.join(out_dir, "metrics.csv")
    shared = _Shared(cfg)
    with _spread(2 * cfg.sampler.batch_pairs, enc.views_per_chunk(cfg.encoder),
                 lambda lo, hi: _chunk_server(shared, lo, hi)) as parts:
        state.parts, state.shared = parts, shared
        while state.step < cfg.steps:
            metrics = train_step(state, dataset, cfg)
            t = state.step
            if _is_logged(t, cfg):
                state.rows.append(metrics)
            if t % cfg.checkpoint_every == 0 and t < cfg.steps:  # the last step is ckpt_final
                save_train_state(state, cfg, os.path.join(out_dir, f"ckpt_{t:06d}.dckpt"))
                write_metrics(state.rows, metrics_path)
    state.parts, state.shared = [], None
    save_train_state(state, cfg, os.path.join(out_dir, "ckpt_final.dckpt"))
    write_metrics(state.rows, metrics_path)
    return state, state.rows
