"""VGG-style volumetric encoder: conv blocks -> penultimate h -> projected z.

:func:`forward` stops at h, the representation that embedding reads; only
training calls :func:`project` for the unit-norm z that the loss compares.

Parameters are a name->tensor dict in a canonical order derived purely from
``EncoderConfig``. Checkpoints are a bit-exact binary container: the magic
line, one JSON config line, then length-prefixed named float64 tensors.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numcore as nc
from .volume_io import _atomic_write

MAGIC = b"DCKPT1\n"


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass(frozen=True)
class EncoderConfig:
    patch_side: int = 16
    channels: tuple[int, ...] = (8, 16, 32)
    convs_per_block: int = 2
    h_dim: int = 64
    z_dim: int = 32
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        # exact types, so 2.5 is not truncated to 2 and 8.0 does not pass for 8
        for name in ("patch_side", "convs_per_block", "h_dim", "z_dim", "init_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.init_seed < 0:  # numpy's seeding would reject it only once init runs
            raise ValueError(f"init_seed must be an integer >= 0, got {self.init_seed}")
        if any(type(c) is not int for c in self.channels):
            raise ValueError(f"channels must be integers, got {self.channels!r}")
        n_blocks = len(self.channels)
        if n_blocks < 1:
            raise ValueError("need at least one conv block")
        if self.patch_side % (2 ** n_blocks) != 0 or self.patch_side < 2 ** n_blocks:
            raise ValueError(
                f"patch_side {self.patch_side} must be divisible by 2^{n_blocks} (one pooling per block)"
            )
        if any(b >= a for b, a in zip(self.channels, self.channels[1:])):
            raise ValueError(f"channels must be strictly increasing, got {self.channels}")
        if self.h_dim < 2 or self.z_dim < 2:
            raise ValueError("h_dim and z_dim must be >= 2")
        if self.convs_per_block < 1:
            raise ValueError("convs_per_block must be >= 1")

    @property
    def flat_dim(self) -> int:
        side = self.patch_side // (2 ** len(self.channels))
        return self.channels[-1] * side ** 3


def _convs(cfg: EncoderConfig):
    """(name, c_in, c_out, side, pools) for each conv in order: side is the side
    of its input, and pools marks a block's last conv, which a max pool follows."""
    c_in = 1
    for bi, c_out in enumerate(cfg.channels):
        for ci in range(cfg.convs_per_block):
            yield f"block{bi}.conv{ci}", c_in, c_out, cfg.patch_side >> bi, ci == cfg.convs_per_block - 1
            c_in = c_out


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter name -> shape map; a pure function of the config."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, c_in, c_out, _, _ in _convs(cfg):
        shapes[f"{name}.w"] = (c_out, c_in, 3, 3, 3)
        shapes[f"{name}.b"] = (c_out,)
    shapes["head_h.w"] = (cfg.h_dim, cfg.flat_dim)
    shapes["head_h.b"] = (cfg.h_dim,)
    shapes["head_z.w"] = (cfg.z_dim, cfg.h_dim)
    shapes["head_z.b"] = (cfg.z_dim,)
    return shapes


def init(cfg: EncoderConfig) -> dict[str, np.ndarray]:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases; deterministic in cfg.init_seed."""
    rng = np.random.default_rng(cfg.init_seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def forward(params: dict[str, np.ndarray], patches: np.ndarray, cfg: EncoderConfig):
    """Run the conv blocks and the h head on a (B,s,s,s) stack of patches.

    Returns (h, cache): the (B, h_dim) rows of the penultimate h, and the
    activation cache that :func:`project` extends and :func:`backward`
    consumes. The views run side by side in numcore's (C,D,H,W,B) layout and
    the h head over their rows, and each row has the bits of a one-view
    forward. Training and embedding both run chunks of
    :func:`views_per_chunk` views.

    ``cache["inputs"]`` lists each conv and pool layer in order as (the
    conv's parameter name, or None for a pool; the layer's input). The cache
    also holds the flattened pooled rows and h, and no pre-activation: every
    conv's relu runs in place on the output the conv just made, so a view
    keeps one copy of each activation (0.70 MiB at the default 16^3, 87 MiB
    at 80^3).
    """
    s = cfg.patch_side
    if patches.ndim != 4 or patches.shape[1:] != (s, s, s) or not len(patches):
        raise nc.ShapeError(f"patch stack shape {patches.shape} != (B,{s},{s},{s}) with B >= 1")
    x = np.ascontiguousarray(patches.transpose(1, 2, 3, 0), dtype=np.float64)[None]
    inputs = []
    for name, _, _, _, pools in _convs(cfg):
        inputs.append((name, x))
        x = nc.conv3d_forward(x, params[f"{name}.w"], params[f"{name}.b"])
        np.maximum(x, 0.0, out=x)  # relu in place: nothing else holds the conv output
        if pools:
            inputs.append((None, x))
            x = nc.maxpool3d_forward(x)
    flat = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)  # row v: view v's (C,D,H,W) order
    h = nc.dense_forward(flat, params["head_h.w"], params["head_h.b"])
    np.maximum(h, 0.0, out=h)
    return h, {"inputs": inputs, "pooled_shape": x.shape, "flat": flat, "h": h}


def project(params: dict[str, np.ndarray], cache: dict) -> np.ndarray:
    """(B, z_dim) unit-norm projections z of the cached h rows of a B-view
    forward; records z_pre in the cache for :func:`backward`.

    Each row has the bits of a one-view projection. A zero z_pre has no
    direction and raises ValueError.
    """
    z_pre = nc.dense_forward(cache["h"], params["head_z.w"], params["head_z.b"])
    z = nc.l2_normalize_forward(z_pre)
    cache["z_pre"] = z_pre
    return z


def backward(params: dict[str, np.ndarray], cache: dict, d_z: np.ndarray) -> dict[str, np.ndarray]:
    """Exact parameter gradients, summed over the B views of the cache, given
    the (B, z_dim) loss gradient d_z at z = project(params, cache).

    Every layer runs once over all B views, and its d_w and d_b sum over them
    inside numcore (the heads' in view order). At B = 1 these are the
    one-view gradients.

    Each relu's mask is read from its output: ``relu(pre) > 0`` exactly where
    ``pre > 0``, NaN and -0.0 included, so the gradients are bit for bit those
    of a backward that kept the pre-activations. The output of a conv is the
    input of the layer after it in ``cache["inputs"]``; that of the h head is h.
    """
    d_z = np.asarray(d_z, dtype=np.float64)
    if d_z.shape != cache["z_pre"].shape:
        raise nc.ShapeError(f"d_z shape {d_z.shape} != projected shape {cache['z_pre'].shape}")
    grads = {}
    d_zpre = nc.l2_normalize_backward(cache["z_pre"], d_z)
    d_h, grads["head_z.w"], grads["head_z.b"] = nc.dense_backward(cache["h"], params["head_z.w"], d_zpre)
    d_flat, grads["head_h.w"], grads["head_h.b"] = nc.dense_backward(
        cache["flat"], params["head_h.w"], nc.relu_backward(cache["h"], d_h))
    d_x = np.ascontiguousarray(d_flat.T).reshape(cache["pooled_shape"])

    inputs = cache["inputs"]
    for i in reversed(range(len(inputs))):
        name, x = inputs[i]
        if name is None:
            d_x = nc.maxpool3d_backward(x, d_x)
        else:
            d_pre = nc.relu_backward(inputs[i + 1][1], d_x)
            # the first conv's input is the raw patch: its gradient has no reader
            d_x, grads[f"{name}.w"], grads[f"{name}.b"] = nc.conv3d_backward(
                x, params[f"{name}.w"], d_pre, need_dx=i > 0)
    return grads


def views_per_chunk(cfg: EncoderConfig) -> int:
    """The most views per forward whose widest conv, the one with the most column
    bytes per plane, still runs in z-slabs of at least k-1 planes, so that no slab
    refills more halo planes than it computes: 5 at 8^3, 1 at 16^3 and 80^3.
    Training and embedding both run their views in chunks of this many.

    B views run in slabs of ``SLAB_BYTES // (bytes_per_plane * B) - (k-1)`` planes.
    """
    k = 3
    widest = max(8 * c_in * k * k * side * side for _, c_in, _, side, _ in _convs(cfg))
    return max(1, nc.SLAB_BYTES // (widest * 2 * (k - 1)))


# ---------------------------------------------------------------------------
# checkpoint container


def write_container(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    def body(f):
        f.write(MAGIC)
        f.write(json.dumps(config, separators=(",", ":"), sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.astype("<f8", copy=False).tobytes())

    _atomic_write(path, body)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a checkpoint container; any malformed byte raises CheckpointError."""
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
        try:
            config = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: bad config line: {e}") from e
        if not isinstance(config, dict):
            raise CheckpointError(f"{path}: config line is not a JSON object")
        tensors: dict[str, np.ndarray] = {}
        while f.tell() < size:
            (name_len,) = struct.unpack("<I", read_exact(4, "tensor record header"))
            try:
                name = read_exact(name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path}: tensor name is not UTF-8: {e}") from e
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            what = f"tensor {name!r}"
            (rank,) = struct.unpack("<I", read_exact(4, what))
            shape = struct.unpack(f"<{rank}Q", read_exact(8 * rank, what))
            data = read_exact(8 * math.prod(shape), what)
            try:
                tensors[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
            except ValueError as e:  # an empty tensor with an absurd extent
                raise CheckpointError(f"{path}: bad shape {shape} for {what}: {e}") from e
    return config, tensors


def _config_from_json(obj: dict, path) -> EncoderConfig:
    known = {f.name: obj[f.name] for f in fields(EncoderConfig) if f.name in obj}
    missing = {"patch_side", "channels", "h_dim", "z_dim"} - set(known)
    if missing:
        raise CheckpointError(f"{path}: checkpoint config missing fields {sorted(missing)}")
    try:
        known["channels"] = tuple(known["channels"])
        return EncoderConfig(**known)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad encoder config: {e}") from e


def _params_from(tensors: dict[str, np.ndarray], cfg: EncoderConfig, path, prefix: str = ""):
    """name -> tensor ``prefix + name`` for every parameter of cfg; a missing or
    misshapen tensor raises CheckpointError."""
    out = {}
    for name, shape in param_shapes(cfg).items():
        key = prefix + name
        if key not in tensors:
            raise CheckpointError(f"{path}: config/shape disagreement: tensor {key!r} missing")
        if tensors[key].shape != shape:
            raise CheckpointError(
                f"{path}: config/shape disagreement: tensor {key!r} has shape "
                f"{tensors[key].shape}, config implies {shape}"
            )
        out[name] = tensors[key]
    return out


def save(params: dict[str, np.ndarray], cfg: EncoderConfig, path) -> None:
    write_container(path, asdict(cfg), params)


def load(path) -> tuple[dict[str, np.ndarray], EncoderConfig]:
    config, tensors = read_container(path)
    cfg = _config_from_json(config, path)
    return _params_from(tensors, cfg, path), cfg
