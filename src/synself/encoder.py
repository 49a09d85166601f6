"""VGG-style volumetric encoder: conv blocks -> penultimate h -> projected z.

:func:`forward` stops at h, the representation that embedding reads; only
training calls :func:`project` for the unit-norm z that the loss compares.

Parameters are a name->tensor dict in a canonical order derived purely from
``EncoderConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import numcore as nc
from .volume_io import _check_fields


@dataclass(frozen=True)
class EncoderConfig:
    patch_side: int = 16
    channels: tuple[Annotated[int, ">= 1"], ...] = (8, 16, 32)
    convs_per_block: Annotated[int, ">= 1"] = 2
    h_dim: Annotated[int, ">= 2"] = 64
    z_dim: Annotated[int, ">= 2"] = 32
    init_seed: Annotated[int, ">= 0"] = 0  # numpy would reject a negative seed only once init runs

    def __post_init__(self):
        _check_fields(self, ValueError)
        if not self.channels:
            raise ValueError("need at least one conv block")
        n_blocks = len(self.channels)
        if self.patch_side % (2 ** n_blocks) or self.patch_side < 2 ** n_blocks:
            raise ValueError(
                f"patch_side {self.patch_side} must be divisible by 2^{n_blocks} (one pooling per block)"
            )
        if any(b >= a for b, a in zip(self.channels, self.channels[1:])):
            raise ValueError(f"channels must be strictly increasing, got {self.channels}")

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
    at 80^3), until :func:`project` swaps each pool's input for its route.
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
    forward; readies the cache for :func:`backward`.

    Each row has the bits of a one-view projection. A zero z_pre has no
    direction and raises ValueError. The cache gains z_pre, and each pool's
    input in ``cache["inputs"]`` becomes its ``numcore.maxpool3d_route``, all
    that the backward reads of it, so a view's cache shrinks from 0.70 to
    0.38 MiB at 16^3 (87 to 47 MiB at 80^3). Embedding, which never
    projects, takes no routes.
    """
    z_pre = nc.dense_forward(cache["h"], params["head_z.w"], params["head_z.b"])
    z = nc.l2_normalize_forward(z_pre)
    cache["z_pre"] = z_pre
    inputs = cache["inputs"]
    for i, (name, x) in enumerate(inputs):
        if name is None:
            inputs[i] = (None, nc.maxpool3d_route(x))
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
    input of the layer after it in ``cache["inputs"]``; that of the h head is
    h. A conv that a pool follows is masked in the pool's output (the next
    layer's input, or ``cache["flat"]`` after the last pool) before the
    pool's scatter, which gives the same bits as masking after it, so the
    cache :func:`project` left, 0.38 MiB a view at 16^3 and 47 MiB at 80^3,
    is all it reads.
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
    outputs = [x for _, x in inputs[1:]] + [cache["flat"].T.reshape(cache["pooled_shape"])]
    for i in reversed(range(len(inputs))):
        name, x = inputs[i]
        # mask d_x where this layer's output is 0; a pool's mask also covers the conv before it
        if name is None or inputs[i + 1][0] is not None:
            d_x = nc.relu_backward(outputs[i], d_x)
        if name is None:
            d_x = nc.maxpool3d_backward(x, d_x)
        else:
            # the first conv's input is the raw patch: its gradient has no reader
            d_x, grads[f"{name}.w"], grads[f"{name}.b"] = nc.conv3d_backward(
                x, params[f"{name}.w"], d_x, need_dx=i > 0)
    return grads


def views_per_chunk(cfg: EncoderConfig) -> int:
    """The most views per forward that every conv still runs in z-slabs of at
    least k-1 planes, the least ``numcore.slab_views`` over the convs: 5 at
    8^3, 1 at 16^3 and 80^3. Training and embedding both run their views in
    chunks of this many."""
    return min(nc.slab_views(c_in, side, side, 3) for _, c_in, _, side, _ in _convs(cfg))


def load(path) -> tuple[dict[str, np.ndarray], EncoderConfig]:
    """A checkpoint's parameters and EncoderConfig, as ``trainer.load_train_state``
    checks and reads them. Only perfbench's ``_check_pass`` calls it: ROADMAP
    item 7a's perfbench revision moves that call to ``load_train_state`` and
    deletes this."""
    from .trainer import load_train_state  # here, not at the top: trainer imports this module

    state, train_cfg = load_train_state(path)
    return state.params, train_cfg.encoder
