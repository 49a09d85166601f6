"""Dense float64 tensor ops with hand-derived backward passes.

Tensors are plain C-ordered ``numpy.ndarray`` of float64. Every backward here
returns exact gradients of the corresponding forward map; the test suite pins
them against central finite differences and nested-loop oracles. A backward
returns what its caller reads: d_input alone for relu, pooling and l2
normalisation, and (d_input, d_weights, d_bias) for dense and conv layers.
Convolutions are stride-1 with same padding (k odd) only, pooling is disjoint
2x2x2 — the minimal vocabulary for a VGG-style volumetric encoder.

Convolutions run on a flat padded grid: the zero-padded input is flattened
per channel, so every kernel tap is a constant shift of the flat index. The
k*k (dy,dx) shifts are copied, one contiguous slice each, into a column
matrix of Cin*k*k rows, and a conv is k GEMMs, one per dz, over windows of it
that differ only in their start. The forward tiles the output over z-slabs
whose columns fit in ``SLAB_BYTES``: each slab copies its rows, with k-1 halo
planes, straight from the flat input, and its k GEMMs write that slab's
output, so the columns are read back from cache rather than memory (c8-8 at
16^3: 0.75 MB per slab, where the whole matrix is 3.4 MB). Every output
element still sums the same Cin*k*k products per dz in the same order, so the
slabs change no bit of the result; at 8^3 and below the encoder's convs fit
in one slab. The input gradient is the flipped-kernel convolution, one more
forward, so it gets the slabs too; a caller skips it (``need_dx=False``) when
its input is raw data, as the encoder's first layer does. The weight gradient
stays one whole-grid GEMM per dz: splitting its reduction over the output
voxels into slabs would change the order of its sums, and so its bits.

Pooling takes the max of the two halves of each axis in turn (x, then y, then
z) over strided views, with no copy of the windows. Its backward sends each
window's gradient to the lowest linear index holding the max, through one
flat scatter.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

Tensor = np.ndarray

ZERO_NORM_TOL = 1e-12

# Column bytes of one conv z-slab, halo planes included: small enough that a
# slab's columns stay in a 2 MiB L2 cache while its k GEMMs read them. For
# c8-8 at 16^3 on a 2-vCPU x86-64 VM, budgets of 768 KiB to 1.25 MiB ran
# alike, and 2 MiB (two slabs) was as slow as the whole grid.
SLAB_BYTES = 768 << 10


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


# ---------------------------------------------------------------------------
# 3D convolution (stride 1, same padding) on a flat padded grid
#
# With the input zero-padded by p = k//2 to (Dp,Hp,Wp), output voxel (z,y,x)
# is computed at flat index q = z*Hp*Wp + y*Wp + x, and tap (dz,dy,dx) reads
# flat index q + dz*Hp*Wp + dy*Wp + dx. Indices q with y >= H or x >= W are
# junk outputs whose taps wrap into the next row or plane; they are cropped
# off and feed no kept output, so the wrap is harmless.


def _flat_padded(x: Tensor, k: int) -> tuple[Tensor, int, int]:
    """(C,D,H,W) -> the zero-padded input flattened per channel, Hp, Wp."""
    c, d, h, w = x.shape
    p = k // 2
    dp, hp, wp = d + 2 * p, h + 2 * p, w + 2 * p
    n = dp * hp * wp
    # (k-1)*(Wp+1) trailing zeros keep the last shifted slice in bounds; only
    # junk outputs read them, and the weight gradient multiplies them by zero
    flat = np.zeros((c, n + (k - 1) * (wp + 1)))
    flat[:, :n].reshape(c, dp, hp, wp)[:, p:p + d, p:p + h, p:p + w] = x
    return flat, hp, wp


def _fill_columns(cols: Tensor, flat: Tensor, k: int, wp: int, start: int) -> None:
    """Fill the (C*k*k, n) cols: row (c,dy,dx) is flat[c] from start + dy*Wp + dx.

    The window of columns starting at dz*Hp*Wp is then the (c,dz,dy,dx)
    operand of the output voxels from flat index ``start`` on. Each row is one
    contiguous slice copy.
    """
    c = flat.shape[0]
    n = cols.shape[1]
    rows = cols.reshape(c, k, k, n)
    for dy in range(k):
        for dx in range(k):
            shift = start + dy * wp + dx
            rows[:, dy, dx] = flat[:, shift:shift + n]


def _conv_shapes(x: Tensor, weights: Tensor, bias: Tensor | None):
    if x.ndim != 4:
        raise ShapeError(f"conv3d input must be (C,D,H,W), got shape {x.shape}")
    if weights.ndim != 5:
        raise ShapeError(f"conv3d weights must be (Cout,Cin,k,k,k), got shape {weights.shape}")
    c_out, c_in, k, k2, k3 = weights.shape
    if not k == k2 == k3:
        raise ShapeError(f"conv3d kernel must be cubic, got {weights.shape[2:]}")
    if k % 2 != 1:
        raise ShapeError(f"conv3d kernel size must be odd, got {k}")
    if c_in != x.shape[0]:
        raise ShapeError(f"conv3d channel mismatch: input {x.shape[0]}, weights expect {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv3d bias must be ({c_out},), got {bias.shape}")
    return c_out, c_in, k


def conv3d_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """out[o,z,y,x] = bias[o] + sum_{c,dz,dy,dx} w[o,c,dz,dy,dx] * in[c,z+dz-p,y+dy-p,x+dx-p].

    Per z-slab of ``depth`` output planes: the slab's columns (Cin*k*k rows by
    (depth+k-1)*Hp*Wp) are copied from the flat padded input, then k GEMMs,
    one per dz, ``w[:, :, dz]`` (Cout x Cin*k*k) times the column window at
    offset dz*Hp*Wp, accumulate the slab's (Cout x depth*Hp*Wp) output, whose
    padding columns are cropped as the bias is added.
    """
    c_out, c_in, k = _conv_shapes(x, weights, bias)
    _, d, h, w = x.shape
    flat, hp, wp = _flat_padded(x, k)
    plane = hp * wp
    rows = c_in * k * k
    depth = max(1, min(d, SLAB_BYTES // (8 * rows * plane) - (k - 1)))
    w_dz = np.ascontiguousarray(weights.transpose(2, 0, 1, 3, 4)).reshape(k, c_out, rows)
    col_buf = np.empty(rows * (depth + k - 1) * plane)
    acc_buf = np.empty(c_out * depth * plane)
    out = np.empty((c_out, d, h, w))
    for z0 in range(0, d, depth):
        nz = min(depth, d - z0)
        span = nz * plane
        cols = col_buf[:rows * (span + (k - 1) * plane)].reshape(rows, -1)
        _fill_columns(cols, flat, k, wp, z0 * plane)
        acc = acc_buf[:c_out * span].reshape(c_out, span)
        np.matmul(w_dz[0], cols[:, :span], out=acc)
        for dz in range(1, k):
            acc += w_dz[dz] @ cols[:, dz * plane:dz * plane + span]
        np.add(acc.reshape(c_out, nz, hp, wp)[:, :, :h, :w], bias[:, None, None, None],
               out=out[:, z0:z0 + nz])
    return out


def _weight_grad(x: Tensor, d_output: Tensor, k: int) -> Tensor:
    """d_weights of a conv: the padded d_output times each transposed dz window.

    A function of its own so that its column matrix is freed before the
    d_input conv builds its slabs: with both alive, the allocator returned and
    re-faulted that memory on every call, which doubled the backward's time.
    """
    c_in, d, h, w = x.shape
    c_out = d_output.shape[0]
    flat, hp, wp = _flat_padded(x, k)
    plane = hp * wp
    span = d * plane
    cols = np.empty((c_in * k * k, (d + k - 1) * plane))
    _fill_columns(cols, flat, k, wp, 0)
    d_padded = np.zeros((c_out, d, hp, wp))
    d_padded[:, :, :h, :w] = d_output
    d_padded = d_padded.reshape(c_out, span)
    d_weights = np.empty((c_out, c_in, k, k, k))
    for dz in range(k):
        window = cols[:, dz * plane:dz * plane + span]
        d_weights[:, :, dz] = (d_padded @ window.T).reshape(c_out, c_in, k, k)
    return d_weights


def conv3d_backward(
    x: Tensor, weights: Tensor, d_output: Tensor, need_dx: bool = True
) -> tuple[Tensor | None, Tensor, Tensor]:
    """Gradients of :func:`conv3d_forward`: (d_input or None unless need_dx, d_weights, d_bias).

    ``d_w[:, :, dz]`` is the zero-padded d_output times the transposed dz column
    window of the forward. d_input is the same-padded correlation of d_output
    with the spatially flipped, channel-swapped kernel, i.e. one more forward.
    A caller whose input is raw data (the encoder's first conv) passes
    ``need_dx=False``: nothing reads that gradient, and it is the costlier half.
    """
    c_out, c_in, k = _conv_shapes(x, weights, None)
    if d_output.shape != (c_out,) + x.shape[1:]:
        raise ShapeError(f"conv3d d_output shape {d_output.shape} != {(c_out,) + x.shape[1:]}")
    d_bias = d_output.reshape(c_out, -1).sum(axis=1)
    d_weights = _weight_grad(x, d_output, k)
    d_x = None
    if need_dx:
        w_flip = weights.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
        d_x = conv3d_forward(d_output, w_flip, np.zeros(c_in))
    return d_x, d_weights, d_bias


# ---------------------------------------------------------------------------
# 2x2x2 max pooling


def _pooled_shape(x: Tensor) -> tuple[int, int, int, int]:
    c, d, h, w = x.shape
    if d % 2 or h % 2 or w % 2:
        raise ShapeError(f"maxpool3d requires even spatial extents, got {x.shape[1:]}")
    return c, d // 2, h // 2, w // 2


@lru_cache(maxsize=16)
def _pool_index(c: int, d: int, h: int, w: int) -> tuple[Tensor, Tensor]:
    """Flat index of each window's first voxel, and each slot's offset from it.

    Slots are numbered (dz,dy,dx) with dx fastest, so a window's argmax over
    its slots is its lowest linear index holding the max.
    """
    first = (np.arange(c)[:, None, None, None] * (d * h * w)
             + np.arange(0, d, 2)[:, None, None] * (h * w)
             + np.arange(0, h, 2)[:, None] * w
             + np.arange(0, w, 2)).reshape(-1)
    offset = np.array([dz * h * w + dy * w + dx for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)])
    first.flags.writeable = offset.flags.writeable = False
    return first, offset


def maxpool3d_forward(x: Tensor) -> Tensor:
    _pooled_shape(x)
    m = np.maximum(x[:, :, :, 0::2], x[:, :, :, 1::2])
    m = np.maximum(m[:, :, 0::2], m[:, :, 1::2])
    return np.maximum(m[:, 0::2], m[:, 1::2])


def maxpool3d_backward(x: Tensor, d_output: Tensor) -> Tensor:
    c, d2, h2, w2 = _pooled_shape(x)
    if d_output.shape != (c, d2, h2, w2):
        raise ShapeError(f"maxpool3d d_output shape {d_output.shape} != {(c, d2, h2, w2)}")
    win = x.reshape(c, d2, 2, h2, 2, w2, 2).transpose(0, 1, 3, 5, 2, 4, 6).reshape(-1, 8)
    first, offset = _pool_index(*x.shape)
    d_x = np.zeros(x.size, dtype=x.dtype)
    # ties: argmax takes the first slot, the lowest linear index
    d_x[first + offset[win.argmax(axis=1)]] = d_output.reshape(-1)
    return d_x.reshape(x.shape)


# ---------------------------------------------------------------------------
# pointwise and dense layers


def relu_forward(x: Tensor) -> Tensor:
    return np.maximum(x, 0.0)


def relu_backward(x: Tensor, d_output: Tensor) -> Tensor:
    if x.shape != d_output.shape:
        raise ShapeError(f"relu d_output shape {d_output.shape} != {x.shape}")
    return d_output * (x > 0.0)


def dense_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    if x.ndim != 1 or weights.ndim != 2:
        raise ShapeError("dense expects vector input and (m,n) weights")
    m, n = weights.shape
    if x.shape != (n,):
        raise ShapeError(f"dense input shape {x.shape} != ({n},)")
    if bias.shape != (m,):
        raise ShapeError(f"dense bias shape {bias.shape} != ({m},)")
    return weights @ x + bias


def dense_backward(x: Tensor, weights: Tensor, d_output: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    m, n = weights.shape
    if x.shape != (n,) or d_output.shape != (m,):
        raise ShapeError(f"dense backward shapes {x.shape}/{d_output.shape} != ({n},)/({m},)")
    return weights.T @ d_output, np.outer(d_output, x), d_output.copy()


def l2_normalize_forward(v: Tensor) -> Tensor:
    if v.ndim != 1:
        raise ShapeError(f"l2_normalize expects a vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_TOL:
        raise ValueError(f"l2_normalize: vector norm {norm} below {ZERO_NORM_TOL}")
    return v / norm


def l2_normalize_backward(v: Tensor, d_output: Tensor) -> Tensor:
    if v.shape != d_output.shape:
        raise ShapeError(f"l2_normalize d_output shape {d_output.shape} != {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_TOL:
        raise ValueError(f"l2_normalize: vector norm {norm} below {ZERO_NORM_TOL}")
    z = v / norm
    return (d_output - z * (z @ d_output)) / norm
