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
matrix of Cin*k*k rows, and the forward is k GEMMs, one per dz, over windows
of it that differ only in their start. That matrix is the largest temporary:
Cin*k*k rows by (D+k-1)(H+k-1)(W+k-1), where im2col would need Cin*k^3 rows
by D*H*W. The weight gradient reuses the same windows; the input gradient is
the flipped-kernel convolution, which a caller skips (``need_dx=False``) when
its input is raw data, as the encoder's first layer does.
"""

from __future__ import annotations

import numpy as np

Tensor = np.ndarray

ZERO_NORM_TOL = 1e-12


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


# ---------------------------------------------------------------------------
# 3D convolution (stride 1, same padding) on a flat padded grid
#
# With the input zero-padded by p = k//2 to (Dp,Hp,Wp), output voxel (z,y,x)
# is computed at flat index q = z*Hp*Wp + y*Wp + x, and tap (dz,dy,dx) reads
# flat index q + dz*Hp*Wp + dy*Wp + dx. Indices q with y >= H or x >= W are
# junk outputs whose taps wrap into the next row or plane; they are cropped
# off and feed no kept output, so the wrap is harmless.


def _shifted_columns(x: Tensor, k: int) -> tuple[Tensor, int, int]:
    """(C,D,H,W) -> (C*k*k, Dp*Hp*Wp) columns of the flat padded grid, Hp, Wp.

    Row (c,dy,dx) holds flat padded channel c shifted left by dy*Wp + dx, so
    the window of columns starting at dz*Hp*Wp is the (c,dz,dy,dx) operand of
    every output voxel. Each row is one contiguous slice copy.
    """
    c, d, h, w = x.shape
    p = k // 2
    dp, hp, wp = d + 2 * p, h + 2 * p, w + 2 * p
    n = dp * hp * wp
    # (k-1)*(Wp+1) trailing zeros keep the last shifted slice in bounds; only
    # junk outputs read them, and the weight gradient multiplies them by zero
    flat = np.zeros((c, n + (k - 1) * (wp + 1)))
    flat[:, :n].reshape(c, dp, hp, wp)[:, p:p + d, p:p + h, p:p + w] = x
    cols = np.empty((c, k, k, n))
    for dy in range(k):
        for dx in range(k):
            shift = dy * wp + dx
            cols[:, dy, dx] = flat[:, shift:shift + n]
    return cols.reshape(c * k * k, n), hp, wp


def _conv_shapes(x: Tensor, weights: Tensor, bias: Tensor | None):
    _check(x.ndim == 4, f"conv3d input must be (C,D,H,W), got shape {x.shape}")
    _check(weights.ndim == 5, f"conv3d weights must be (Cout,Cin,k,k,k), got shape {weights.shape}")
    c_out, c_in, k, k2, k3 = weights.shape
    _check(k == k2 == k3, f"conv3d kernel must be cubic, got {weights.shape[2:]}")
    _check(k % 2 == 1, f"conv3d kernel size must be odd, got {k}")
    _check(c_in == x.shape[0], f"conv3d channel mismatch: input {x.shape[0]}, weights expect {c_in}")
    if bias is not None:
        _check(bias.shape == (c_out,), f"conv3d bias must be ({c_out},), got {bias.shape}")
    return c_out, c_in, k


def conv3d_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """out[o,z,y,x] = bias[o] + sum_{c,dz,dy,dx} w[o,c,dz,dy,dx] * in[c,z+dz-p,y+dy-p,x+dx-p].

    k GEMMs, one per dz: ``w[:, :, dz]`` (Cout x Cin*k*k) times the column
    window at offset dz*Hp*Wp, accumulated into a (Cout x D*Hp*Wp) output whose
    padding columns are then cropped. The largest temporary is the column
    matrix, Cin*k*k rows by Dp*Hp*Wp: about k times smaller than the
    D*H*W by Cin*k^3 im2col matrix (2.8x at 80^3, k=3).
    """
    c_out, _, k = _conv_shapes(x, weights, bias)
    _, d, h, w = x.shape
    cols, hp, wp = _shifted_columns(x, k)
    plane = hp * wp
    span = d * plane
    out = weights[:, :, 0].reshape(c_out, -1) @ cols[:, :span]
    for dz in range(1, k):
        out += weights[:, :, dz].reshape(c_out, -1) @ cols[:, dz * plane:dz * plane + span]
    return out.reshape(c_out, d, hp, wp)[:, :, :h, :w] + bias[:, None, None, None]


def _weight_grad(x: Tensor, d_output: Tensor, k: int) -> Tensor:
    """d_weights of a conv: the padded d_output times each transposed dz window.

    A function of its own so that its column matrix is freed before the
    d_input conv builds another: with both alive, the allocator returned and
    re-faulted that memory on every call, which doubled the backward's time.
    """
    c_in, d, h, w = x.shape
    c_out = d_output.shape[0]
    cols, hp, wp = _shifted_columns(x, k)
    plane = hp * wp
    span = d * plane
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
    _check(d_output.shape == (c_out,) + x.shape[1:],
           f"conv3d d_output shape {d_output.shape} != {(c_out,) + x.shape[1:]}")
    d_bias = d_output.reshape(c_out, -1).sum(axis=1)
    d_weights = _weight_grad(x, d_output, k)
    d_x = None
    if need_dx:
        w_flip = np.ascontiguousarray(weights.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1])
        d_x = conv3d_forward(d_output, w_flip, np.zeros(c_in))
    return d_x, d_weights, d_bias


# ---------------------------------------------------------------------------
# 2x2x2 max pooling


def _pool_windows(x: Tensor):
    c, d, h, w = x.shape
    _check(d % 2 == 0 and h % 2 == 0 and w % 2 == 0,
           f"maxpool3d requires even spatial extents, got {x.shape[1:]}")
    # window axis is ordered (dz,dy,dx), dx fastest == ascending linear index
    win = x.reshape(c, d // 2, 2, h // 2, 2, w // 2, 2)
    return win.transpose(0, 1, 3, 5, 2, 4, 6).reshape(c, d // 2, h // 2, w // 2, 8)


def maxpool3d_forward(x: Tensor) -> Tensor:
    return _pool_windows(x).max(axis=-1)


def maxpool3d_backward(x: Tensor, d_output: Tensor) -> Tensor:
    win = _pool_windows(x)
    _check(d_output.shape == win.shape[:4],
           f"maxpool3d d_output shape {d_output.shape} != {win.shape[:4]}")
    am = win.argmax(axis=-1)  # ties: first occurrence == lowest linear index
    c, d2, h2, w2 = am.shape
    dz, rem = np.divmod(am, 4)
    dy, dx = np.divmod(rem, 2)
    ci, zi, yi, xi = np.indices((c, d2, h2, w2), sparse=True)
    d_x = np.zeros_like(x)
    d_x[ci, zi * 2 + dz, yi * 2 + dy, xi * 2 + dx] = d_output
    return d_x


# ---------------------------------------------------------------------------
# pointwise and dense layers


def relu_forward(x: Tensor) -> Tensor:
    return np.maximum(x, 0.0)


def relu_backward(x: Tensor, d_output: Tensor) -> Tensor:
    _check(x.shape == d_output.shape, f"relu d_output shape {d_output.shape} != {x.shape}")
    return d_output * (x > 0.0)


def dense_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    _check(x.ndim == 1 and weights.ndim == 2, "dense expects vector input and (m,n) weights")
    m, n = weights.shape
    _check(x.shape == (n,), f"dense input shape {x.shape} != ({n},)")
    _check(bias.shape == (m,), f"dense bias shape {bias.shape} != ({m},)")
    return weights @ x + bias


def dense_backward(x: Tensor, weights: Tensor, d_output: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    m, n = weights.shape
    _check(x.shape == (n,) and d_output.shape == (m,),
           f"dense backward shapes {x.shape}/{d_output.shape} != ({n},)/({m},)")
    return weights.T @ d_output, np.outer(d_output, x), d_output.copy()


def l2_normalize_forward(v: Tensor) -> Tensor:
    _check(v.ndim == 1, f"l2_normalize expects a vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_TOL:
        raise ValueError(f"l2_normalize: vector norm {norm} below {ZERO_NORM_TOL}")
    return v / norm


def l2_normalize_backward(v: Tensor, d_output: Tensor) -> Tensor:
    _check(v.shape == d_output.shape, f"l2_normalize d_output shape {d_output.shape} != {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_TOL:
        raise ValueError(f"l2_normalize: vector norm {norm} below {ZERO_NORM_TOL}")
    z = v / norm
    return (d_output - z * (z @ d_output)) / norm
