"""Dense float64 tensor ops with hand-derived backward passes.

Tensors are plain C-ordered ``numpy.ndarray`` of float64. Every backward here
returns exact gradients of the corresponding forward map; the test suite pins
them against central finite differences and nested-loop oracles. A backward
returns what its caller reads: d_input alone for relu, pooling and l2
normalisation, and (d_input, d_weights, d_bias) for dense and conv layers.
Convolutions are stride-1 with same padding (k odd) only, pooling is disjoint
2x2x2 — the minimal vocabulary for a VGG-style volumetric encoder.

Conv and pool tensors have one layout, (C, D, H, W, B): B views, innermost;
dense layers and l2 normalisation take (B, n) rows, one per view. Training
and embedding both run chunks of several views where the encoder's convs
allow it (5 at 8^3, 1 at 16^3 and 80^3), because at small extents a one-view
conv is bound by copying runs of W doubles, and B views make every run W*B
long.

Each dense or l2 row has the bits of a one-row call: ``np.matmul`` over a
stack of (n, 1) columns makes the GEMV (or dot) per row that one vector
makes, where a (B, n) GEMM sums in another order (OpenBLAS 0.3.31: rows
1e-15 to 4.3e-13 off at the head shapes, B >= 2). d_weights and d_bias add
the rows' terms in row order, the sum of the one-view gradients.

Convolutions run over z-slabs of column rows. Column row (c,dy,dx) of a slab
of nz output planes holds channel c over those planes and k-1 halo planes,
shifted by (dy-p, dx-p) with zeros where the tap leaves the volume: every
view of a voxel side by side, W and B merged into runs of W*B. A row holds
one entry per output voxel and view and nothing else, and the dz window of a
slab is its columns from dz*H*W*B on. One helper fills the slabs. It copies
a slab's planes, contiguous per channel, into a buffer with a zero margin of
p rows and p voxels at either end, and then fills every row in one strided
copy: row (c,dy,dx) starts dy*W*B + dx*B into channel c's planes. A tap
whose x or y leaves the volume reads the neighbouring row or plane (or the
margin) there, so the copy is followed by zeroing the first or last |dx-p|
voxels of each voxel row and |dy-p| rows of each plane. Every slab is filled
into one buffer whose size ``SLAB_BYTES`` caps, so the k GEMMs of a slab
read its columns from cache rather than memory (c8-8 at 16^3: 0.74 MB per
slab of 3 planes, where the whole grid would be 2.65 MB), and no padded copy
of the input is made. A forward or a backward fills one column set:

- the forward, x's: per slab, k GEMMs, one per dz, write the slab's output in
  place, then the bias is added;
- the backward, d_output's, whose dz windows hold every operand of both
  gradients (Chellapilla, Puri & Simard, 2006): per slab and dz, the flipped
  kernel times the window adds to d_x, and x's slab times its transpose to
  d_w. Without d_x (``need_dx=False``, the encoder's first layer), x's.

Every output element of a forward sums the same Cin*k*k products per dz in
the same order whatever the slab depth and whatever the number of views
beside it: a view's column holds the same entries in the same rows. OpenBLAS,
though, computes the last columns of a GEMM whose column count is not a
multiple of 8 (and every column of a one-row product) with other kernels,
whose sum order can differ. A slab has H*W*B columns per plane, a multiple
of 8 for every conv of the encoder at any B, except in a one-plane slab of a
2^3 conv at odd B, which ``SLAB_BYTES`` gives only from 22 views on. So on
the encoder's shapes the forward and the input gradient give each view the
bits of a one-view, whole-grid conv (the tests pin them). The weight
gradient is a sum over the output voxels, which the slabs of the filled
columns group into partial sums, so its bits depend on B and on their slab
depth: d_output's, set by Cout, or x's without d_x. It agrees with a
tap-by-tap sum to within 3e-15 relative on the encoder's shapes, as one
whole-grid GEMM does, but a training run's loss can differ in its last digits
from a run under another grouping.

Pooling takes the max of the two halves of each axis in turn (x, then y, then
z) over strided views, with no copy of the windows. Training keeps a pool's
route, :func:`maxpool3d_route`, in place of its input: one uint8 per window
naming the slot of the lowest linear index that holds the max, the argmax
over the window's eight slots, 1/64 of the input's bytes. The backward takes
the route and sends each window's gradient to that slot through one flat
scatter. The relu before a pool is masked in its output: the max
of a window is > 0 exactly where its routed voxel is, so a caller that
multiplies d_output by ``pooled > 0`` before the scatter gets the bits of
masking the scattered gradient by ``x > 0`` after it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

Tensor = np.ndarray

ZERO_NORM_TOL = 1e-12

# Column bytes of one conv z-slab, halo planes included: small enough that a
# slab's columns stay in a 2 MiB L2 cache while its k GEMMs read them. On a
# 2-vCPU x86-64 VM, a whole 16^3 encoder step per view ran alike (within 3%)
# with budgets of 768 KiB to 1.25 MiB, and 15-18% slower with 512 KiB (c8-8 in
# one-plane slabs) or 1.5 MiB (c8-8 in two slabs of 8 planes).
SLAB_BYTES = 768 << 10


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


# ---------------------------------------------------------------------------
# 3D convolution (stride 1, same padding) over z-slabs of column rows
#
# With p = k//2, tap (dz,dy,dx) of output voxel (z,y,x) of view v reads
# x[c, z+dz-p, y+dy-p, x+dx-p, v], or 0 outside x.


def slab_views(c: int, h: int, w: int, k: int) -> int:
    """The most views, at least 1, that :func:`_column_slabs` fills in z-slabs
    of at least k-1 planes for a k^3 conv of c channels of h x w planes, so
    that no slab refills more halo planes than it computes: B views give
    ``SLAB_BYTES // (8 * c * k * k * h * w * B) - (k-1)`` planes a slab."""
    return max(1, SLAB_BYTES // (8 * c * k * k * h * w * 2 * (k - 1)))


def _column_slabs(x: Tensor, k: int):
    """Yield (z0, nz, cols) over the output z-slabs of a same-padded conv of x.

    ``cols`` is (C*k*k, (nz+k-1)*H*W*B): row (c,dy,dx) holds
    ``x[c, z0-p+z', y+dy-p, x+dx-p, :]`` at column (z',y,x), 0 outside x, so
    the window of nz*H*W*B columns from dz*H*W*B on is the (c,dz,dy,dx)
    operand of the slab's output voxels, in their order. The slab depth is
    the largest whose columns fit ``SLAB_BYTES`` (at least one plane), and
    every slab is filled into one buffer, so a caller must finish with
    ``cols`` before asking for the next slab.

    Per slab, planes z0-p..z0+nz+p-1 of x (zeros outside it) are copied into
    ``src``, between zero margins of p rows and p voxels, and one copy from
    ``taps``, a fixed-stride view of ``src`` whose row (c,dy,dx) starts at
    dy*W*B + dx*B, fills every row. An entry whose tap leaves x along x or y
    reads a neighbouring row or plane (or the margin) there, and is zeroed
    after the copy.
    """
    c, d, h, w, b = x.shape
    p = k // 2
    run = w * b  # one voxel row of every view, contiguous in x and in src
    plane = h * run
    rows = c * k * k
    depth = max(1, min(d, SLAB_BYTES // (8 * rows * plane) - (k - 1)))
    span = (depth + k - 1) * plane
    margin = p * run + p * b  # the reach of tap (0, 0) back from column 0
    src = np.zeros((c, margin + span + margin))
    step = src.itemsize
    taps = np.ndarray((c, k, k, span), buffer=src,
                      strides=(src.strides[0], run * step, b * step, step))
    buf = np.empty(rows * span)
    for z0 in range(0, d, depth):
        nz = min(depth, d - z0)
        n = nz + k - 1
        lo, hi = max(z0 - p, 0), min(z0 + nz + p, d)  # the slab's planes inside x
        planes = src[:, margin:margin + n * plane].reshape(c, n, h, w, b)
        start = lo - (z0 - p)
        planes[:, :start] = 0
        planes[:, start:start + hi - lo] = x[:, lo:hi]
        planes[:, start + hi - lo:] = 0
        cols = buf[:rows * n * plane].reshape(c, k, k, n * plane)
        np.copyto(cols, taps[..., :n * plane])
        edges = cols.reshape(c, k, k, n, h, w, b)
        for s in range(1, p + 1):  # zero the taps that wrapped round an x or y edge
            ex, ey = min(s, w), min(s, h)
            edges[:, :, p - s, :, :, :ex] = edges[:, :, p + s, :, :, w - ex:] = 0
            edges[:, p - s, :, :, :ey] = edges[:, p + s, :, :, h - ey:] = 0
        yield z0, nz, cols.reshape(rows, -1)


def _conv_shapes(x: Tensor, weights: Tensor, bias: Tensor | None):
    if x.ndim != 5:
        raise ShapeError(f"conv3d input must be (C,D,H,W,B), got shape {x.shape}")
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
    """out[o,z,y,x,v] = bias[o] + sum_{c,dz,dy,dx} w[o,c,dz,dy,dx] * in[c,z+dz-p,y+dy-p,x+dx-p,v].

    Per z-slab of nz output planes, k GEMMs, one per dz, ``w[:, :, dz]``
    (Cout x Cin*k*k) times the slab's column window at dz*H*W*B, accumulate
    the slab's (Cout x nz*H*W*B) output in place, and the bias is added last.
    """
    c_out, c_in, k = _conv_shapes(x, weights, bias)
    _, d, h, w, b = x.shape
    plane = h * w * b
    w_dz = np.ascontiguousarray(weights.transpose(2, 0, 1, 3, 4)).reshape(k, c_out, -1)
    out = np.empty((c_out, d, h, w, b))
    out_flat = out.reshape(c_out, d * plane)
    for z0, nz, cols in _column_slabs(x, k):
        span = nz * plane
        acc = out_flat[:, z0 * plane:z0 * plane + span]
        np.matmul(w_dz[0], cols[:, :span], out=acc)
        for dz in range(1, k):
            acc += w_dz[dz] @ cols[:, dz * plane:dz * plane + span]
        acc += bias[:, None]
    return out


def conv3d_backward(
    x: Tensor, weights: Tensor, d_output: Tensor, need_dx: bool = True
) -> tuple[Tensor | None, Tensor, Tensor]:
    """Gradients of :func:`conv3d_forward`: (d_input or None unless need_dx, d_weights, d_bias).

    One slab loop over d_output's columns: d_input is their correlation with
    the spatially flipped, channel-swapped kernel, and ``g[dz] += x_slab @
    window.T`` gives the weight gradient, tap-flipped. A caller whose input is
    raw data (the encoder's first conv) passes ``need_dx=False``: nothing reads
    that gradient, so the loop fills x's columns, Cin/Cout as many rows, and
    adds ``d_output_slab @ window.T``.
    """
    c_out, c_in, k = _conv_shapes(x, weights, None)
    if d_output.shape != (c_out,) + x.shape[1:]:
        raise ShapeError(f"conv3d d_output shape {d_output.shape} != {(c_out,) + x.shape[1:]}")
    d_bias = d_output.reshape(c_out, -1).sum(axis=1)
    plane = x[0, 0].size  # H*W*B
    if need_dx:
        # w_dz[dz] of the flipped, channel-swapped kernel, as conv3d_forward builds it
        w_dz = np.ascontiguousarray(weights[:, :, ::-1, ::-1, ::-1].transpose(2, 1, 0, 3, 4)).reshape(k, c_in, -1)
        d_x = np.empty(x.shape)
        filled, other = d_output, x.reshape(c_in, -1)
    else:
        d_x, filled, other = None, x, d_output.reshape(c_out, -1)
    g = np.zeros((k, other.shape[0], filled.shape[0] * k * k))
    for z0, nz, cols in _column_slabs(filled, k):
        lo, hi = z0 * plane, (z0 + nz) * plane
        windows = [cols[:, dz * plane:dz * plane + hi - lo] for dz in range(k)]
        for dz in range(k):
            g[dz] += other[:, lo:hi] @ windows[dz].T
        if need_dx:
            acc = d_x.reshape(c_in, -1)[:, lo:hi]
            np.matmul(w_dz[0], windows[0], out=acc)
            for dz in range(1, k):
                acc += w_dz[dz] @ windows[dz]
            acc += 0.0  # the forward's zero bias: a -0.0 sum leaves as +0.0
    if need_dx:
        # g[dz][c, (o, dy, dx)] is the gradient of w[o, c, k-1-dz, k-1-dy, k-1-dx]
        d_w = g.reshape(k, c_in, c_out, k, k).transpose(2, 1, 0, 3, 4)[:, :, ::-1, ::-1, ::-1]
    else:
        d_w = g.reshape(k, c_out, c_in, k, k).transpose(1, 2, 0, 3, 4)
    return d_x, np.ascontiguousarray(d_w), d_bias


# ---------------------------------------------------------------------------
# 2x2x2 max pooling, per view


def _pooled_shape(x: Tensor) -> tuple[int, int, int, int, int]:
    if x.ndim != 5:
        raise ShapeError(f"maxpool3d input must be (C,D,H,W,B), got shape {x.shape}")
    c, d, h, w, b = x.shape
    if d % 2 or h % 2 or w % 2:
        raise ShapeError(f"maxpool3d requires even spatial extents, got {x.shape[1:4]}")
    return c, d // 2, h // 2, w // 2, b


@lru_cache(maxsize=16)
def _pool_index(c: int, d: int, h: int, w: int, b: int) -> tuple[Tensor, Tensor]:
    """Flat index of each window's first voxel, and each slot's offset from it.

    Windows are numbered (c, z, y, x, view), as the pooled output; slots are
    numbered (dz,dy,dx) with dx fastest, so a window's argmax over its slots
    is its lowest linear index holding the max.
    """
    first = (np.arange(c)[:, None, None, None, None] * (d * h * w * b)
             + np.arange(0, d, 2)[:, None, None, None] * (h * w * b)
             + np.arange(0, h, 2)[:, None, None] * (w * b)
             + np.arange(0, w, 2)[:, None] * b
             + np.arange(b)).reshape(-1)
    offset = np.array([dz * h * w * b + dy * w * b + dx * b
                       for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)])
    first.flags.writeable = offset.flags.writeable = False
    return first, offset


def maxpool3d_forward(x: Tensor) -> Tensor:
    _pooled_shape(x)
    m = np.maximum(x[:, :, :, 0::2], x[:, :, :, 1::2])
    m = np.maximum(m[:, :, 0::2], m[:, :, 1::2])
    return np.maximum(m[:, 0::2], m[:, 1::2])


def maxpool3d_route(x: Tensor) -> Tensor:
    """Each window's argmax slot, 4*dz + 2*dy + dx, as uint8 of the pooled
    shape: the lowest linear index holding the window's max (or its first
    NaN), the voxel :func:`maxpool3d_backward` sends the window's gradient to."""
    c, d2, h2, w2, b = _pooled_shape(x)
    win = x.reshape(c, d2, 2, h2, 2, w2, 2, b).transpose(0, 1, 3, 5, 7, 2, 4, 6).reshape(-1, 8)
    return win.argmax(axis=1).astype(np.uint8).reshape(c, d2, h2, w2, b)


def maxpool3d_backward(route: Tensor, d_output: Tensor) -> Tensor:
    """d_input of a pool whose :func:`maxpool3d_route` is route: each
    window's d_output at its routed voxel, 0 elsewhere."""
    if route.ndim != 5 or d_output.shape != route.shape:
        raise ShapeError(f"maxpool3d d_output shape {d_output.shape} != route shape {route.shape}")
    c, d2, h2, w2, b = route.shape
    shape = (c, 2 * d2, 2 * h2, 2 * w2, b)
    first, offset = _pool_index(*shape)
    d_x = np.zeros(shape)
    d_x.reshape(-1)[first + offset[route.reshape(-1)]] = d_output.reshape(-1)
    return d_x


# ---------------------------------------------------------------------------
# pointwise layers, and dense layers and l2 normalisation over (B, n) rows


def relu_backward(x: Tensor, d_output: Tensor) -> Tensor:
    """d_output where the relu passed its input, 0 elsewhere.

    x may be the pre-activation or the relu output: ``relu(x) > 0`` exactly
    where ``x > 0`` (a NaN or -0.0 input gives a NaN or zero output, and
    neither is > 0), so both give the same bits.
    """
    if x.shape != d_output.shape:
        raise ShapeError(f"relu d_output shape {d_output.shape} != {x.shape}")
    return d_output * (x > 0.0)


def dense_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    m, n = weights.shape
    if x.ndim != 2 or x.shape[1] != n or bias.shape != (m,):
        raise ShapeError(f"dense shapes {x.shape}/{bias.shape} != (B,{n})/({m},)")
    return np.matmul(weights, x[:, :, None])[:, :, 0] + bias


def dense_backward(x: Tensor, weights: Tensor, d_output: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    m, n = weights.shape
    if x.ndim != 2 or x.shape[1] != n or d_output.shape != (len(x), m):
        raise ShapeError(f"dense backward shapes {x.shape}/{d_output.shape} != (B,{n})/(B,{m})")
    d_x = np.matmul(weights.T, d_output[:, :, None])[:, :, 0]
    return d_x, (d_output[:, :, None] * x[:, None, :]).sum(axis=0), d_output.sum(axis=0)


def _unit_rows(v: Tensor) -> tuple[Tensor, Tensor]:
    """(v / norm, norm), norm the (B, 1) column of row norms; one below ZERO_NORM_TOL raises ValueError."""
    if v.ndim != 2:
        raise ShapeError(f"l2_normalize expects (B,n) rows, got shape {v.shape}")
    norm = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0])
    small = norm[norm < ZERO_NORM_TOL]
    if small.size:
        raise ValueError(f"l2_normalize: row norm {small[0]} below {ZERO_NORM_TOL}")
    return v / norm, norm


def l2_normalize_forward(v: Tensor) -> Tensor:
    return _unit_rows(v)[0]


def l2_normalize_backward(v: Tensor, d_output: Tensor) -> Tensor:
    if v.shape != d_output.shape:
        raise ShapeError(f"l2_normalize d_output shape {d_output.shape} != {v.shape}")
    z, norm = _unit_rows(v)
    return (d_output - z * np.matmul(z[:, None, :], d_output[:, :, None])[:, 0]) / norm
