import numpy as np
import pytest

from synself import numcore as nc
from helpers import traced_peak
from oracles import (central_diff, column_slabs_loops, conv3d_flat_grid, conv3d_loops,
                     conv3d_weight_grad_taps, grad_close, maxpool3d_backward_loops, maxpool3d_loops,
                     maxpool3d_route_loops)


def rand_conv_case(rng, c_in=None, c_out=None, k=3, spatial=None, views=1):
    c_in = c_in or int(rng.integers(1, 4))
    c_out = c_out or int(rng.integers(1, 4))
    d, h, w = spatial or rng.integers(2, 6, size=3)
    x = rng.normal(size=(c_in, d, h, w, views))
    wts = rng.normal(size=(c_out, c_in, k, k, k)) / np.sqrt(c_in * k**3)
    b = rng.normal(size=c_out)
    return x, wts, b


# (k, (D,H,W)): non-cubic extents, and extents of 1 or below k, where most
# taps read the zero padding
SHAPE_CASES = [
    (1, (3, 4, 5)),
    (3, (1, 1, 1)),
    (3, (1, 2, 3)),
    (3, (4, 1, 6)),
    (3, (2, 5, 3)),
    (5, (1, 1, 1)),
    (5, (1, 2, 3)),
    (5, (4, 1, 6)),
    (5, (3, 6, 2)),
]


# (c_in, c_out, (D,H,W)): the encoder's twelve convs, at patch sides 16 and 8
ENCODER_CONVS = [(c_in, c_out, (s, s, s)) for side in (16, 8)
                 for c_in, c_out, s in [(1, 8, side), (8, 8, side), (8, 16, side // 2),
                                        (16, 16, side // 2), (16, 32, side // 4),
                                        (32, 32, side // 4)]]


class TestConvForward:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3, 3, 3, 1))
        w = np.ones((1, 1, 1, 1, 1))
        y = nc.conv3d_forward(x, w, np.zeros(1))
        assert np.array_equal(y, x)

    def test_all_ones_counting(self):
        x = np.ones((1, 4, 4, 4, 1))
        w = np.ones((1, 1, 3, 3, 3))
        y = nc.conv3d_forward(x, w, np.zeros(1))
        assert y[0, 1, 1, 1, 0] == 27  # interior
        assert y[0, 0, 0, 0, 0] == 8  # corner

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(42)
        cases = [rand_conv_case(rng) for _ in range(6)]
        cases += [rand_conv_case(rng, k=k, spatial=spatial) for k, spatial in SHAPE_CASES]
        for x, w, b in cases:
            got = nc.conv3d_forward(x, w, b)
            want = conv3d_loops(x, w, b)
            assert np.max(np.abs(got - want)) <= 1e-12, (w.shape, x.shape)

    def test_shape_mismatch(self):
        with pytest.raises(nc.ShapeError):
            nc.conv3d_forward(np.zeros((2, 4, 4, 4, 1)), np.zeros((1, 3, 3, 3, 3)), np.zeros(1))
        with pytest.raises(nc.ShapeError, match=r"\(C,D,H,W,B\)"):
            nc.conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 3, 3, 3)), np.zeros(1))


def _flip(w):
    return np.ascontiguousarray(w.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1])


def _slab_bytes_exceeded(c_in, k, spatial):
    # column bytes of the whole grid, the one-slab case
    d, h, w = spatial
    return 8 * c_in * k * k * (d + k - 1) * h * w > nc.SLAB_BYTES


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# (k, (D,H,W)) of a shape case -> its pass whose bits differ from the flat
# grid's: OpenBLAS computes the last columns of a GEMM whose column count is
# not a multiple of 8 (and every column of a one-row product) with other
# kernels, whose sum order can differ, and there the flat grid's padded count
# and the slabs' count put a kept voxel in different places. Those passes are
# checked against the nested loops instead. Every encoder conv has a multiple
# of 8 columns in both layouts.
KERNEL_BY_COLUMN_COUNT = {(5, (1, 1, 1)): "d_x", (5, (1, 2, 3)): "d_x", (5, (3, 6, 2)): "forward"}


# (c_in, c_out, k, (D,H,W)): c8-8 at 16^3 spans several slabs, and at D=13
# the last one is short; c16-16 at 8^3 and c1-8 at 16^3 are the encoder's
# other block shapes, the k=1 and k=5 shape cases follow, then the encoder
# convs not listed yet
SLAB_CASES = [(8, 8, 3, (16, 16, 16)), (8, 8, 3, (13, 16, 16)), (16, 16, 3, (8, 8, 8)),
              (1, 8, 3, (16, 16, 16))] + [(None, None, k, sp) for k, sp in SHAPE_CASES if k != 3]
SLAB_CASES += [(ci, co, 3, sp) for ci, co, sp in ENCODER_CONVS if (ci, co, 3, sp) not in SLAB_CASES]

# (C, k, (D,H,W)) of a filled column set: the shape cases with 2 channels,
# then x's and d_output's of every encoder conv
COLUMN_CASES = [(2, k, sp) for k, sp in SHAPE_CASES]
COLUMN_CASES += sorted({(c, 3, sp) for ci, co, sp in ENCODER_CONVS for c in (ci, co)})


class TestConvSlabs:
    @pytest.mark.parametrize("views", [1, 5])
    @pytest.mark.parametrize("c,k,spatial", COLUMN_CASES)
    def test_columns_match_loop_oracle(self, monkeypatch, c, k, spatial, views):
        rng = np.random.default_rng(26)
        d, h, w = spatial
        # every other voxel of a wider grid, holding exact zeros of both signs
        wide = rng.normal(size=(c, d, h, 2 * w, views))
        wide[rng.random(wide.shape) < 0.2] = 0.0
        wide[rng.random(wide.shape) < 0.2] = -0.0
        want = {}
        for slab_bytes in (1, nc.SLAB_BYTES, 1 << 40):
            monkeypatch.setattr(nc, "SLAB_BYTES", slab_bytes)
            for x in (wide[:, :, :, ::2], np.ascontiguousarray(wide[:, :, :, ::2])):
                z_end = 0
                for z0, nz, cols in nc._column_slabs(x, k):
                    if (z0, nz) not in want:
                        want[z0, nz] = column_slabs_loops(x, k, z0, nz)
                    assert z0 == z_end
                    assert cols.shape == want[z0, nz].shape
                    assert cols.tobytes() == want[z0, nz].tobytes(), (slab_bytes, z0, nz)
                    z_end = z0 + nz
                assert z_end == d

    def test_fill_allocates_no_padded_copy(self):
        # at most the column buffer and the margin buffer of one slab's planes;
        # a zero-padded copy of x would add 18^3 x 8 x 8 B = 373 kB
        x = np.random.default_rng(27).normal(size=(8, 16, 16, 16, 1))
        depth = next(nc._column_slabs(x, 3))[1]
        buf_bytes = 8 * 8 * 9 * (depth + 2) * 16 * 16
        src_bytes = 8 * 8 * ((depth + 2) * 16 * 16 + 2 * (16 + 1))

        def drain():
            for _ in nc._column_slabs(x, 3):
                pass

        assert traced_peak(drain) <= buf_bytes + src_bytes + 8192

    @pytest.mark.parametrize("c_in,c_out,k,spatial", SLAB_CASES)
    def test_bytes_match_one_flat_grid(self, c_in, c_out, k, spatial):
        rng = np.random.default_rng(14)
        x, w, b = rand_conv_case(rng, c_in=c_in, c_out=c_out, k=k, spatial=spatial)
        d_y = rng.normal(size=(w.shape[0],) + x.shape[1:])
        passes = {"forward": (x, w, b), "d_x": (d_y, _flip(w), np.zeros(x.shape[0]))}
        got = {"forward": nc.conv3d_forward(x, w, b), "d_x": nc.conv3d_backward(x, w, d_y)[0]}
        for name, args in passes.items():
            if KERNEL_BY_COLUMN_COUNT.get((k, spatial)) == name:
                assert np.max(np.abs(got[name] - conv3d_loops(*args))) <= 1e-12, name
            else:
                assert got[name].tobytes() == conv3d_flat_grid(*args).tobytes(), name

    @pytest.mark.parametrize("c_in,c_out,spatial", ENCODER_CONVS + [(8, 8, (13, 16, 16))])
    def test_weight_grad_matches_tap_sums(self, c_in, c_out, spatial):
        rng = np.random.default_rng(17)
        x, w, _ = rand_conv_case(rng, c_in=c_in, c_out=c_out, spatial=spatial)
        d_y = rng.normal(size=(c_out,) + spatial + (1,))
        _, d_w, _ = nc.conv3d_backward(x, w, d_y, need_dx=False)
        assert _rel_err(d_w, conv3d_weight_grad_taps(x, d_y, 3)) <= 1e-12

    def test_one_plane_slabs(self, monkeypatch):
        rng = np.random.default_rng(18)
        x, w, b = rand_conv_case(rng, c_in=8, c_out=8, spatial=(13, 16, 16))
        d_y = rng.normal(size=(8, 13, 16, 16, 1))

        def run():
            return (nc.conv3d_forward(x, w, b),) + nc.conv3d_backward(x, w, d_y)[:2]

        monkeypatch.setattr(nc, "SLAB_BYTES", 1 << 40)
        y_one, d_x_one, d_w_one = run()
        monkeypatch.setattr(nc, "SLAB_BYTES", 1)
        y, d_x, d_w = run()
        assert y.tobytes() == y_one.tobytes()
        assert d_x.tobytes() == d_x_one.tobytes()
        assert _rel_err(d_w, d_w_one) <= 1e-13

    def test_c8_8_at_16_spans_several_slabs(self):
        assert _slab_bytes_exceeded(8, 3, (13, 16, 16))
        assert not _slab_bytes_exceeded(8, 3, (8, 8, 8))  # block 0 at 8^3 is one slab

    def test_peak_memory_under_2_mb(self):
        rng = np.random.default_rng(15)
        x, w, b = rand_conv_case(rng, c_in=8, c_out=8, spatial=(16, 16, 16))
        # one whole-grid column matrix alone is 72 x 18 x 16^2 x 8 B = 2.65 MB
        assert traced_peak(lambda: nc.conv3d_forward(x, w, b)) < 2_000_000

    def test_backward_peak_memory_under_2_mb(self):
        rng = np.random.default_rng(15)
        x, w, _ = rand_conv_case(rng, c_in=8, c_out=8, spatial=(16, 16, 16))
        d_y = rng.normal(size=(8, 16, 16, 16, 1))
        assert traced_peak(lambda: nc.conv3d_backward(x, w, d_y)) < 2_000_000


# (c_in, c_out, k, (D,H,W)) run with several views side by side: small shape
# cases, non-cubic and below k, for the loop oracles, and the encoder's convs
# at 8^3, the side that embedding runs in chunks
VIEW_LOOP_CASES = [(2, 3, 3, (3, 4, 2)), (1, 2, 3, (1, 2, 3)), (2, 1, 1, (2, 3, 2)), (1, 2, 5, (3, 2, 2))]
VIEW_ENCODER_CASES = [(ci, co, 3, sp) for ci, co, sp in ENCODER_CONVS if sp[0] <= 8]


def _one_view(x, v):
    return np.ascontiguousarray(x[..., v:v + 1])


class TestViewAxis:
    """B views side by side: each view's conv and pool, under any slab depth."""

    @pytest.mark.parametrize("slab_bytes", [1, 1 << 40], ids=["one-plane", "whole-grid"])
    @pytest.mark.parametrize("views", [2, 3, 5])
    @pytest.mark.parametrize("c_in,c_out,k,spatial", VIEW_LOOP_CASES)
    def test_conv_matches_loop_oracles(self, monkeypatch, slab_bytes, views, c_in, c_out, k, spatial):
        monkeypatch.setattr(nc, "SLAB_BYTES", slab_bytes)
        rng = np.random.default_rng(19)
        x, w, b = rand_conv_case(rng, c_in=c_in, c_out=c_out, k=k, spatial=spatial, views=views)
        d_y = rng.normal(size=(c_out,) + spatial + (views,))
        d_x, d_w, d_b = nc.conv3d_backward(x, w, d_y)
        assert np.max(np.abs(nc.conv3d_forward(x, w, b) - conv3d_loops(x, w, b))) <= 1e-12
        assert np.max(np.abs(d_x - conv3d_loops(d_y, _flip(w), np.zeros(c_in)))) <= 1e-12
        assert _rel_err(d_w, conv3d_weight_grad_taps(x, d_y, k)) <= 1e-12
        assert np.allclose(d_b, d_y.sum(axis=(1, 2, 3, 4)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slab_bytes", [1, 1 << 40], ids=["one-plane", "whole-grid"])
    @pytest.mark.parametrize("views", [2, 3, 5])
    @pytest.mark.parametrize("c_in,c_out,k,spatial", VIEW_ENCODER_CASES)
    def test_encoder_convs_give_one_view_bits(self, monkeypatch, slab_bytes, views, c_in, c_out, k, spatial):
        # a slab's GEMMs have H*W*B columns per plane; only a one-plane slab of a
        # 2^3 conv at odd B has a count that is not a multiple of 8, and the
        # SLAB_BYTES budget gives those only from 22 views on
        monkeypatch.setattr(nc, "SLAB_BYTES", slab_bytes)
        rng = np.random.default_rng(20)
        x, w, b = rand_conv_case(rng, c_in=c_in, c_out=c_out, k=k, spatial=spatial, views=views)
        d_y = rng.normal(size=(c_out,) + spatial + (views,))
        got = {"forward": nc.conv3d_forward(x, w, b), "d_x": nc.conv3d_backward(x, w, d_y)[0]}
        want = {"forward": conv3d_flat_grid(x, w, b), "d_x": conv3d_flat_grid(d_y, _flip(w), np.zeros(c_in))}
        for name in want:
            if slab_bytes == 1 and spatial[1] * spatial[2] * views % 8:
                assert _rel_err(got[name], want[name]) <= 1e-13, name
            else:
                assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("views", [2, 3, 5])
    @pytest.mark.parametrize("spatial", [(4, 6, 2), (2, 2, 2), (8, 8, 8)])
    def test_pool_matches_loops_and_one_view_bits(self, views, spatial):
        rng = np.random.default_rng(21)
        shape = (3,) + spatial + (views,)
        x = np.maximum(rng.integers(-3, 3, shape), 0).astype(float)  # ties in most windows
        d_y = rng.normal(size=(3,) + tuple(e // 2 for e in spatial) + (views,))
        y = nc.maxpool3d_forward(x)
        d_x = nc.maxpool3d_backward(nc.maxpool3d_route(x), d_y)
        assert np.array_equal(y, maxpool3d_loops(x))
        assert np.array_equal(d_x, maxpool3d_backward_loops(x, d_y))
        for v in range(views):
            one = nc.maxpool3d_backward(nc.maxpool3d_route(_one_view(x, v)), _one_view(d_y, v))
            assert d_x[..., v:v + 1].tobytes() == one.tobytes()


class TestConvBackward:
    def test_zero_d_output(self):
        rng = np.random.default_rng(1)
        x, w, b = rand_conv_case(rng)
        d_x, d_w, d_b = nc.conv3d_backward(x, w, np.zeros((w.shape[0],) + x.shape[1:]))
        assert not d_x.any()
        assert not d_w.any()
        assert not d_b.any()

    def test_bias_grad_is_channel_sum(self):
        rng = np.random.default_rng(2)
        x, w, b = rand_conv_case(rng)
        d_y = rng.normal(size=(w.shape[0],) + x.shape[1:])
        _, _, d_b = nc.conv3d_backward(x, w, d_y)
        assert np.allclose(d_b, d_y.sum(axis=(1, 2, 3, 4)), atol=1e-12)

    def test_finite_differences_all_operands(self):
        rng = np.random.default_rng(3)
        cases = [rand_conv_case(rng, spatial=(3, 3, 3)) for _ in range(3)]
        cases += [rand_conv_case(rng, k=k, spatial=spatial) for k, spatial in SHAPE_CASES]
        for x, w, b in cases:
            d_y = rng.normal(size=(w.shape[0],) + x.shape[1:])
            d_x, d_w, d_b = nc.conv3d_backward(x, w, d_y)

            def loss_x(xv):
                return float(np.sum(nc.conv3d_forward(xv, w, b) * d_y))

            def loss_w(wv):
                return float(np.sum(nc.conv3d_forward(x, wv, b) * d_y))

            def loss_b(bv):
                return float(np.sum(nc.conv3d_forward(x, w, bv) * d_y))

            assert grad_close(d_x, central_diff(loss_x, x), 1e-6), (w.shape, x.shape)
            assert grad_close(d_w, central_diff(loss_w, w), 1e-6), (w.shape, x.shape)
            assert grad_close(d_b, central_diff(loss_b, b), 1e-6), (w.shape, x.shape)

    def test_need_dx_false_skips_only_the_input_gradient(self):
        # the two branches fill different columns (d_output's, x's), so their
        # d_w sum the same products in other slab groupings
        rng = np.random.default_rng(13)
        for k, spatial in [(3, (4, 5, 3))] + SHAPE_CASES[:3]:
            x, w, _ = rand_conv_case(rng, k=k, spatial=spatial)
            d_y = rng.normal(size=(w.shape[0],) + x.shape[1:])
            _, d_w, d_b = nc.conv3d_backward(x, w, d_y)
            d_x, d_w_only, d_b_only = nc.conv3d_backward(x, w, d_y, need_dx=False)
            assert d_x is None
            assert d_b.tobytes() == d_b_only.tobytes()
            want = conv3d_weight_grad_taps(x, d_y, k)
            assert _rel_err(d_w, want) <= 1e-12 and _rel_err(d_w_only, want) <= 1e-12
            assert _rel_err(d_w, d_w_only) <= 3e-15


def _weight_grad_by_central_diff(x, w, d_y, index, eps=1e-5):
    w_plus, w_minus = w.copy(), w.copy()
    w_plus[index] += eps
    w_minus[index] -= eps
    no_bias = np.zeros(w.shape[0])
    return float(np.sum((nc.conv3d_forward(x, w_plus, no_bias) - nc.conv3d_forward(x, w_minus, no_bias)) * d_y)
                 / (2 * eps))


class TestSharedColumns:
    """The backward's one column set: d_output's for d_x and d_w, or x's for d_w alone."""

    @pytest.fixture(params=[1, None, 1 << 40], ids=["one-plane", "default", "whole-grid"])
    def slab_bytes(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(nc, "SLAB_BYTES", request.param)

    # (c_in, c_out): Cin < Cout, Cin > Cout, and the one-channel first conv; at
    # (9, 8, 8) the default budget gives one-plane slabs, slabs of 8 and 1
    # planes, or the whole grid, by channels, k and B
    cases = pytest.mark.parametrize("c_in,c_out,k,views", [
        (c_in, c_out, k, views) for c_in, c_out in [(8, 16), (16, 8), (1, 8)] for k in (3, 5) for views in (1, 5)])

    @cases
    @pytest.mark.parametrize("need_dx", [True, False])
    def test_weight_grad_matches_taps_and_finite_differences(self, slab_bytes, c_in, c_out, k, views, need_dx):
        rng = np.random.default_rng(23)
        x, w, _ = rand_conv_case(rng, c_in=c_in, c_out=c_out, k=k, spatial=(9, 8, 8), views=views)
        d_y = rng.normal(size=(c_out, 9, 8, 8, views))
        _, d_w, _ = nc.conv3d_backward(x, w, d_y, need_dx=need_dx)
        assert _rel_err(d_w, conv3d_weight_grad_taps(x, d_y, k)) <= 1e-12
        # the corner taps, which the flipped windows index from the other end
        o, c = int(rng.integers(c_out)), int(rng.integers(c_in))
        for index in [(o, c, 0, 0, 0), (o, c, k - 1, k - 1, k - 1), (o, c, 0, k - 1, k // 2),
                      tuple(int(i) for i in rng.integers(0, [c_out, c_in, k, k, k]))]:
            assert grad_close(d_w[index], _weight_grad_by_central_diff(x, w, d_y, index), 1e-6), index

    @cases
    def test_d_x_is_the_flipped_correlation_bytes(self, slab_bytes, c_in, c_out, k, views):
        # a relu-masked d_output: exact zeros, the negative ones -0.0
        rng = np.random.default_rng(24)
        x, w, _ = rand_conv_case(rng, c_in=c_in, c_out=c_out, k=k, spatial=(9, 8, 8), views=views)
        d_y = rng.normal(size=(c_out, 9, 8, 8, views)) * (rng.normal(size=(c_out, 9, 8, 8, views)) > 0.5)
        d_x = nc.conv3d_backward(x, w, d_y)[0]
        assert d_x.tobytes() == nc.conv3d_forward(d_y, _flip(w), np.zeros(c_in)).tobytes()

    @pytest.mark.parametrize("need_dx", [True, False])
    def test_one_column_fill_per_backward(self, monkeypatch, need_dx):
        rng = np.random.default_rng(25)
        x, w, _ = rand_conv_case(rng, c_in=8, c_out=8, spatial=(16, 16, 16))
        d_y = rng.normal(size=(8, 16, 16, 16, 1))
        filled, real = [], nc._column_slabs
        monkeypatch.setattr(nc, "_column_slabs", lambda a, k: filled.append(a) or real(a, k))
        nc.conv3d_backward(x, w, d_y, need_dx=need_dx)
        assert len(filled) == 1 and filled[0] is (d_y if need_dx else x)


class TestMaxPool:
    def test_constant_input_tie_rule(self):
        x = np.full((1, 4, 4, 4, 1), 2.5)
        y = nc.maxpool3d_forward(x)
        assert np.array_equal(y, np.full((1, 2, 2, 2, 1), 2.5))
        d_y = np.ones((1, 2, 2, 2, 1))
        assert not nc.maxpool3d_route(x).any()
        d_x = nc.maxpool3d_backward(nc.maxpool3d_route(x), d_y)
        # gradient routed to the first (lowest linear index) voxel of each window
        want = np.zeros_like(x)
        want[0, ::2, ::2, ::2] = 1.0
        assert np.array_equal(d_x, want)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            c = int(rng.integers(1, 4))
            x = rng.normal(size=(c, 4, 6, 2, 1))
            assert np.array_equal(nc.maxpool3d_forward(x), maxpool3d_loops(x))

    @pytest.mark.parametrize("views", [1, 5])
    @pytest.mark.parametrize("shape", [(8, 16, 16, 16), (16, 8, 8, 8), (32, 4, 4, 4),
                                       (8, 8, 8, 8), (16, 4, 4, 4), (32, 2, 2, 2), (3, 4, 6, 2)])
    def test_tie_heavy_input_matches_loop_oracles(self, shape, views):
        # the encoder's six pool shapes and a non-cubic one; most windows hold
        # several voxels equal to their max, 0 in many (relu outputs)
        rng = np.random.default_rng(16)
        x = np.maximum(rng.integers(-3, 3, shape + (views,)), 0).astype(float)
        x[0, :2, :2, :2] = 0.0
        y = nc.maxpool3d_forward(x)
        d_y = rng.normal(size=y.shape)
        d_y[0, 0, 0, 0] = -1.0
        route = nc.maxpool3d_route(x)
        assert route.dtype == np.uint8 and route.tobytes() == maxpool3d_route_loops(x).tobytes()
        assert np.array_equal(y, maxpool3d_loops(x))
        want = maxpool3d_backward_loops(x, d_y)
        assert nc.maxpool3d_backward(route, d_y).tobytes() == want.tobytes()
        # the relu before the pool masked in its output before the scatter, as the
        # encoder's backward does, gives the bits of masking in x after it
        masked = nc.relu_backward(x, want)
        assert np.signbit(masked[masked == 0]).any()  # -0.0 where a negative gradient met a 0 max
        assert nc.maxpool3d_backward(route, nc.relu_backward(y, d_y)).tobytes() == masked.tobytes()

    def test_route_matches_loop_oracle_with_nans(self):
        # argmax's rule: the first NaN of a window, else its first slot holding the max
        rng = np.random.default_rng(17)
        x = rng.integers(-2, 2, (3, 4, 6, 2, 2)).astype(float)
        x[rng.random(x.shape) < 0.1] = np.nan
        x[rng.random(x.shape) < 0.1] = -np.inf
        x[0, :2, :2, :2, 0] = np.nan
        x[0, :2, :2, :2, 1] = -np.inf
        got = nc.maxpool3d_route(x)
        assert got.tobytes() == maxpool3d_route_loops(x).tobytes()
        assert got[0, 0, 0, 0].tolist() == [0, 0]
        assert set(np.unique(got)) == set(range(8))

    def test_indivisible_extent_rejected(self):
        with pytest.raises(nc.ShapeError):
            nc.maxpool3d_forward(np.zeros((1, 3, 4, 4, 1)))
        with pytest.raises(nc.ShapeError, match=r"\(C,D,H,W,B\)"):
            nc.maxpool3d_forward(np.zeros((1, 4, 4, 4)))
        with pytest.raises(nc.ShapeError, match=r"\(C,D,H,W,B\)"):
            nc.maxpool3d_route(np.zeros((1, 4, 4, 4)))
        with pytest.raises(nc.ShapeError, match="route shape"):
            nc.maxpool3d_backward(np.zeros((1, 2, 2, 2, 1), np.uint8), np.zeros((1, 2, 2, 2, 2)))

    def test_finite_differences_non_tied(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            # inputs spaced well apart so FD never crosses a tie
            x = rng.permutation(np.arange(2 * 4 * 4 * 4, dtype=float)).reshape(2, 4, 4, 4, 1)
            d_y = rng.normal(size=(2, 2, 2, 2, 1))
            d_x = nc.maxpool3d_backward(nc.maxpool3d_route(x), d_y)

            def loss(xv):
                return float(np.sum(nc.maxpool3d_forward(xv) * d_y))

            assert grad_close(d_x, central_diff(loss, x), 1e-6)


class TestPointwiseAndDense:
    def test_relu_all_negative(self):
        x = -np.abs(np.random.default_rng(6).normal(size=(2, 3, 3, 3))) - 0.1
        assert not nc.relu_backward(x, np.ones_like(x)).any()

    def test_relu_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 1e-3] += 0.1  # keep FD away from the kink
        d_y = rng.normal(size=x.shape)
        d_x = nc.relu_backward(x, d_y)

        def loss(xv):
            return float(np.sum(np.maximum(xv, 0.0) * d_y))

        assert grad_close(d_x, central_diff(loss, x), 1e-6)

    def test_dense_finite_differences(self):
        rng = np.random.default_rng(8)
        for rows in (1, 1, 3, 3):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            x = rng.normal(size=(rows, n))
            w = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            d_y = rng.normal(size=(rows, m))
            d_x, d_w, d_b = nc.dense_backward(x, w, d_y)

            def loss(xv, wv, bv):
                return float(np.sum(nc.dense_forward(xv, wv, bv) * d_y))

            assert grad_close(d_x, central_diff(lambda xv: loss(xv, w, b), x), 1e-6)
            assert grad_close(d_w, central_diff(lambda wv: loss(x, wv, b), w), 1e-6)
            assert grad_close(d_b, central_diff(lambda bv: loss(x, w, bv), b), 1e-6)

    def test_dense_shape_mismatch(self):
        w, b = np.zeros((3, 4)), np.zeros(3)
        for x in (np.zeros(4), np.zeros((2, 5))):
            with pytest.raises(nc.ShapeError):
                nc.dense_forward(x, w, b)
        with pytest.raises(nc.ShapeError):
            nc.dense_backward(np.zeros((2, 4)), w, np.zeros((1, 3)))

    def test_l2_normalize_345(self):
        assert np.allclose(nc.l2_normalize_forward(np.array([[3.0, 4.0], [0.0, -2.0]])),
                           [[0.6, 0.8], [0.0, -1.0]], atol=1e-15)

    def test_l2_normalize_zero_norm_rejected(self):
        for zero_row in (0, 2):
            v = np.ones((3, 4))
            v[zero_row] = 0.0
            with pytest.raises(ValueError, match="norm"):
                nc.l2_normalize_forward(v)
            with pytest.raises(ValueError, match="norm"):
                nc.l2_normalize_backward(v, np.ones((3, 4)))

    def test_l2_normalize_tolerance_is_strict(self):
        # a row whose norm equals ZERO_NORM_TOL is normalised; only a smaller one raises
        v = np.array([[nc.ZERO_NORM_TOL, 0.0], [1.0, 1.0]])
        assert nc.l2_normalize_forward(v)[0].tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="norm"):
            nc.l2_normalize_forward(v * 0.5)

    def test_l2_normalize_vector_rejected(self):
        with pytest.raises(nc.ShapeError, match=r"\(B,n\)"):
            nc.l2_normalize_forward(np.ones(4))

    def test_l2_normalize_finite_differences(self):
        rng = np.random.default_rng(9)
        for rows in (1, 1, 3, 3, 3):
            v = rng.normal(size=(rows, int(rng.integers(2, 8))))
            v += np.sign(v) * 0.1
            d_y = rng.normal(size=v.shape)
            d_v = nc.l2_normalize_backward(v, d_y)

            def loss(vv):
                return float(np.sum(nc.l2_normalize_forward(vv) * d_y))

            assert grad_close(d_v, central_diff(loss, v), 1e-6)

    def test_output_norm_is_one(self):
        v = np.random.default_rng(10).normal(size=(5, 6))
        for row in nc.l2_normalize_forward(v):
            assert abs(np.linalg.norm(row) - 1.0) < 1e-12


# (m, n): the encoder's head shapes, h at 8^3 and 16^3, z, and h at 80^3
HEAD_SHAPES = [(64, 32), (64, 256), (32, 64), (64, 32000)]


class TestRows:
    """Each row of a (B, n) dense or l2 call has the bytes of the one-row call,
    and d_w and d_b those of the one-row results added in row order."""

    @pytest.mark.parametrize("m, n", HEAD_SHAPES)
    @pytest.mark.parametrize("rows", [1, 2, 5, 32])
    def test_dense_rows_are_one_row_bytes(self, m, n, rows):
        rng = np.random.default_rng(m + n + rows)
        x, d_y = rng.normal(size=(rows, n)), rng.normal(size=(rows, m))
        w, b = rng.normal(size=(m, n)) / np.sqrt(n), rng.normal(size=m)
        y = nc.dense_forward(x, w, b)
        d_x, d_w, d_b = nc.dense_backward(x, w, d_y)
        assert y.shape == (rows, m) and d_x.shape == (rows, n)
        want_w = want_b = None
        for v in range(rows):
            one = slice(v, v + 1)
            assert y[one].tobytes() == nc.dense_forward(x[one], w, b).tobytes(), v
            dx_one, dw_one, db_one = nc.dense_backward(x[one], w, d_y[one])
            assert d_x[one].tobytes() == dx_one.tobytes(), v
            # and the vector maths: W @ x, W.T @ d, np.outer
            assert y[v].tobytes() == (w @ x[v] + b).tobytes(), v
            assert d_x[v].tobytes() == (w.T @ d_y[v]).tobytes(), v
            assert dw_one.tobytes() == np.outer(d_y[v], x[v]).tobytes() and db_one.tobytes() == d_y[v].tobytes()
            want_w = dw_one if want_w is None else want_w + dw_one
            want_b = db_one if want_b is None else want_b + db_one
        assert d_w.tobytes() == want_w.tobytes()
        assert d_b.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("n", sorted({n for _, n in HEAD_SHAPES} | {m for m, _ in HEAD_SHAPES}))
    @pytest.mark.parametrize("rows", [1, 2, 5, 32])
    def test_l2_rows_are_one_row_bytes(self, n, rows):
        rng = np.random.default_rng(n + rows)
        v, d_y = rng.normal(size=(rows, n)), rng.normal(size=(rows, n))
        z = nc.l2_normalize_forward(v)
        d_v = nc.l2_normalize_backward(v, d_y)
        for i in range(rows):
            one = slice(i, i + 1)
            assert z[one].tobytes() == nc.l2_normalize_forward(v[one]).tobytes(), i
            assert d_v[one].tobytes() == nc.l2_normalize_backward(v[one], d_y[one]).tobytes(), i
            # and the vector maths, whose last bits np.linalg.norm(axis=1) or einsum would miss
            norm = float(np.linalg.norm(v[i]))
            assert z[i].tobytes() == (v[i] / norm).tobytes(), i
            assert d_v[i].tobytes() == ((d_y[i] - z[i] * (z[i] @ d_y[i])) / norm).tobytes(), i


class TestPurity:
    def test_ops_do_not_mutate_inputs(self):
        rng = np.random.default_rng(11)
        x, w, b = rand_conv_case(rng, spatial=(4, 4, 4))
        # c8-8 at 16^3 runs in several slabs, which write through views
        # and the backward reads d_output in place, slab by slab
        x16, w16, b16 = rand_conv_case(rng, c_in=8, c_out=8, spatial=(16, 16, 16))
        d_y = rng.normal(size=(w.shape[0],) + x.shape[1:])
        d_y16 = rng.normal(size=(8, 16, 16, 16, 1))
        rows, dense_w, dense_b, d_rows = (rng.normal(size=shape) for shape in ((3, 6), (4, 6), (4,), (3, 4)))
        inputs = (x, w, b, d_y, x16, w16, b16, d_y16, rows, dense_w, dense_b, d_rows)
        before = [a.copy() for a in inputs]
        nc.conv3d_forward(x, w, b)
        nc.conv3d_backward(x, w, d_y)
        nc.conv3d_forward(x16, w16, b16)
        nc.conv3d_backward(x16, w16, d_y16)
        nc.maxpool3d_forward(x)
        nc.maxpool3d_backward(nc.maxpool3d_route(x), np.ones((x.shape[0], 2, 2, 2, 1)))
        nc.relu_backward(x, x)
        nc.dense_forward(rows, dense_w, dense_b)
        nc.dense_backward(rows, dense_w, d_rows)
        nc.l2_normalize_forward(rows)
        nc.l2_normalize_backward(rows, rows[::-1])
        for a, a0 in zip(inputs, before, strict=True):
            assert np.array_equal(a, a0)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        x, w, b = rand_conv_case(rng)
        a = nc.conv3d_forward(x, w, b)
        assert np.array_equal(a, nc.conv3d_forward(x, w, b))
