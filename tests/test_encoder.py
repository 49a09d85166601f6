import dataclasses
import math

import numpy as np
import pytest

from synself import encoder as enc
from synself import numcore as nc
from oracles import encoder_backward_from_pre, encoder_pre_activations, grad_close

SMALL = enc.EncoderConfig(patch_side=8, channels=(2, 3), convs_per_block=2, h_dim=5, z_dim=4)
ONE_CONV = dataclasses.replace(SMALL, convs_per_block=1)
THREE_CONVS = dataclasses.replace(SMALL, convs_per_block=3)
DEFAULT = enc.EncoderConfig()


def rand_patch(rng, s):
    return rng.uniform(0.0, 1.0, size=(1, s, s, s))


def init(seed):
    return enc.init(dataclasses.replace(SMALL, init_seed=seed))


def forward_z(params, patch, cfg=SMALL):
    """(h, z, cache) as training computes them: forward, then project."""
    h, cache = enc.forward(params, patch, cfg)
    return h, enc.project(params, cache), cache


class TestConfig:
    def test_patch_side_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            enc.EncoderConfig(patch_side=12, channels=(4, 8, 16))

    def test_channels_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            enc.EncoderConfig(patch_side=16, channels=(8, 8, 16))

    @pytest.mark.parametrize("field, value", [
        ("patch_side", 8.0), ("channels", (2.5, 3)), ("convs_per_block", 2.0),
        ("h_dim", 5.0), ("z_dim", 4.0), ("init_seed", 0.0), ("init_seed", True),
        ("init_seed", -1),
        ("channels", (0, 8, 16)), ("channels", (-4, 8, 16)),  # init failed on a 0 fan_in, numpy on -4
    ])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            dataclasses.replace(SMALL, **{field: value})

    def test_default_param_count_closed_form(self):
        # independent shape arithmetic for the desk default (16^3, [8,16,32], 2 convs, 64, 32)
        cfg = enc.EncoderConfig()
        expected = 0
        c_in = 1
        for c_out in (8, 16, 32):
            for _ in range(2):
                expected += c_out * c_in * 27 + c_out
                c_in = c_out
        flat = 32 * (16 // 8) ** 3
        expected += 64 * flat + 64
        expected += 32 * 64 + 32
        assert sum(math.prod(s) for s in enc.param_shapes(cfg).values()) == expected == 72424

    def test_default_param_order_pinned(self):
        # the tensor order of every checkpoint
        assert list(enc.param_shapes(DEFAULT).items()) == [
            ("block0.conv0.w", (8, 1, 3, 3, 3)), ("block0.conv0.b", (8,)),
            ("block0.conv1.w", (8, 8, 3, 3, 3)), ("block0.conv1.b", (8,)),
            ("block1.conv0.w", (16, 8, 3, 3, 3)), ("block1.conv0.b", (16,)),
            ("block1.conv1.w", (16, 16, 3, 3, 3)), ("block1.conv1.b", (16,)),
            ("block2.conv0.w", (32, 16, 3, 3, 3)), ("block2.conv0.b", (32,)),
            ("block2.conv1.w", (32, 32, 3, 3, 3)), ("block2.conv1.b", (32,)),
            ("head_h.w", (64, 256)), ("head_h.b", (64,)),
            ("head_z.w", (32, 64)), ("head_z.b", (32,)),
        ]

    def test_param_shapes_pure_function(self):
        assert enc.param_shapes(SMALL) == enc.param_shapes(
            enc.EncoderConfig(patch_side=8, channels=(2, 3), convs_per_block=2, h_dim=5, z_dim=4)
        )


class TestInit:
    def test_deterministic(self):
        a = init(3)
        b = init(3)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_he_uniform_bounds(self):
        params = enc.init(dataclasses.replace(enc.EncoderConfig(), init_seed=0))
        for name, shape in enc.param_shapes(enc.EncoderConfig()).items():
            t = params[name]
            if name.endswith(".b"):
                assert not t.any()
            else:
                bound = np.sqrt(6.0 / np.prod(shape[1:]))
                assert np.all(np.abs(t) <= bound)
                # and the draws actually use the range
                assert np.abs(t).max() > 0.5 * bound


class TestForward:
    def test_z_is_unit(self):
        rng = np.random.default_rng(0)
        params = init(1)
        for _ in range(5):
            _, z, _ = forward_z(params, rand_patch(rng, 8))
            assert abs(np.linalg.norm(z) - 1.0) < 1e-9

    def test_zero_conv_weights_h_from_bias_only(self):
        # zeroed conv stacks kill all spatial signal; h collapses to relu(b_h)
        params = init(0)
        for k in params:
            if k.startswith("block"):
                params[k] = np.zeros_like(params[k])
        params["head_h.b"] = np.array([1.0, -2.0, 0.5, -0.5, 3.0])
        h, _ = enc.forward(params, np.full((1, 8, 8, 8), 0.7), SMALL)
        assert np.array_equal(h, np.maximum(params["head_h.b"], 0.0)[None])

    def test_not_rotation_invariant(self):
        rng = np.random.default_rng(2)
        params = init(2)
        patch = rand_patch(rng, 8)
        rot = np.rot90(patch, axes=(1, 2)).copy()
        h1, _ = enc.forward(params, patch, SMALL)
        h2, _ = enc.forward(params, rot, SMALL)
        assert not np.allclose(h1, h2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        params = init(3)
        patch = rand_patch(rng, 8)
        h1, z1, _ = forward_z(params, patch)
        h2, z2, _ = forward_z(params, patch)
        assert np.array_equal(h1, h2) and np.array_equal(z1, z2)

    def test_shape_mismatch(self):
        params = init(0)
        with pytest.raises(Exception):
            enc.forward(params, np.zeros((1, 4, 4, 4)), SMALL)
        for stack in (np.zeros((0, 8, 8, 8)), np.zeros((8, 8, 8))):
            with pytest.raises(nc.ShapeError, match="patch stack shape"):
                enc.forward(params, stack, SMALL)

    @pytest.mark.parametrize("cfg", [SMALL, enc.EncoderConfig(patch_side=8), DEFAULT], ids=["small", "8", "16"])
    @pytest.mark.parametrize("views", [2, 3, 5])
    def test_stack_rows_are_one_view_rows(self, cfg, views):
        # each view's convs, pools and h GEMV see exactly its one-view operands
        rng = np.random.default_rng(views)
        params = {k: v + 0.01 * rng.standard_normal(v.shape) for k, v in enc.init(cfg).items()}
        s = cfg.patch_side
        stack = rng.uniform(0.0, 1.0, size=(views, s, s, s))
        h, cache = enc.forward(params, stack, cfg)
        assert h.shape == (views, cfg.h_dim) and cache["pooled_shape"][-1] == views
        for v in range(views):
            assert h[v].tobytes() == enc.forward(params, stack[v:v + 1], cfg)[0][0].tobytes(), v

    @pytest.mark.parametrize("cfg, layers", [
        (ONE_CONV, ["block0.conv0", None, "block1.conv0", None]),
        (THREE_CONVS, ["block0.conv0", "block0.conv1", "block0.conv2", None,
                       "block1.conv0", "block1.conv1", "block1.conv2", None]),
    ], ids=["1", "3"])
    def test_cache_lists_the_layers_in_order(self, cfg, layers):
        _, cache = enc.forward(enc.init(cfg), rand_patch(np.random.default_rng(0), 8), cfg)
        assert [name for name, _ in cache["inputs"]] == layers

    def test_project_rows_are_one_view_bytes(self):
        # one GEMV per view: row v of a B-view projection is view v's one-view projection
        rng = np.random.default_rng(7)
        params = init(0)
        for views in (2, 5):
            stack = rng.uniform(0.0, 1.0, size=(views, 8, 8, 8))
            _, z, cache = forward_z(params, stack)
            assert z.shape == cache["z_pre"].shape == (views, SMALL.z_dim)
            for v in range(views):
                _, z_one, one = forward_z(params, stack[v:v + 1])
                assert z[v].tobytes() == z_one[0].tobytes(), (views, v)
                assert cache["z_pre"][v].tobytes() == one["z_pre"][0].tobytes(), (views, v)


def check_backward_from_pre_activations(cfg, case, views):
    """enc.backward on random, all-zero or half-bright patches, against the
    backward that reads its relu masks from the recomputed pre-activations,
    ties at 0.0 included: the same bytes."""
    s = cfg.patch_side
    rng = np.random.default_rng(s)
    params = enc.init(cfg)  # zero biases
    stack = np.zeros((views, s, s, s))
    if case == "random":
        stack = rng.uniform(0.0, 1.0, size=(views, s, s, s))
    elif case == "halves":
        stack[:, s // 2:] = 1.0
    else:
        # every activation of a zero patch is 0.0; a head bias gives z a direction
        params["head_h.b"] = np.linspace(-1.0, 1.0, cfg.h_dim)
    _, _, cache = forward_z(params, stack, cfg)
    conv_pre, h_pre = encoder_pre_activations(params, cache)
    if case == "zero":
        assert not any(pre.any() for pre in conv_pre.values())
    inputs = cache["inputs"]
    for (name, _), (next_name, out) in zip(inputs, inputs[1:]):
        if name is not None:
            # a conv's relu output is the next layer's input, which project swapped for its route at a pool
            relu = np.maximum(conv_pre[name], 0.0)
            assert (relu if next_name is not None else nc.maxpool3d_route(relu)).tobytes() == out.tobytes()
    assert np.maximum(h_pre, 0.0).tobytes() == cache["h"].tobytes()

    d_z = rng.normal(size=(views, cfg.z_dim))
    got = enc.backward(params, cache, d_z)
    want = encoder_backward_from_pre(params, cache, d_z)
    assert set(got) == set(want) == set(params)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    return params, stack, d_z, got


def one_view_sum(params, stack, d_z, cfg):
    """The gradients of one-view backwards, added in view order."""
    total = None
    for v in range(len(stack)):
        _, _, cache = forward_z(params, stack[v:v + 1], cfg)
        g = enc.backward(params, cache, d_z[v:v + 1])
        total = g if total is None else {k: total[k] + g[k] for k in total}
    return total


def check_finite_differences(views, cfg=SMALL):
    """Directional probe of every parameter tensor of a tiny encoder, on a loss
    that sums z . d_z over the views."""
    rng = np.random.default_rng(6)
    params = enc.init(dataclasses.replace(cfg, init_seed=6))
    s = cfg.patch_side
    stack = rng.uniform(0.0, 1.0, size=(views, s, s, s))
    d_z = rng.normal(size=(views, cfg.z_dim))

    def scalar(p):
        _, z, _ = forward_z(p, stack, cfg)
        return float(np.sum(z * d_z))

    _, _, cache = forward_z(params, stack, cfg)
    grads = enc.backward(params, cache, d_z)
    eps = 1e-5
    for name in params:
        flat = params[name].reshape(-1)
        n_probe = min(5, flat.size)
        coords = rng.choice(flat.size, size=n_probe, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            fp = scalar(params)
            flat[i] = orig - eps
            fm = scalar(params)
            flat[i] = orig
            numeric = (fp - fm) / (2 * eps)
            assert grad_close(grads[name].reshape(-1)[i], numeric, 1e-5), name


class TestBackward:
    def test_zero_cotangents_zero_grads(self):
        rng = np.random.default_rng(4)
        params = init(4)
        _, _, cache = forward_z(params, rand_patch(rng, 8))
        grads = enc.backward(params, cache, np.zeros((1, SMALL.z_dim)))
        assert all(not g.any() for g in grads.values())

    @pytest.mark.parametrize("views", [2, 5])
    def test_zero_cotangents_zero_grads_over_views(self, views):
        rng = np.random.default_rng(4)
        params = init(4)
        _, _, cache = forward_z(params, rng.uniform(0.0, 1.0, size=(views, 8, 8, 8)))
        grads = enc.backward(params, cache, np.zeros((views, SMALL.z_dim)))
        assert all(not g.any() for g in grads.values())

    def test_d_z_shape_must_match_the_views(self):
        _, _, cache = forward_z(init(0), rand_patch(np.random.default_rng(0), 8).repeat(2, axis=0))
        for d_z in (np.zeros(SMALL.z_dim), np.zeros((1, SMALL.z_dim)), np.zeros((3, SMALL.z_dim))):
            with pytest.raises(nc.ShapeError, match="d_z shape"):
                enc.backward(init(0), cache, d_z)

    @pytest.mark.parametrize("cfg", [DEFAULT, SMALL, ONE_CONV, THREE_CONVS], ids=["16", "8", "8-1conv", "8-3convs"])
    @pytest.mark.parametrize("case", ["random", "zero", "halves"])
    def test_bytes_equal_backward_from_pre_activations(self, cfg, case):
        check_backward_from_pre_activations(cfg, case, views=1)

    @pytest.mark.parametrize("cfg", [DEFAULT, SMALL, enc.EncoderConfig(patch_side=8), ONE_CONV, THREE_CONVS],
                             ids=["16", "small", "8", "8-1conv", "8-3convs"])
    @pytest.mark.parametrize("case", ["random", "zero", "halves"])
    @pytest.mark.parametrize("views", [2, 5])
    def test_views_backward_is_the_sum_of_one_view_backwards(self, cfg, case, views):
        # the same bytes as the pre-activation backward, and, since the convs
        # group d_w and d_b over the views, the sum of one-view backwards to rounding
        params, stack, d_z, got = check_backward_from_pre_activations(cfg, case, views)
        want = one_view_sum(params, stack, d_z, cfg)
        for name in want:
            assert np.abs(got[name] - want[name]).max() <= 1e-13 * np.abs(want[name]).max(), name

    def test_finite_differences_sampled_coordinates(self):
        check_finite_differences(views=1)

    @pytest.mark.parametrize("views", [2, 5])
    def test_finite_differences_multi_view_loss(self, views):
        check_finite_differences(views)

    @pytest.mark.parametrize("cfg", [ONE_CONV, THREE_CONVS], ids=["1conv", "3convs"])
    @pytest.mark.parametrize("views", [1, 2])
    def test_finite_differences_convs_per_block(self, cfg, views):
        check_finite_differences(views, cfg)

    def test_one_column_fill_per_conv(self, monkeypatch):
        # each conv's backward fills its d_output's columns once, for d_x and d_w
        # alike; the first conv, whose d_x has no reader, fills its input's
        rng = np.random.default_rng(12)
        params = enc.init(DEFAULT)
        _, z, cache = forward_z(params, rand_patch(rng, 16), DEFAULT)
        filled, real = [], nc._column_slabs
        monkeypatch.setattr(nc, "_column_slabs", lambda a, k: filled.append(a) or real(a, k))
        enc.backward(params, cache, rng.normal(size=z.shape))
        inputs = cache["inputs"]
        convs = [i for i in reversed(range(len(inputs))) if inputs[i][0] is not None]
        assert len(filled) == len(convs) == 6
        for i, a in zip(convs, filled):
            if i == 0:
                assert a is inputs[0][1]
            else:
                name, x = inputs[i]
                assert a is not x and a.shape == params[f"{name}.w"].shape[:1] + x.shape[1:], name  # d_output's


class TestActivationCache:
    def test_default_cache_size(self):
        # each conv's relu output, once: no pre-activation copies (1.35 MiB with them)
        patch = rand_patch(np.random.default_rng(11), 16)
        _, cache = enc.forward(enc.init(DEFAULT), patch, DEFAULT)
        bases = {}

        def collect(obj):
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                bases[id(obj)] = obj
            elif isinstance(obj, (list, tuple, dict)):
                for item in (obj.values() if isinstance(obj, dict) else obj):
                    collect(item)

        def owned():
            bases.clear()
            collect(cache)
            return sum(a.nbytes for a in bases.values() if a is not patch)

        assert owned() <= 0.75 * 2**20
        # project swaps each pool's input for its route, a byte per window: 0.41 MiB
        # with the forward's copy of the patch
        enc.project(enc.init(DEFAULT), cache)
        assert owned() <= 0.42 * 2**20
