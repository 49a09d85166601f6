import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synself import ntxent
from oracles import grad_close, ntxent_loops


def unit_rows(rng, n2, d):
    z = rng.normal(size=(n2, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def layout_pairing(n):
    """Partner of each row laid out as [a_0..a_{N-1}, b_0..b_{N-1}]."""
    return np.concatenate([np.arange(n) + n, np.arange(n)])


class TestLossValue:
    def test_n1_exact_zero(self):
        rng = np.random.default_rng(0)
        z = unit_rows(rng, 2, 5)
        value, d_z = ntxent.loss(z, temperature=0.7)
        assert value == 0.0
        assert not d_z.any()

    def test_hand_evaluated_n2_case(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])  # a_0, a_1, b_0, b_1
        value, _ = ntxent.loss(z, temperature=1.0)
        # each of the four terms: -log(e / (e + 2)) = log(1 + 2/e)
        expected = np.log(1.0 + 2.0 / np.e)
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.5514) < 5e-4

    def test_matches_bruteforce_100_batches(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 17))
            tau = float(rng.uniform(0.2, 1.5))
            z = unit_rows(rng, 2 * n, d)
            value, _ = ntxent.loss(z, temperature=tau)
            assert abs(value - ntxent_loops(z, layout_pairing(n), tau)) <= 1e-10

    def test_stable_equals_naive_on_well_scaled(self):
        rng = np.random.default_rng(2)
        z = unit_rows(rng, 12, 8)
        value, _ = ntxent.loss(z, temperature=0.5)
        assert abs(value - ntxent_loops(z, layout_pairing(6), 0.5)) <= 1e-10


class TestGradient:
    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            z = unit_rows(rng, 2 * n, 4)
            _, d_z = ntxent.loss(z, temperature=0.5)
            eps = 1e-6
            flat = z.reshape(-1)
            pairing = layout_pairing(n)
            for i in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                # perturbed rows are not unit: the loop oracle is valid for any rows
                orig = flat[i]
                flat[i] = orig + eps
                fp = ntxent_loops(z, pairing, 0.5)
                flat[i] = orig - eps
                fm = ntxent_loops(z, pairing, 0.5)
                flat[i] = orig
                numeric = (fp - fm) / (2 * eps)
                assert grad_close(d_z.reshape(-1)[i], numeric, 1e-7)

    def test_full_gradient_finite_differences(self):
        from oracles import central_diff

        rng = np.random.default_rng(4)
        z = unit_rows(rng, 6, 3)
        _, d_z = ntxent.loss(z, temperature=0.8)

        numeric = central_diff(lambda zv: ntxent_loops(zv, layout_pairing(3), 0.8), z, eps=1e-6)
        assert grad_close(d_z, numeric, 1e-7)


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_permutation_equivariance(self, seed, n):
        # reorder the pairs, and swap the a and b halves or not: the layout still holds
        rng = np.random.default_rng(seed)
        z = unit_rows(rng, 2 * n, 5)
        order = rng.permutation(n)
        perm = np.concatenate([order + n, order] if rng.integers(2) else [order, order + n])
        v1, g1 = ntxent.loss(z, 0.5)
        v2, g2 = ntxent.loss(z[perm], 0.5)
        assert abs(v1 - v2) < 1e-12
        assert np.allclose(g2, g1[perm], atol=1e-12)

    def test_monotone_in_positive_similarity(self):
        # raise sim(z_0, partner) while holding other sims fixed: l_0 must not increase
        d = 4

        def l0(pos_sim):
            # rows a_0, a_1, b_0, b_1 where z0.z2 = pos_sim and all other dots fixed at 0
            z = np.zeros((4, d))
            z[0] = [1, 0, 0, 0]
            z[2] = [pos_sim, np.sqrt(1 - pos_sim**2), 0, 0]
            z[1] = [0, 0, 1, 0]
            z[3] = [0, 0, 0, 1]
            sims = z @ z.T
            num = np.exp(sims[0, 2] / 0.5)
            den = sum(np.exp(sims[0, k] / 0.5) for k in (1, 2, 3))
            return -np.log(num / den)

        vals = [l0(s) for s in np.linspace(-0.9, 0.9, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        z = unit_rows(rng, 8, 5)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        v1, _ = ntxent.loss(z, 0.5)
        v2, _ = ntxent.loss(z @ q, 0.5)
        assert abs(v1 - v2) < 1e-10


class TestValidation:
    def test_non_unit_rows_rejected(self):
        z = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="norm"):
            ntxent.loss(z, 0.5)

    def test_bad_temperature(self):
        rng = np.random.default_rng(5)
        z = unit_rows(rng, 4, 3)
        with pytest.raises(ValueError, match="temperature"):
            ntxent.loss(z, temperature=0.0)

    # the values TrainConfig.temperature rejects: True is no number, and 10**400 no float
    @pytest.mark.parametrize("value", [
        math.inf, math.nan, 0.0, -1.0, True, pytest.param(10 ** 400, id="10**400"), "0.5",
    ])
    def test_loss_temperature_finite_and_positive(self, value):
        # at inf the loss was log(2N-1) with an all-zero gradient
        z = unit_rows(np.random.default_rng(5), 4, 3)
        with pytest.raises(ValueError, match="temperature must be a finite real number >= 1e-300"):
            ntxent.loss(z, temperature=value)

    def test_temperature_keeps_its_reciprocal_finite(self):
        # at the subnormal 1e-320, 1/tau overflows and the loss is not finite
        z = unit_rows(np.random.default_rng(5), 4, 3)
        with pytest.raises(ValueError, match="temperature must be a finite real number >= 1e-300, got 1e-320"):
            ntxent.loss(z, temperature=1e-320)
        value, d_z = ntxent.loss(z, temperature=1e-300)
        assert np.isfinite(value) and np.isfinite(d_z).all()

    def test_integer_temperature_is_its_float(self):
        z = unit_rows(np.random.default_rng(5), 4, 3)
        value, d_z = ntxent.loss(z, temperature=2)
        want_value, want_d_z = ntxent.loss(z, temperature=2.0)
        assert value == want_value and d_z.tobytes() == want_d_z.tobytes()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ntxent.loss(np.zeros((0, 3)), 0.5)


class TestCosineStats:
    def test_orthogonal_pairs(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])  # a_0, a_1, b_0, b_1
        pos, neg = ntxent.batch_cosine_stats(z)
        assert pos == 1.0
        assert neg == 0.0
