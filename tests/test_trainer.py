import hashlib
import json
import math
import multiprocessing as mp
import os
import re
import signal
import stat
import struct
import tempfile
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synself import encoder as enc
from synself import ntxent
from synself import sampler as sp
from synself import synthgen as sg
from synself import trainer as tr
from synself.volume_io import IntensityVolume, SynapseRecord, VolumeHeader
from helpers import IDENTITY_AUGMENT, save_checkpoint, time_limit, traced_peak


def tiny_dataset(seed=0, **kw):
    base = dict(
        seed=seed,
        dims=(48, 48, 24),
        n_supervoxels=6,
        synapses_per_supervoxel=3,
        noise_sigma=4.0,
        class_params=(
            sg.ClassParams(1.5, 1.0, 2.0, 200.0, 120.0),
            sg.ClassParams(2.5, 1.0, 3.0, 110.0, 70.0),
        ),
        background_intensity=40.0,
    )
    base.update(kw)
    ph = sg.generate(sg.GenConfig(**base))
    return sp.Dataset(ph.intensity, ph.synapses)


def tiny_config(steps=5, **kw):
    base = dict(
        steps=steps,
        lr=1e-3,
        checkpoint_every=100,
        log_every=2,
        seed=3,
        sampler=sp.SamplerConfig(patch_side=8, batch_pairs=2,
                                 augment=sp.AugmentConfig(max_jitter_vox=0)),
        encoder=enc.EncoderConfig(patch_side=8, channels=(3, 5), convs_per_block=2,
                                  h_dim=8, z_dim=4, init_seed=1),
    )
    base.update(kw)
    return tr.TrainConfig(**base)


def chunked_config(**kw):
    """The default channels at 8^3, 4 pairs: a step's 8 views run in chunks of 5 and 3."""
    return tiny_config(
        sampler=sp.SamplerConfig(patch_side=8, batch_pairs=4, augment=sp.AugmentConfig(max_jitter_vox=0)),
        encoder=enc.EncoderConfig(patch_side=8, init_seed=1),
        **kw,
    )


class TestTrainStep:
    def test_lr_zero_equivalent_parameters_unchanged(self):
        # lr itself must be > 0 per config; probe the contract at lr ~ 0
        ds = tiny_dataset()
        cfg = tiny_config(lr=1e-300)
        state = tr.init_state(cfg)
        before = {k: v.copy() for k, v in state.params.items()}
        metrics = tr.train_step(state, ds, cfg)
        assert np.isfinite(metrics["loss"])
        for k in before:
            assert np.allclose(state.params[k], before[k], atol=1e-290)

    def test_single_step_deterministic(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        s1 = tr.init_state(cfg)
        s2 = tr.init_state(cfg)
        m1 = tr.train_step(s1, ds, cfg)
        m2 = tr.train_step(s2, ds, cfg)
        assert m1 == m2
        assert all(np.array_equal(s1.params[k], s2.params[k]) for k in s1.params)
        assert s1.rng.bit_generator.state == s2.rng.bit_generator.state

    def test_step_sums_chunk_gradients_in_chunk_order(self):
        # 8 views in chunks of 5 and 3: each chunk one forward, project and
        # backward, and the chunk gradients summed in chunk order
        ds = tiny_dataset()
        cfg = chunked_config()
        state = tr.init_state(cfg)
        metrics = tr.train_step(state, ds, cfg)

        ref = tr.init_state(cfg)
        batch = sp.sample_batch(ds, cfg.sampler, ref.rng)
        views = np.concatenate([batch.views_a, batch.views_b])
        assert enc.views_per_chunk(cfg.encoder) == 5 and len(views) == 8
        starts = (0, 5)
        caches = [enc.forward(ref.params, views[i:i + 5], cfg.encoder)[1] for i in starts]
        z_rows = np.concatenate([enc.project(ref.params, cache) for cache in caches])
        loss, d_z = ntxent.loss(z_rows, cfg.temperature)
        per_chunk = [enc.backward(ref.params, cache, d_z[i:i + 5]) for i, cache in zip(starts, caches)]
        # the one-view route: the same z rows, and gradients added view by view
        one_view = [enc.forward(ref.params, v[None], cfg.encoder)[1] for v in views]
        assert np.concatenate([enc.project(ref.params, c) for c in one_view]).tobytes() == z_rows.tobytes()
        per_view = [enc.backward(ref.params, cache, d_z[i:i + 1]) for i, cache in enumerate(one_view)]
        b1, b2 = tr.ADAM_BETA1, tr.ADAM_BETA2
        sq_sum = 0.0
        for k, p in ref.params.items():
            g = np.zeros_like(p)
            for chunk_grads in per_chunk:
                g += chunk_grads[k]
            by_view = np.zeros_like(p)
            for view_grads in per_view:
                by_view += view_grads[k]
            assert np.abs(g - by_view).max() <= 1e-13 * np.abs(by_view).max(), k
            sq_sum += float(np.sum(g * g))
            m = 0.0 + (1 - b1) * g  # first Adam step from zero moments
            v = 0.0 + (1 - b2) * g * g
            want = p - cfg.lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + tr.ADAM_EPS)
            assert state.params[k].tobytes() == want.tobytes(), k
        pos_cos, neg_cos = ntxent.batch_cosine_stats(z_rows)
        assert metrics == {"step": 1, "loss": loss, "grad_norm": float(np.sqrt(sq_sum)),
                           "pos_cos": pos_cos, "neg_cos": neg_cos}
        assert state.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_loss_decreases_on_frozen_tiny_problem(self):
        ds = tiny_dataset(seed=1)
        cfg = tiny_config(steps=50, log_every=1)
        state = tr.init_state(cfg)
        losses = [tr.train_step(state, ds, cfg)["loss"] for _ in range(50)]
        first = np.mean(losses[:10])
        last = np.mean(losses[-10:])
        assert last < first

    def test_adam_update_norm_bounded(self):
        ds = tiny_dataset()
        cfg = tiny_config(steps=10)
        state = tr.init_state(cfg)
        n_params = sum(math.prod(s) for s in enc.param_shapes(cfg.encoder).values())
        for _ in range(10):
            before = {k: v.copy() for k, v in state.params.items()}
            tr.train_step(state, ds, cfg)
            delta_sq = sum(
                float(np.sum((state.params[k] - before[k]) ** 2)) for k in before
            )
            assert np.sqrt(delta_sq) <= cfg.lr * np.sqrt(n_params) * (1 + 1e-6)

    def test_direct_step_after_a_config_change(self, tmp_path):
        # the state made its part for 2 pairs; a step at 3 pairs makes one for 3
        ds, cfg = tiny_dataset(), tiny_config()
        wider = replace(cfg, sampler=replace(cfg.sampler, batch_pairs=3))
        state = tr.init_state(cfg)
        tr.train_step(state, ds, cfg)
        tr.save_train_state(state, cfg, tmp_path / "step1.dckpt")
        metrics = tr.train_step(state, ds, wider)
        reloaded, _ = tr.load_train_state(tmp_path / "step1.dckpt")
        assert tr.train_step(reloaded, ds, wider) == metrics
        assert all(state.params[k].tobytes() == reloaded.params[k].tobytes() for k in state.params)

    def test_zero_projection_is_a_train_error(self):
        # all-zero views under zero biases give z_pre = 0: no unit direction exists
        dims = (32, 32, 16)
        vol = IntensityVolume(VolumeHeader(dims), np.zeros((16, 32, 32), np.uint8))
        recs = [SynapseRecord(i, (8 + 16 * (i // 4), 8 + 8 * (i % 2), 8), 1 + i // 2) for i in range(8)]
        ds = sp.Dataset(vol, recs)
        cfg = tiny_config(sampler=sp.SamplerConfig(patch_side=8, batch_pairs=2, augment=IDENTITY_AUGMENT))
        batch = sp.sample_batch(ds, cfg.sampler, np.random.default_rng(cfg.seed))
        fingerprint = tr._batch_fingerprint(np.concatenate([batch.views_a, batch.views_b]))
        with pytest.raises(tr.TrainError, match=f"step 1 .*batch fingerprint {fingerprint}"):
            tr.train_step(tr.init_state(cfg), ds, cfg)

    def test_zero_projection_in_a_later_chunk_is_a_train_error(self, monkeypatch):
        # view 6 of 8, in the second chunk, is all zero: under zero biases its z_pre is 0
        cfg = chunked_config()
        rng = np.random.default_rng(5)
        views_b = rng.uniform(0.0, 1.0, size=(4, 8, 8, 8))
        views_b[2] = 0.0
        batch = sp.PairBatch(rng.uniform(0.0, 1.0, size=(4, 8, 8, 8)), views_b, np.arange(4))
        monkeypatch.setattr(sp, "sample_batch", lambda *args: batch)
        forwards = []
        real = enc.forward
        monkeypatch.setattr(enc, "forward", lambda *a: forwards.append(len(a[1])) or real(*a))
        fingerprint = tr._batch_fingerprint(np.concatenate([batch.views_a, batch.views_b]))
        with pytest.raises(tr.TrainError, match=f"zero projection at step 1 .*batch fingerprint {fingerprint}"):
            tr.train_step(tr.init_state(cfg), tiny_dataset(), cfg)
        assert forwards == [5, 3]

    def test_nan_bias_is_a_non_finite_train_error(self):
        # a NaN passes every relu unchanged and so reaches the loss and the gradients
        ds = tiny_dataset()
        cfg = tiny_config()
        state = tr.init_state(cfg)
        state.params["block0.conv0.b"][0] = np.nan
        batch = sp.sample_batch(ds, cfg.sampler, np.random.default_rng(cfg.seed))
        fingerprint = tr._batch_fingerprint(np.concatenate([batch.views_a, batch.views_b]))
        with pytest.raises(tr.TrainError,
                           match=f"non-finite loss/gradient at step 1 .*batch fingerprint {fingerprint}"):
            tr.train_step(state, ds, cfg)

    def test_default_step_traced_peak(self):
        # 32 views' activation caches at 16^3, one copy of each activation (49
        # MiB with the pre-relu copies) and a route in place of each pool's
        # input (25.7 MiB with the inputs), in the one serve every part of a
        # spread runs: its backward drops each chunk's cache as it makes that
        # chunk's gradient and adds the gradient to the sum (15.1 MiB)
        ph = sg.generate(sg.GenConfig())
        ds = sp.Dataset(ph.intensity, ph.synapses)
        cfg = tr.TrainConfig()
        state = tr.init_state(cfg)
        assert traced_peak(lambda: tr.train_step(state, ds, cfg)) <= 18 << 20

    def test_dense_sv_step_traced_peak(self):
        # the benchmark's dense_sv step, 32 views at 8^3 in chunks of 5: 4.9 MiB
        # with the pools' inputs and every chunk gradient kept to the end, 3.5 MiB
        ph = sg.generate(sg.GenConfig(dims=(280, 280, 140), n_supervoxels=16, synapses_per_supervoxel=256))
        ds = sp.Dataset(ph.intensity, ph.synapses)
        cfg = tr.TrainConfig(sampler=sp.SamplerConfig(patch_side=8), encoder=enc.EncoderConfig(patch_side=8))
        state = tr.init_state(cfg)
        assert traced_peak(lambda: tr.train_step(state, ds, cfg)) <= 4.3 * 2**20

    def test_moments_stay_finite(self):
        ds = tiny_dataset()
        cfg = tiny_config(steps=10)
        state = tr.init_state(cfg)
        for _ in range(10):
            tr.train_step(state, ds, cfg)
        assert all(np.isfinite(v).all() for v in state.adam_m.values())
        assert all(np.isfinite(v).all() for v in state.adam_v.values())


def four_chunk_config(**kw):
    """The default channels at 8^3, 8 pairs: a step's 16 views run in chunks of 5, 5, 5 and 1."""
    return tiny_config(
        sampler=sp.SamplerConfig(patch_side=8, batch_pairs=8, augment=sp.AugmentConfig(max_jitter_vox=0)),
        encoder=enc.EncoderConfig(patch_side=8, init_seed=1),
        **kw,
    )


class TestHelpers:
    """train() with helper processes, forced through tr._spare_cpus so that a
    one-CPU host runs them too."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        with time_limit(120):
            yield

    @pytest.mark.parametrize("spare, parent_chunks", [(1, 2), (2, 1)])
    def test_helpers_write_the_bytes_of_one_process(self, tmp_path, monkeypatch, spare, parent_chunks):
        ds = tiny_dataset(dims=(64, 64, 24), n_supervoxels=10)
        cfg = four_chunk_config(steps=4, checkpoint_every=2)
        assert enc.views_per_chunk(cfg.encoder) == 5
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 0)
        tr.train(cfg, ds, tmp_path / "one")

        monkeypatch.setattr(tr, "_spare_cpus", lambda: spare)
        forwards = []
        real = enc.forward
        monkeypatch.setattr(enc, "forward", lambda *a: forwards.append(len(a[1])) or real(*a))
        tr.train(cfg, ds, tmp_path / "helped")
        assert mp.active_children() == []
        assert forwards == [5] * parent_chunks * cfg.steps  # the helpers ran every later chunk
        names = ["ckpt_000002.dckpt", "ckpt_final.dckpt", "metrics.csv"]
        assert sorted(f.name for f in (tmp_path / "helped").iterdir()) == names
        for name in names:
            assert (tmp_path / "helped" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

        tr.train(cfg, ds, tmp_path / "resumed", resume_from=tmp_path / "helped" / "ckpt_000002.dckpt")
        assert mp.active_children() == []
        for name in names[1:]:
            assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

    def test_direct_step_after_a_helped_run(self, tmp_path, monkeypatch):
        # the state train() returns has no parts left, so the direct step makes its own, in this process
        ds, cfg = tiny_dataset(), chunked_config(steps=5, log_every=1)
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 0)
        one, rows = tr.train(cfg, ds, tmp_path / "one")

        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        state, _ = tr.train(chunked_config(steps=4, log_every=1), ds, tmp_path / "helped")
        assert mp.active_children() == []
        assert tr.train_step(state, ds, cfg) == rows[4]
        assert [type(part) for part in state.parts] == [tr._Local]
        assert all(state.params[k].tobytes() == one.params[k].tobytes() for k in one.params)

    def test_helped_default_step_parent_traced_peak(self, tmp_path, monkeypatch):
        # this process runs the first half of the 32 views and adds each chunk
        # gradient as it makes it: 14.5 MiB when it kept the pools' inputs and
        # its chunk gradients until "add", 9.1 MiB
        ph = sg.generate(sg.GenConfig())
        ds = sp.Dataset(ph.intensity, ph.synapses)
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        peaks, real = [], tr.train_step

        def traced_step(*args):
            metrics = []
            peaks.append(traced_peak(lambda: metrics.append(real(*args))))
            return metrics[0]

        monkeypatch.setattr(tr, "train_step", traced_step)
        state, _ = tr.train(tr.TrainConfig(steps=1), ds, tmp_path)
        assert mp.active_children() == [] and len(peaks) == 1
        assert peaks[0] <= 11 << 20

    def test_a_reply_is_what_the_serve_returned_or_raised(self):
        def serve(request):
            if request == "fail":
                raise FloatingPointError("serving 'fail' failed")
            return np.arange(3.0) * request

        helper = tr._Helper(mp.get_context("fork"), serve, [])
        try:
            for part in (tr._Local(serve), helper):
                part.send(2.0)
                assert part.reply().tolist() == [0.0, 2.0, 4.0]
                part.send("fail")
                with pytest.raises(FloatingPointError) as raised:
                    part.reply()
                assert type(raised.value) is FloatingPointError
                assert str(raised.value) == "serving 'fail' failed"
        finally:
            helper.conn.close()
            helper.proc.join()
        assert mp.active_children() == []

    def test_zero_projection_in_a_helper_chunk_is_the_same_train_error(self, tmp_path, monkeypatch):
        # view 6 of 8, in the chunk of views 5..7 that the helper runs, is all zero
        cfg = chunked_config()
        rng = np.random.default_rng(5)
        views_b = rng.uniform(0.0, 1.0, size=(4, 8, 8, 8))
        views_b[2] = 0.0
        batch = sp.PairBatch(rng.uniform(0.0, 1.0, size=(4, 8, 8, 8)), views_b, np.arange(4))
        monkeypatch.setattr(sp, "sample_batch", lambda *args: batch)
        with pytest.raises(tr.TrainError) as in_process:
            tr.train_step(tr.init_state(cfg), tiny_dataset(), cfg)

        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        with pytest.raises(tr.TrainError) as helped:
            tr.train(cfg, tiny_dataset(), tmp_path / "run")
        assert str(helped.value) == str(in_process.value)
        assert str(helped.value).startswith("zero projection at step 1 ")
        assert mp.active_children() == []

    @pytest.mark.parametrize("stage", ["forward", "backward"])
    def test_other_exception_in_a_helper_reaches_the_caller(self, tmp_path, monkeypatch, stage):
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        parent, real = os.getpid(), getattr(enc, stage)

        def failing_in_the_helper(*a):
            if os.getpid() != parent:
                raise FloatingPointError(f"{stage} of a helper chunk failed")
            return real(*a)

        monkeypatch.setattr(enc, stage, failing_in_the_helper)
        with pytest.raises(FloatingPointError) as raised:
            tr.train(chunked_config(), tiny_dataset(), tmp_path / "run")
        assert type(raised.value) is FloatingPointError
        assert str(raised.value) == f"{stage} of a helper chunk failed"
        assert mp.active_children() == []

    def test_killed_helper_is_a_helper_exit_error(self, tmp_path, monkeypatch):
        cfg = chunked_config(steps=6)
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        parent, forwards = os.getpid(), []
        real = enc.forward

        def forward_killing_the_helper_in_step_3(*a):
            if os.getpid() == parent:
                forwards.append(len(a[1]))
                if len(forwards) == 3:  # the parent runs one chunk a step
                    os.kill(mp.active_children()[0].pid, signal.SIGKILL)
            return real(*a)

        monkeypatch.setattr(enc, "forward", forward_killing_the_helper_in_step_3)
        with pytest.raises(tr.HelperExitError, match="exited with code -9$"):
            tr.train(cfg, tiny_dataset(), tmp_path / "run")
        assert forwards == [5, 5, 5]
        assert mp.active_children() == []

    def test_sigint_to_a_helper_is_ignored(self, tmp_path, monkeypatch):
        cfg = chunked_config(steps=4)
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 0)
        tr.train(cfg, tiny_dataset(), tmp_path / "one")

        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        parent, forwards, real = os.getpid(), [], enc.forward

        def forward_interrupting_the_helper_in_step_2(*a):
            if os.getpid() == parent:
                forwards.append(len(a[1]))
                if len(forwards) == 2:  # the helper has served step 1, so it is in its loop
                    os.kill(mp.active_children()[0].pid, signal.SIGINT)
            return real(*a)

        monkeypatch.setattr(enc, "forward", forward_interrupting_the_helper_in_step_2)
        tr.train(cfg, tiny_dataset(), tmp_path / "helped")
        assert forwards == [5] * cfg.steps
        assert mp.active_children() == []
        for name in ("ckpt_final.dckpt", "metrics.csv"):
            assert (tmp_path / "helped" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

    def test_keyboard_interrupt_in_the_parent_kills_the_helpers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        parent = os.getpid()

        def forward_interrupted_in_the_parent(*a):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a helper still at work when the parent is interrupted

        monkeypatch.setattr(enc, "forward", forward_interrupted_in_the_parent)
        t = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            tr.train(chunked_config(), tiny_dataset(), tmp_path / "run")
        assert time.monotonic() - t < 30  # killed, not joined after its 60 s
        assert mp.active_children() == []


def test_no_spread_without_an_openblas_thread_count(monkeypatch):
    monkeypatch.setattr(tr, "_openblas_threads", lambda: None)
    assert tr._spare_cpus() == 0


class TestOneBlasThread:
    """While a spread runs, every process of it runs OpenBLAS on one thread,
    and the parent's own count comes back afterwards."""

    @pytest.fixture(autouse=True)
    def blas_threads(self):
        """The OpenBLAS thread-count getter, with the count set to 2 for the test."""
        blas = tr._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread-count function in the libraries this process loaded")
        get, set_ = blas
        own = get()
        set_(2)
        try:
            with time_limit(120):
                yield get
        finally:
            set_(own)

    def test_spread_rows(self, monkeypatch, blas_threads):
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        rows = tr.spread_rows(4, 1, lambda lo, hi: np.array([[blas_threads(), os.getpid()]] * (hi - lo), float))
        assert mp.active_children() == []
        assert rows[:, 0].tolist() == [1, 1, 1, 1]
        assert rows[:2, 1].tolist() == [os.getpid()] * 2 and os.getpid() not in rows[2:, 1]  # the helper ran 2 and 3
        assert blas_threads() == 2

    def test_helped_train(self, tmp_path, monkeypatch, blas_threads):
        monkeypatch.setattr(tr, "_spare_cpus", lambda: 1)
        seen, real = [], enc.forward
        monkeypatch.setattr(enc, "forward", lambda *a: seen.append(blas_threads()) or real(*a))
        tr.train(chunked_config(steps=2), tiny_dataset(), tmp_path / "run")
        assert mp.active_children() == []
        assert seen == [1, 1]  # the parent's chunk of each step
        assert blas_threads() == 2


class TestTrainLoop:
    def test_metrics_row_count(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(steps=25, log_every=10)
        _, rows = tr.train(cfg, ds, tmp_path / "run")
        assert len(rows) == int(np.ceil(25 / 10))
        text = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert text[0] == "step,loss,grad_norm,pos_cos,neg_cos"
        assert len(text) == 1 + 3
        assert [int(line.split(",")[0]) for line in text[1:]] == [10, 20, 25]

    def test_resume_equivalence_bit_identical(self, tmp_path):
        ds = tiny_dataset()
        full_cfg = tiny_config(steps=12, checkpoint_every=6)
        s_full, _ = tr.train(full_cfg, ds, tmp_path / "full")

        tr.train(tiny_config(steps=6, checkpoint_every=6), ds, tmp_path / "half")
        s_res, _ = tr.train(
            full_cfg, ds, tmp_path / "resumed",
            resume_from=tmp_path / "half" / "ckpt_final.dckpt",
        )
        for k in s_full.params:
            assert s_full.params[k].tobytes() == s_res.params[k].tobytes()

    def test_resume_bit_identical_with_a_partial_last_chunk(self, tmp_path):
        # the default channels at 8^3 run chunks of 5, so a step's 8 views run as 5 + 3
        ds = tiny_dataset()
        full_cfg = chunked_config(steps=4, checkpoint_every=2)
        assert enc.views_per_chunk(full_cfg.encoder) == 5
        tr.train(full_cfg, ds, tmp_path / "full")
        tr.train(chunked_config(steps=2, checkpoint_every=2), ds, tmp_path / "half")
        tr.train(full_cfg, ds, tmp_path / "resumed", resume_from=tmp_path / "half" / "ckpt_final.dckpt")
        for name in ("ckpt_final.dckpt", "metrics.csv"):
            assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name

    @pytest.mark.parametrize("log_every", [2, 3])
    def test_resumed_metrics_csv_bit_identical(self, tmp_path, log_every):
        ds = tiny_dataset()
        full_cfg = tiny_config(steps=4, log_every=log_every)
        _, full_rows = tr.train(full_cfg, ds, tmp_path / "full")

        tr.train(tiny_config(steps=2, log_every=log_every), ds, tmp_path / "half")
        _, res_rows = tr.train(full_cfg, ds, tmp_path / "resumed",
                               resume_from=tmp_path / "half" / "ckpt_final.dckpt")
        assert res_rows == full_rows
        want = (tmp_path / "full" / "metrics.csv").read_bytes()
        assert (tmp_path / "resumed" / "metrics.csv").read_bytes() == want
        assert (tmp_path / "resumed" / "ckpt_final.dckpt").read_bytes() == \
            (tmp_path / "full" / "ckpt_final.dckpt").read_bytes()

    def test_crash_leaves_the_latest_checkpoints_metrics(self, tmp_path, monkeypatch):
        ds = tiny_dataset()
        cfg = tiny_config(steps=8, checkpoint_every=2, log_every=1)
        real_step = tr.train_step

        def step_crashing_at_5(state, *args):
            if state.step == 4:
                raise RuntimeError("crash at step 5")
            return real_step(state, *args)

        monkeypatch.setattr(tr, "train_step", step_crashing_at_5)
        with pytest.raises(RuntimeError, match="crash at step 5"):
            tr.train(cfg, ds, tmp_path / "run")
        state, _ = tr.load_train_state(tmp_path / "run" / "ckpt_000004.dckpt")
        assert [r["step"] for r in state.rows] == [1, 2, 3, 4]
        tr.write_metrics(state.rows, tmp_path / "want.csv")
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_last_step_saved_once(self, tmp_path):
        tr.train(tiny_config(steps=4, checkpoint_every=2), tiny_dataset(), tmp_path / "run")
        assert sorted(f.name for f in (tmp_path / "run").iterdir()) == [
            "ckpt_000002.dckpt", "ckpt_final.dckpt", "metrics.csv"]

    def test_checkpoint_next_step_metrics_match(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(steps=8, checkpoint_every=4, log_every=1)
        _, rows = tr.train(cfg, ds, tmp_path / "run")
        state, ck_cfg = tr.load_train_state(tmp_path / "run" / "ckpt_000004.dckpt")
        assert ck_cfg == cfg
        metrics = tr.train_step(state, ds, cfg)
        want = next(r for r in rows if r["step"] == 5)
        assert metrics == want

    def test_final_checkpoint_loadable_by_encoder(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(steps=3)
        state, _ = tr.train(cfg, ds, tmp_path / "run")
        loaded, ck_cfg = tr.load_train_state(tmp_path / "run" / "ckpt_final.dckpt")
        params, cfg_enc = loaded.params, ck_cfg.encoder
        assert cfg_enc == cfg.encoder
        assert all(params[k].tobytes() == state.params[k].tobytes() for k in params)

    def test_full_run_reproducible(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(steps=6)
        tr.train(cfg, ds, tmp_path / "a")
        tr.train(cfg, ds, tmp_path / "b")
        for name in ("ckpt_final.dckpt", "metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_mismatched_patch_sides_rejected(self):
        with pytest.raises(ValueError, match="patch_side"):
            tiny_config(sampler=sp.SamplerConfig(patch_side=16, batch_pairs=2))

    # steps=2.5 used to train 3 steps, and seed=-1 failed only in init_state
    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("steps", "checkpoint_every", "log_every", "seed")
        for value in (2.5, 8.0, True)
    ] + [("seed", -1)])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tr.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", math.inf), ("lr", math.nan), ("temperature", math.inf), ("temperature", math.nan),
        ("temperature", 0.0), ("temperature", -1.0), ("temperature", 1e-320),
    ])
    def test_non_finite_or_non_positive_rate_rejected(self, field, value):
        bound = {"lr": "> 0", "temperature": ">= 1e-300"}[field]
        with pytest.raises(ValueError, match=f"{field} must be a finite real number {bound}"):
            tr.TrainConfig(**{field: value})

    def test_smallest_temperature_accepted(self):
        assert tr.TrainConfig(temperature=1e-300).temperature == 1e-300

    def test_resume_config_mismatch_rejected(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(steps=4, checkpoint_every=2)
        tr.train(cfg, ds, tmp_path / "run")
        other = tiny_config(
            steps=8,
            encoder=enc.EncoderConfig(patch_side=8, channels=(2, 4), h_dim=8, z_dim=4),
        )
        with pytest.raises(tr.TrainError, match="encoder config"):
            tr.train(other, ds, tmp_path / "x", resume_from=tmp_path / "run" / "ckpt_000002.dckpt")

    @pytest.mark.parametrize("changed", [
        {"sampler": sp.SamplerConfig(patch_side=8, batch_pairs=3,
                                     augment=sp.AugmentConfig(max_jitter_vox=0))},
        {"lr": 2e-3},
    ])
    def test_resume_with_changed_config_rejected(self, tmp_path, changed):
        ds = tiny_dataset()
        tr.train(tiny_config(steps=2), ds, tmp_path / "run")
        name = next(iter(changed))
        with pytest.raises(tr.TrainError, match=f"checkpoint {name} config"):
            tr.train(tiny_config(steps=4, **changed), ds, tmp_path / "x",
                     resume_from=tmp_path / "run" / "ckpt_final.dckpt")

    def test_resume_with_fewer_steps_rejected(self, tmp_path):
        ds = tiny_dataset()
        tr.train(tiny_config(steps=4), ds, tmp_path / "run")
        with pytest.raises(tr.TrainError, match="checkpoint step 4 > train config steps 2"):
            tr.train(tiny_config(steps=2), ds, tmp_path / "x", resume_from=tmp_path / "run" / "ckpt_final.dckpt")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("resume", [False, True])
    def test_too_few_supervoxels_refused_before_the_run_is_built(self, tmp_path, monkeypatch, resume):
        # 9 pairs from 8 eligible supervoxels: the parent made out_dir, mapped the
        # shared arrays and forked a helper before the first batch raised
        cfg = tiny_config(steps=2, sampler=sp.SamplerConfig(patch_side=8, batch_pairs=9))
        ckpt = None
        if resume:
            tr.train(cfg, tiny_dataset(n_supervoxels=9), tmp_path / "run")
            ckpt = tmp_path / "run" / "ckpt_final.dckpt"

        def refuse(shapes):
            raise AssertionError("shared arrays mapped for a run that cannot draw a batch")

        monkeypatch.setattr(tr, "_shared_arrays", refuse)
        with pytest.raises(sp.SamplingError, match="need 9 eligible supervoxels, found 8"):
            tr.train(replace(cfg, steps=4), tiny_dataset(n_supervoxels=8), tmp_path / "x", resume_from=ckpt)
        assert not (tmp_path / "x").exists()

    def test_resume_with_equal_steps_rewrites_the_same_files(self, tmp_path):
        ds = tiny_dataset()
        tr.train(tiny_config(steps=4), ds, tmp_path / "run")
        tr.train(tiny_config(steps=4), ds, tmp_path / "again", resume_from=tmp_path / "run" / "ckpt_final.dckpt")
        for name in ("ckpt_final.dckpt", "metrics.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    def test_malformed_train_state_rejected(self, tmp_path):
        cfg = tiny_config(steps=4, log_every=1)
        tr.train(cfg, tiny_dataset(), tmp_path / "run")
        good, records = split_checkpoint(tmp_path / "run" / "ckpt_final.dckpt")
        ts = good["train_state"]
        rng_state = ts["rng_state"]

        def row_steps(*steps):
            return {**ts, "rows": [{**ts["rows"][0], "step": s} for s in steps]}

        bad_states = [
            {**ts, "step": "2"},
            {**ts, "step": -1},
            {**ts, "step": 2.5},
            {k: v for k, v in ts.items() if k != "rng_state"},
            {**ts, "rng_state": "PCG64"},
            {**ts, "rng_state": {**rng_state, "bit_generator": "MT19937"}},
            {**ts, "rng_state": {**rng_state, "state": {"state": -1, "inc": 1}}},
            # numpy would hold these as 1, a state the file does not hold
            {**ts, "rng_state": {**rng_state, "state": {**rng_state["state"], "state": 1.5}}},
            {**ts, "rng_state": {**rng_state, "uinteger": 1.5}},
            [2, rng_state],
            {k: v for k, v in ts.items() if k != "step"},
            {k: v for k, v in ts.items() if k != "rows"},
            {**ts, "rows": {}},
            {**ts, "rows": [{**ts["rows"][0], "loss": "0.5"}]},
            {**ts, "rows": [{"step": 2}]},
            {**ts, "junk": 1},
            None,
            # row steps must be the logged steps of 1..step; a resume would drop others without a word
            row_steps(999, 3), row_steps(0, 1), row_steps(5), row_steps(2, 2), row_steps(3, 1),
            row_steps(1, 2, 3), row_steps(1, 2, 3, 4, 5), {**ts, "step": 10 ** 18},
        ]
        p = tmp_path / "bad.dckpt"
        for bad in bad_states:
            p.write_bytes(container_bytes({**good, "train_state": bad}, records))
            with pytest.raises(tr.CheckpointError, match="bad train_state"):
                tr.load_train_state(p)

        config = {k: v for k, v in good.items() if k != "train_state"}
        bad_configs = [
            {**config, "lr": True},
            {**config, "sampler": {**config["sampler"], "augment": None}},
        ]
        for bad in bad_configs:
            p.write_bytes(container_bytes({**bad, "train_state": ts}, records))
            with pytest.raises(tr.CheckpointError, match="bad config"):
                tr.load_train_state(p)

        # the first key path that one side lacks, each dict's missing keys before its unknown ones
        sampler = config["sampler"]
        mismatched_keys = [
            ({}, "missing field 'steps'"),
            ({k: v for k, v in config.items() if k != "lr"}, "missing field 'lr'"),
            ({**config, "sampler": {**sampler, "augment": {}}}, "missing field 'sampler.augment.use_octahedral'"),
            ({**config, "sampler": {k: v for k, v in sampler.items() if k != "max_pair_dist_nm"}},
             "missing field 'sampler.max_pair_dist_nm'"),
            ({**config, "momentum": 0.9}, "unknown field 'momentum'"),
            ({**config, "sampler": {**sampler, "foo": 1}}, "unknown field 'sampler.foo'"),
            ({**config, "sampler": {**sampler, "augment": {**sampler["augment"], "bar": None}}},
             "unknown field 'sampler.augment.bar'"),
            ({**config, "momentum": 0.9, "sampler": {}}, "missing field 'sampler.patch_side'"),
        ]
        for bad, message in mismatched_keys:
            p.write_bytes(container_bytes({**bad, "train_state": ts}, records))
            with pytest.raises(tr.CheckpointError, match=re.escape(f"bad config: {message}")):
                tr.load_train_state(p)

    def test_rows_off_the_log_schedule_rejected(self, tmp_path):
        tr.train(tiny_config(steps=4, log_every=2), tiny_dataset(), tmp_path / "run")
        good, records = split_checkpoint(tmp_path / "run" / "ckpt_final.dckpt")
        ts = good["train_state"]
        assert [r["step"] for r in ts["rows"]] == [2, 4]
        rows = [{**r, "step": s} for r, s in zip(ts["rows"], (1, 3))]
        p = tmp_path / "bad.dckpt"
        p.write_bytes(container_bytes({**good, "train_state": {**ts, "rows": rows}}, records))
        with pytest.raises(tr.CheckpointError,
                           match=re.escape("row steps [1, 3] are not the steps logged up to step 4")):
            tr.load_train_state(p)

    def test_every_checkpoint_a_run_writes_loads(self, tmp_path):
        # the first run logs its last step 5 off the schedule, and a resume to 9 drops it
        ds = tiny_dataset()
        tr.train(tiny_config(steps=5, log_every=2, checkpoint_every=2), ds, tmp_path / "run")
        for out, ckpt in [("from4", "ckpt_000004.dckpt"), ("from5", "ckpt_final.dckpt")]:
            tr.train(tiny_config(steps=9, log_every=2, checkpoint_every=2), ds, tmp_path / out,
                     resume_from=tmp_path / "run" / ckpt)
        loaded = {}
        for path in sorted(tmp_path.glob("*/ckpt_*.dckpt")):
            state, _ = tr.load_train_state(path)
            loaded[f"{path.parent.name}/{path.name}"] = [r["step"] for r in state.rows]
        resumed = {"ckpt_000006.dckpt": [2, 4, 6], "ckpt_000008.dckpt": [2, 4, 6, 8],
                   "ckpt_final.dckpt": [2, 4, 6, 8, 9]}
        assert loaded == {
            "run/ckpt_000002.dckpt": [2], "run/ckpt_000004.dckpt": [2, 4], "run/ckpt_final.dckpt": [2, 4, 5],
            **{f"{out}/{name}": rows for out in ("from4", "from5") for name, rows in resumed.items()},
        }

    @pytest.mark.parametrize("key, edit", [
        ("adam.m.head_z.b", "missing"),
        ("head_h.b", "missing"),
        ("adam.v.head_h.w", "misshapen"),
        ("adam.m.block0.conv0.w", "misshapen"),
    ])
    def test_bad_tensor_is_a_checkpoint_error(self, tmp_path, key, edit):
        state, _ = tr.train(tiny_config(steps=2), tiny_dataset(), tmp_path / "run")
        config, _ = split_checkpoint(tmp_path / "run" / "ckpt_final.dckpt")
        tensors = checkpoint_tensors(state)
        if edit == "missing":
            del tensors[key]
        else:
            tensors[key] = np.zeros(tensors[key].shape + (1,))
        p = tmp_path / "bad.dckpt"
        p.write_bytes(container_bytes(config, *records_of(tensors)))
        with pytest.raises(tr.CheckpointError, match=f"tensor '{key}'"):
            tr.load_train_state(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda records: [*records, tensor_record(b"extra", (1,), np.ones(1).tobytes())],
         "bytes after the last tensor 'adam.v.head_z.b'"),
        # a record named '' of shape () to a reader that takes any records
        (lambda records: [*records, bytes(16)], "bytes after the last tensor 'adam.v.head_z.b'"),
        (lambda records: [records[1], records[0], *records[2:]],
         "config/shape disagreement: want tensor 'block0.conv0.w'"),
    ], ids=["appended_tensor", "trailing_bytes", "swapped_tensors"])
    def test_records_off_the_layout_rejected(self, tmp_path, edit, message):
        state, _ = tr.train(tiny_config(steps=2), tiny_dataset(), tmp_path / "run")
        config, _ = split_checkpoint(tmp_path / "run" / "ckpt_final.dckpt")
        p = tmp_path / "bad.dckpt"
        p.write_bytes(container_bytes(config, *edit(records_of(checkpoint_tensors(state)))))
        with pytest.raises(tr.CheckpointError, match=re.escape(message)):
            tr.load_train_state(p)

    def test_existing_tmp_file_survives_metrics_write(self, tmp_path):
        target = tmp_path / "metrics.csv"
        bystander = tmp_path / "metrics.csv.tmp"
        bystander.write_bytes(b"user data\n")
        row = {"step": 1, "loss": 0.5, "grad_norm": 1.0, "pos_cos": 0.1, "neg_cos": 0.0}
        tr.write_metrics([row], target)
        assert bystander.read_bytes() == b"user data\n"
        assert target.read_text().splitlines()[1].startswith("1,0.5,")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["metrics.csv", "metrics.csv.tmp"]

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="no directory fsync on this platform")
    def test_write_fsyncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "metrics.csv"
        real_fsync = os.fsync
        synced = []  # (is a directory, inode, target exists) per fsync

        def recording_fsync(fd):
            st = os.fstat(fd)
            synced.append((stat.S_ISDIR(st.st_mode), st.st_ino, target.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        row = {"step": 1, "loss": 0.5, "grad_norm": 1.0, "pos_cos": 0.1, "neg_cos": 0.0}
        tr.write_metrics([row], target)
        assert (True, tmp_path.stat().st_ino, True) in synced

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "metrics.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(KeyError):
            tr.write_metrics([{"step": 1}], target)
        assert target.read_bytes() == b"old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["metrics.csv"]


def _without(key):
    return lambda c: {k: v for k, v in c.items() if k != key}


def _old_layout(c):
    """The line of an older checkpoint: the encoder's fields at the top level,
    and the TrainConfig inside train_state."""
    ts = {**c["train_state"], "config": {k: v for k, v in c.items() if k != "train_state"}}
    return {**c["encoder"], "train_state": ts}


def _parent_layout(c):
    """The line of a checkpoint written before temperature was a TrainConfig
    field: Adam's constants as fields, and the temperature in an ntxent group."""
    adam = {f"adam_{k}": v for k, v in (("beta1", 0.9), ("beta2", 0.999), ("eps", 1e-8))}
    return {**_without("temperature")(c), **adam, "ntxent": {"temperature": c["temperature"]}}


# edits of a good JSON line, asdict of the TrainConfig plus train_state, that
# leave no checkpoint, with the error each gives
OTHER_LAYOUTS = [
    pytest.param(_old_layout, "bad train_state", id="old_layout"),
    pytest.param(_parent_layout, "bad config: missing field 'temperature'", id="parent_layout"),
    pytest.param(_without("encoder"), "bad config: missing field 'encoder'", id="no_encoder"),
    pytest.param(lambda c: {**c, "encoder": list(c["encoder"].values())}, "bad config: encoder must be",
                 id="encoder_a_list"),
    pytest.param(lambda c: {**c, "encoder": 8}, "bad config: encoder must be", id="encoder_a_number"),
    pytest.param(_without("train_state"), "bad train_state", id="no_train_state"),
    pytest.param(lambda c: {**c, "train_state": None}, "bad train_state", id="train_state_null"),
    pytest.param(lambda c: {**c, "momentum": 0.9}, "bad config: unknown field 'momentum'",
                 id="unknown_top_level_key"),
]


class TestCheckpointLayout:
    def test_json_line_is_the_train_config_plus_train_state(self, tmp_path):
        # the asdict form that a JSON config file of the same run holds
        cfg = tiny_config(steps=3)
        state, _ = tr.train(cfg, tiny_dataset(), tmp_path / "run")
        config, records = split_checkpoint(tmp_path / "run" / "ckpt_final.dckpt")
        ts = config.pop("train_state")
        assert config == json.loads(json.dumps(asdict(cfg)))
        assert tr.TrainConfig(**config) == cfg
        assert sorted(ts) == ["rng_state", "rows", "step"] and ts["step"] == 3
        assert records == b"".join(records_of(checkpoint_tensors(state)))

    @pytest.mark.parametrize("reader", [enc.load, tr.load_train_state], ids=["encoder.load", "load_train_state"])
    @pytest.mark.parametrize("edit, message", OTHER_LAYOUTS)
    def test_other_layouts_are_checkpoint_errors(self, tmp_path, reader, edit, message):
        tr.train(tiny_config(steps=2), tiny_dataset(), tmp_path / "run")
        config, records = split_checkpoint(tmp_path / "run" / "ckpt_final.dckpt")
        p = tmp_path / "bad.dckpt"
        p.write_bytes(container_bytes(edit(config), records))
        with pytest.raises(tr.CheckpointError, match=re.escape(message)):
            reader(p)

    def test_step_0_checkpoint_bytes_are_pinned(self, tmp_path):
        # a step-0 state holds no BLAS result, so its bytes are the same on every host
        cfg = tiny_config()
        p = tmp_path / "ckpt.dckpt"
        tr.save_train_state(tr.init_state(cfg), cfg, p)
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest == "784d2e52407b7270bf9b7cda7d2ab79d5742139379453416cdb1f2890e051401"


# the encoder config of the checkpoint tests, and its parameters at init seed ``seed``
SMALL = enc.EncoderConfig(patch_side=8, channels=(2, 3), convs_per_block=2, h_dim=5, z_dim=4)
THREE_CONVS = replace(SMALL, convs_per_block=3)


def small_params(seed):
    return enc.init(replace(SMALL, init_seed=seed))


def tensor_record(name: bytes, shape, data: bytes = b"") -> bytes:
    """One raw checkpoint record, so a test can write what save_train_state never would."""
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape) + data)


def checkpoint_tensors(state) -> dict[str, np.ndarray]:
    """name -> tensor of each tensor of state, in the order a checkpoint holds them."""
    return {**state.params, **{f"adam.m.{k}": v for k, v in state.adam_m.items()},
            **{f"adam.v.{k}": v for k, v in state.adam_v.items()}}


def records_of(tensors: dict[str, np.ndarray]) -> list[bytes]:
    """The record of each tensor, as save_train_state writes it."""
    return [tensor_record(k.encode(), v.shape, v.astype("<f8").tobytes()) for k, v in tensors.items()]


def container_bytes(config: dict, *records: bytes) -> bytes:
    """A checkpoint file: the magic, config as the JSON line, then the records."""
    return tr.MAGIC + json.dumps(config).encode() + b"\n" + b"".join(records)


def split_checkpoint(path) -> tuple[dict, bytes]:
    """A checkpoint's JSON line, parsed, and the records after it: the line
    ends at the first newline after the magic."""
    raw = Path(path).read_bytes()
    end = raw.index(b"\n", len(tr.MAGIC)) + 1
    return json.loads(raw[len(tr.MAGIC):end]), raw[end:]


def edit_encoder_config(path, **changes):
    """Rewrite the encoder config in a checkpoint's JSON line with `changes` applied."""
    config, records = split_checkpoint(path)
    config["encoder"].update(changes)
    Path(path).write_bytes(container_bytes(config, records))


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = small_params(7)
        p = tmp_path / "ck.dckpt"
        save_checkpoint(params, SMALL, p)
        state, train_cfg = tr.load_train_state(p)
        got, cfg = state.params, train_cfg.encoder
        assert cfg == SMALL
        assert set(got) == set(params)
        assert all(got[k].tobytes() == params[k].tobytes() for k in params)

    def test_truncated_tensor_named(self, tmp_path):
        params = small_params(8)
        p = tmp_path / "ck.dckpt"
        save_checkpoint(params, SMALL, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(tr.CheckpointError, match="truncated tensor 'adam.v.head_z.b'"):
            tr.load_train_state(p)

    def test_magic_mismatch(self, tmp_path):
        p = tmp_path / "ck.dckpt"
        p.write_bytes(b"NOTCKPT\n{}\n")
        with pytest.raises(tr.CheckpointError, match="magic"):
            tr.load_train_state(p)

    def test_config_line_not_an_object(self, tmp_path):
        p = tmp_path / "ck.dckpt"
        p.write_bytes(tr.MAGIC + b"[]\n")
        with pytest.raises(tr.CheckpointError, match="not a JSON object"):
            tr.load_train_state(p)

    @pytest.mark.parametrize("reader", [enc.load, tr.load_train_state], ids=["encoder.load", "load_train_state"])
    @pytest.mark.parametrize("line", [
        b"[" * 200_000,  # nested deeper than json's recursion limit
        b'{"steps":' + b"1" * 5000 + b"}",  # more digits than int() converts
        b'{"\xff":1}',
    ], ids=["deep_nesting", "long_int", "not_utf8"])
    def test_unparsable_config_line_typed_error(self, tmp_path, reader, line):
        p = tmp_path / "ck.dckpt"
        p.write_bytes(tr.MAGIC + line + b"\n")
        with pytest.raises(tr.CheckpointError, match="bad config line"):
            reader(p)

    def test_edited_config_shape_disagreement(self, tmp_path):
        p = tmp_path / "ck.dckpt"
        save_checkpoint(small_params(9), SMALL, p)
        edit_encoder_config(p, channels=[2, 4])
        with pytest.raises(tr.CheckpointError, match="config/shape disagreement"):
            tr.load_train_state(p)

    @pytest.mark.parametrize("field, value", [
        ("patch_side", 8.0), ("channels", [2.5, 3]), ("convs_per_block", 2.0),
        ("h_dim", 5.0), ("z_dim", 4.0), ("init_seed", 0.0), ("channels", [0, 8, 16]),
    ])
    def test_non_integer_config_field_named(self, tmp_path, field, value):
        p = tmp_path / "ck.dckpt"
        save_checkpoint(small_params(9), SMALL, p)
        edit_encoder_config(p, **{field: value})
        with pytest.raises(tr.CheckpointError, match=f"bad config: {field} must be"):
            tr.load_train_state(p)

    @pytest.mark.parametrize("field", [f.name for f in fields(enc.EncoderConfig)])
    def test_missing_config_field_named(self, tmp_path, field):
        # without convs_per_block, a 3-conv checkpoint used to load as 2 convs: 12 of its 16 tensors
        p = tmp_path / "ck.dckpt"
        save_checkpoint(enc.init(THREE_CONVS), THREE_CONVS, p)
        config, records = split_checkpoint(p)
        del config["encoder"][field]
        p.write_bytes(container_bytes(config, records))
        with pytest.raises(tr.CheckpointError, match=f"missing field 'encoder.{field}'"):
            tr.load_train_state(p)

    def _with_record(self, tmp_path, at: int, name: bytes | None = None, shape=None) -> Path:
        """A checkpoint of small_params(11) whose record number ``at`` has the
        given name or shape in its header, and its own data."""
        p = tmp_path / "ck.dckpt"
        save_checkpoint(small_params(11), SMALL, p)
        config, _ = split_checkpoint(p)
        state, _ = tr.load_train_state(p)
        tensors = checkpoint_tensors(state)
        records = records_of(tensors)
        own_name, value = list(tensors.items())[at]
        records[at] = tensor_record(name or own_name.encode(), shape or value.shape, value.tobytes())
        p.write_bytes(container_bytes(config, *records))
        return p

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        # block0.conv0.w a second time, where block0.conv0.b is next
        p = self._with_record(tmp_path, 1, name=b"block0.conv0.w")
        with pytest.raises(tr.CheckpointError, match="want tensor 'block0.conv0.b'"):
            tr.load_train_state(p)

    def test_non_utf8_name_rejected(self, tmp_path):
        p = self._with_record(tmp_path, 0, name=b"\xff\xfe")
        with pytest.raises(tr.CheckpointError, match="want tensor 'block0.conv0.w'"):
            tr.load_train_state(p)

    def test_corrupt_shape_rejected_before_reading(self, tmp_path):
        # refused at the header, before any data is read, not as a truncated tensor
        for shape in [(2**62, 2), (4, 2**63 + 1), (0, 2**62)]:
            p = self._with_record(tmp_path, 0, shape=shape)
            with pytest.raises(tr.CheckpointError, match="config/shape disagreement: want tensor 'block0.conv0.w'"):
                tr.load_train_state(p)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_or_bit_flipped_container_typed_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            p = f"{tmp}/ck.dckpt"
            save_checkpoint(small_params(10), SMALL, p)
            with open(p, "rb") as f:
                raw = bytearray(f.read())
            if data.draw(st.booleans(), label="truncate"):
                raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
            else:
                bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
                raw[bit // 8] ^= 1 << (bit % 8)
            with open(p, "wb") as f:
                f.write(raw)
            try:
                tr.load_train_state(p)
            except tr.CheckpointError:
                pass
