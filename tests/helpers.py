"""Fixtures shared by the tests: the augmentation-free config, a checkpoint
written the one way every checkpoint is written, the invariants of a
generated phantom, a time limit for tests that fork helper processes, and
the traced peak of a call."""

import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np

from synself import sampler as sp
from synself import trainer as tr

# no octahedral element, intensity change, noise or jitter: a view is its extracted patch
IDENTITY_AUGMENT = sp.AugmentConfig(False, (1.0, 1.0), (0.0, 0.0), 0.0, 0)


def save_checkpoint(params, cfg, path) -> None:
    """Save encoder parameters under EncoderConfig cfg through
    trainer.save_train_state: a step-0 state with zero Adam moments, in the
    default TrainConfig at cfg's patch side."""
    train_cfg = tr.TrainConfig(sampler=sp.SamplerConfig(patch_side=cfg.patch_side), encoder=cfg)
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    tr.save_train_state(tr.TrainState(0, params, zeros, zeros, np.random.default_rng(0)), train_cfg, path)


def assert_phantom_invariants(ph) -> None:
    """Assert what synthgen.generate guarantees of the phantom ph: each synapse
    lies inside its own supervoxel's box, and all synapses of one supervoxel
    share one class (Dale)."""
    class_of = {}
    for rec in ph.synapses:
        lo, hi = ph.cells[rec.supervoxel_id]
        assert all(l <= p < h for l, p, h in zip(lo, rec.pos, hi)), (
            f"synapse {rec.id} at {rec.pos} lies outside the cell of supervoxel {rec.supervoxel_id}")
        want = class_of.setdefault(rec.supervoxel_id, rec.class_label)
        assert rec.class_label == want, (
            f"synapse {rec.id}: class {rec.class_label} != class {want} of an earlier "
            f"synapse of supervoxel {rec.supervoxel_id}")


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in a block that still runs after seconds, rather
    than hang the suite on a helper process that never replies."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def traced_peak(fn) -> int:
    """The peak bytes tracemalloc traces while fn() runs, numpy's arrays included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
