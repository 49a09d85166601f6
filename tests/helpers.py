"""Fixtures shared by the tests: the augmentation-free config, and a checkpoint
written the one way every checkpoint is written."""

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
