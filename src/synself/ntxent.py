"""Normalized temperature-scaled cross-entropy loss over paired embeddings.

For 2N unit rows laid out as [a_0..a_{N-1}, b_0..b_{N-1}], where the partner
p(i) of row i is the other view of the same pair (i + N, or i - N):

    l_i  = -log( exp(z_i . z_p(i) / tau) / sum_{k != i} exp(z_i . z_k / tau) )
    loss = mean_i l_i

The returned gradient is with respect to the row matrix as free variables;
the unit-normalization Jacobian belongs to the encoder's own backward.
"""

from __future__ import annotations

from typing import Annotated

import numpy as np

from .volume_io import _checked, _describe

UNIT_ROW_TOL = 1e-9
# tau, as TrainConfig.temperature and loss() check it: 1/tau stays finite, as
# it would not at a subnormal tau such as 1e-320
Temperature = Annotated[float, ">= 1e-300"]


def _partners(z: np.ndarray) -> np.ndarray:
    """Partner index p(i) of every row of a (2N, D) batch."""
    if z.ndim != 2 or z.shape[0] < 2 or z.shape[0] % 2 != 0:
        raise ValueError(f"z must be (2N, D) with N >= 1, got shape {z.shape}")
    n = z.shape[0] // 2
    return np.concatenate([np.arange(n) + n, np.arange(n)])


def loss(z: np.ndarray, temperature: float) -> tuple[float, np.ndarray]:
    """Return (value, d_z) for a (2N, D) batch of unit row embeddings."""
    z = np.asarray(z, dtype=np.float64)
    pairing = _partners(z)
    try:
        temperature = _checked(temperature, Temperature)
    except (TypeError, OverflowError):
        raise ValueError(f"temperature must be {_describe(Temperature)}, got {temperature!r}") from None
    n2 = z.shape[0]
    norms = np.linalg.norm(z, axis=1)
    bad = np.nonzero(np.abs(norms - 1.0) > UNIT_ROW_TOL)[0]
    if bad.size:
        raise ValueError(f"row {bad[0]} has norm {norms[bad[0]]!r}, expected unit")

    logits = (z @ z.T) / temperature
    np.fill_diagonal(logits, -np.inf)  # exclude k == i
    row_max = logits.max(axis=1, keepdims=True)
    exp_shift = np.exp(logits - row_max)
    denom = exp_shift.sum(axis=1)
    lse = row_max[:, 0] + np.log(denom)
    pos = logits[np.arange(n2), pairing]
    value = float(np.mean(lse - pos))

    softmax = exp_shift / denom[:, None]  # zero on the diagonal by construction
    g = softmax
    g[np.arange(n2), pairing] -= 1.0
    g /= n2 * temperature
    d_z = (g + g.T) @ z
    return value, d_z


def batch_cosine_stats(z: np.ndarray) -> tuple[float, float]:
    """Mean positive-pair and mean negative cosine similarity of a unit-row batch."""
    z = np.asarray(z, dtype=np.float64)
    pairing = _partners(z)
    n2 = z.shape[0]
    sim = z @ z.T
    idx = np.arange(n2)
    pos = float(sim[idx, pairing].mean())
    mask = np.ones_like(sim, dtype=bool)
    mask[idx, idx] = False
    mask[idx, pairing] = False
    neg = float(sim[mask].mean())
    return pos, neg
