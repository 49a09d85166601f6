"""Embedding extraction and quantitative structure analysis.

Embeds every synapse as the trained encoder's penultimate h (the projection
z exists only for the training loss), projects to 2D with PCA from one
symmetric eigendecomposition of the covariance, clusters with k-means, and
scores agreement against labels (NMI/ARI) and supervoxel concordance. All
routines are deterministic: seeded k-means with fixed tie rules, a sign rule
on every principal axis, and a stable SVG emitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import sampler as sp
from .volume_io import EmbeddingMatrix, IntensityVolume, SynapseRecord, _atomic_write, check_synapses_in_bounds

# an eigenvalue at or below this times max(total variance, 1) counts as zero
RANK_REL_TOL = 1e-12
KMEANS_MAX_ITER = 300
KMEANS_N_INIT = 10
CONCORDANCE_SAMPLE = 10_000


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# embedding extraction


def embed_all(
    checkpoint_path,
    volume: IntensityVolume,
    synapses: list[SynapseRecord],
    patch_side: int,
) -> EmbeddingMatrix:
    """One h row per synapse, in table order, without augmentation; patch_side
    must be the checkpoint's."""
    params, cfg = enc.load(checkpoint_path)
    if patch_side != cfg.patch_side:
        raise AnalysisError(
            f"requested patch_side {patch_side} != checkpoint patch_side {cfg.patch_side}"
        )
    return embed_with_params(params, cfg, volume, synapses)


def embed_with_params(
    params,
    cfg: enc.EncoderConfig,
    volume: IntensityVolume,
    synapses: list[SynapseRecord],
) -> EmbeddingMatrix:
    """:func:`embed_all` with parameters in memory; a synapse outside the volume raises VolumeFormatError.

    Synapses go through the encoder in chunks; each row has the bits of a one-view forward.
    """
    if not synapses:
        raise AnalysisError("no synapses to embed")
    check_synapses_in_bounds(synapses, volume.header)
    chunk = enc.views_per_chunk(cfg)
    rows = []
    for i in range(0, len(synapses), chunk):
        patches = np.stack([sp.extract_patch(volume, rec.pos, cfg.patch_side) for rec in synapses[i:i + chunk]])
        h, _ = enc.forward(params, patches, cfg)
        rows.append(h)
    return EmbeddingMatrix([r.id for r in synapses], np.concatenate(rows))


# ---------------------------------------------------------------------------
# PCA


@dataclass
class PCAResult:
    coords: np.ndarray  # (M, out_dim)
    components: np.ndarray  # (out_dim, D) orthonormal rows
    explained_variance: np.ndarray  # fractions of total variance, non-increasing
    n_positive: int  # how many requested components had positive eigenvalues


def pca_project(emb: EmbeddingMatrix, out_dim: int = 2) -> PCAResult:
    """Top principal axes of the sample covariance, each signed so that its first
    largest-magnitude entry is positive; axes past the rank (or past D) are zero rows."""
    x = emb.values
    m, d = x.shape
    if type(out_dim) is not int or not 1 <= out_dim < m:
        raise AnalysisError(f"out_dim must be an integer in [1, {m}) for {m} rows, got {out_dim!r}")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (m - 1)
    total_var = float(np.trace(cov))
    evals, evecs = np.linalg.eigh(cov)  # ascending
    top = evals[::-1][:out_dim]
    n_positive = int(np.count_nonzero(top > RANK_REL_TOL * max(total_var, 1.0)))
    axes = evecs[:, ::-1][:, :n_positive].T
    peaks = axes[np.arange(n_positive), np.argmax(np.abs(axes), axis=1)]
    components = np.zeros((out_dim, d))
    components[:n_positive] = np.where(peaks[:, None] < 0, -axes, axes)
    eigenvalues = np.zeros(out_dim)
    eigenvalues[:n_positive] = top[:n_positive]
    coords = centered @ components.T
    fractions = eigenvalues / total_var if total_var > 0 else eigenvalues
    return PCAResult(coords, components, fractions, n_positive)


# ---------------------------------------------------------------------------
# k-means with k-means++ seeding


@dataclass
class KMeansResult:
    labels: np.ndarray  # (M,) cluster index per row
    inertia: float
    centroids: np.ndarray  # (k, D)
    inertia_history: list[float]  # winning init, one value per Lloyd iteration


def _kmeans_pp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    m = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(m))
    centers[0] = x[first]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for ci in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(m, p=probs))
        else:
            idx = int(rng.integers(m))
        centers[ci] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[ci]) ** 2, axis=1))
    return centers


def _assign(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)  # ties -> lowest centroid index
    return labels, float(d2[np.arange(x.shape[0]), labels].sum())


def kmeans(x: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise AnalysisError(f"kmeans expects (M,D) data, got shape {x.shape}")
    m = x.shape[0]
    if type(k) is not int or not 1 <= k <= m:
        raise AnalysisError(f"k must be an integer in [1, {m}], got {k!r}")
    if type(seed) is not int or seed < 0:  # numpy would read True as 1
        raise AnalysisError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_N_INIT):
        centers = _kmeans_pp_centers(x, k, rng)
        labels, inertia = _assign(x, centers)
        history = [inertia]
        for _ in range(KMEANS_MAX_ITER):
            for ci in range(k):  # empty clusters keep their previous centroid
                member = labels == ci
                if member.any():
                    centers[ci] = x[member].mean(axis=0)
            new_labels, inertia = _assign(x, centers)
            history.append(inertia)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        if best is None or history[-1] < best.inertia:
            best = KMeansResult(labels.copy(), history[-1], centers.copy(), history)
    return best


# ---------------------------------------------------------------------------
# label agreement metrics


def _contingency(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise AnalysisError(f"labelings must be equal-length vectors, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise AnalysisError("empty labelings")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(a, b) -> float:
    """Normalized mutual information, arithmetic-mean normalization, natural logs.

    MI is computed as H(a) + H(b) - H(a,b) from one entropy routine, which
    makes the identical-labeling case exactly 1.
    """
    table = _contingency(a, b)
    ha = _entropy(table.sum(axis=1))
    hb = _entropy(table.sum(axis=0))
    hab = _entropy(table.reshape(-1))
    mi = ha + hb - hab
    denom = (ha + hb) / 2.0
    if denom <= 0.0 or mi <= 0.0:
        return 0.0
    return min(mi / denom, 1.0)


def ari(a, b) -> float:
    """Adjusted Rand index by the standard pair-counting formula."""
    table = _contingency(a, b)
    n = int(table.sum())

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_ij = float(comb2(table.astype(np.float64)).sum())
    sum_a = float(comb2(table.sum(axis=1).astype(np.float64)).sum())
    sum_b = float(comb2(table.sum(axis=0).astype(np.float64)).sum())
    total = comb2(float(n))
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:  # both partitions trivial: identical by construction
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# supervoxel concordance


def _cosines(dots: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    # sqrt of the product keeps cos(u, u) == 1 exactly
    return dots / np.maximum(np.sqrt(sq_a * sq_b), 1e-300)


def concordance(
    emb: EmbeddingMatrix,
    synapses: list[SynapseRecord],
    sample: int = CONCORDANCE_SAMPLE,
    seed: int = 0,
) -> tuple[float, float]:
    """(intra, inter): mean cosine within supervoxels vs across supervoxels.

    Intra covers every within-supervoxel pair, from one Gram matrix per
    supervoxel; inter uses a seeded sample of `sample` cross-supervoxel pairs
    (all of them when fewer exist). A pair's cosine is u.v / sqrt((u.u)(v.v)),
    with the denominator floored at 1e-300, so a zero row has cosine 0 and two
    equal rows have cosine exactly 1. Pairs are averaged in row-major order.
    """
    # an empty sample would average no inter pair, to NaN
    if type(sample) is not int or sample < 1:
        raise AnalysisError(f"sample must be an integer >= 1, got {sample!r}")
    # checked before the branch on cross_total: only a sampled inter draws from it
    if type(seed) is not int or seed < 0:
        raise AnalysisError(f"seed must be an integer >= 0, got {seed!r}")
    by_id = {rec.id: rec.supervoxel_id for rec in synapses}
    try:
        sv = np.array([by_id[i] for i in emb.synapse_ids])
    except KeyError as e:
        raise AnalysisError(f"embedding id {e.args[0]} missing from synapse table") from None
    x = np.ascontiguousarray(emb.values)
    m = x.shape[0]
    # einsum sums every dot product in its own loop over the columns, with no
    # BLAS blocking, so the Gram entry of two equal rows equals their squared norm
    sq = np.einsum("ij,ij->i", x, x)
    intra_parts = []
    for label in np.unique(sv):
        rows = np.nonzero(sv == label)[0]
        i, j = np.triu_indices(len(rows), 1)
        xs = x[rows]
        gram = np.einsum("id,jd->ij", xs, xs)
        intra_parts.append(_cosines(gram[i, j], sq[rows[i]], sq[rows[j]]))
    intra_vals = np.concatenate(intra_parts)
    if intra_vals.size == 0:
        raise AnalysisError("no supervoxel has two embedded synapses; intra undefined")

    cross_total = m * (m - 1) // 2 - intra_vals.size
    if cross_total == 0:
        raise AnalysisError("no cross-supervoxel pairs; inter undefined")
    if cross_total <= sample:
        i, j = np.nonzero(np.triu(sv[:, None] != sv[None, :], 1))
    else:
        # draws in chunks of `sample` pairs are the same stream as one
        # rng.integers(m, size=2) call per pair (PCG64 buffers its 32-bit
        # half-words in its own state); the rng is local, so over-drawing is harmless
        rng = np.random.default_rng(seed)
        i = j = np.empty(0, dtype=np.int64)
        while i.size < sample:
            a, b = rng.integers(m, size=(sample, 2)).T
            keep = (a != b) & (sv[a] != sv[b])
            i, j = np.concatenate([i, a[keep]]), np.concatenate([j, b[keep]])
        i, j = i[:sample], j[:sample]
    inter_vals = _cosines(np.einsum("ij,ij->i", x[i], x[j]), sq[i], sq[j])
    return float(np.mean(intra_vals)), float(np.mean(inter_vals))


# ---------------------------------------------------------------------------
# scatter figure

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1170aa", "#a3acb9",
)

SVG_SIZE = (640, 480)
SVG_MARGIN_FRAC = 0.05
POINT_RADIUS = 3.0


def emit_scatter(coords: np.ndarray, labels, path) -> None:
    """Deterministic standalone SVG: one circle per point, legend per label."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise AnalysisError(f"coords must be (M,2), got {coords.shape}")
    labels = ["?" if v is None else str(v) for v in labels]
    if len(labels) != coords.shape[0]:
        raise AnalysisError(f"{len(labels)} labels for {coords.shape[0]} points")
    uniq = sorted(set(labels))
    color = {lab: PALETTE[i % len(PALETTE)] for i, lab in enumerate(uniq)}

    width, height = SVG_SIZE
    plot_w = width - 120  # room for the legend column
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    lo = lo - SVG_MARGIN_FRAC * span
    hi = hi + SVG_MARGIN_FRAC * span
    span = hi - lo

    def sx(v):
        return (v - lo[0]) / span[0] * plot_w

    def sy(v):
        return height - (v - lo[1]) / span[1] * height  # svg y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for (px, py), lab in zip(coords, labels):
        parts.append(
            f'<circle cx="{sx(px):.3f}" cy="{sy(py):.3f}" r="{POINT_RADIUS}" '
            f'fill="{color[lab]}" fill-opacity="0.8"/>'
        )
    for i, lab in enumerate(uniq):
        ly = 20 + 18 * i
        parts.append(
            f'<g class="legend"><circle cx="{plot_w + 16}" cy="{ly}" r="5" fill="{color[lab]}"/>'
            f'<text x="{plot_w + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{lab}</text></g>'
        )
    parts.append("</svg>")
    _atomic_write(path, lambda f: f.write("\n".join(parts).encode("utf-8")))
