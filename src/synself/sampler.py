"""Synapse-centered patch extraction, augmentation, and positive-pair batches.

Positive pairs come from one supervoxel; every batch draws its supervoxels
without replacement, so cross-pair negatives are always cross-neuron
comparisons. A supervoxel's candidate pairs, those within the optional
nanometer cap, are kept as their row-major codes (:class:`Pairs`). Patches
are float64 cubes scaled to [0,1]; shift and noise amplitudes in
:class:`AugmentConfig` are in raw u8 intensity units and are divided by 255
when applied.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import permutations
from typing import Annotated

import numpy as np

from .volume_io import IntensityVolume, PositiveFloat, SynapseRecord, _check_fields, check_synapses_in_bounds


class SamplingError(ValueError):
    """Batch cannot be assembled under the configured eligibility rules."""


@dataclass(frozen=True)
class AugmentConfig:
    use_octahedral: bool = True
    # lo > 0, and hi >= lo: a scale <= 0 would blank or invert the patch under augment's clip
    intensity_scale_range: tuple[PositiveFloat, float] = (0.9, 1.1)
    intensity_shift_range: tuple[float, float] = (-10.0, 10.0)  # u8 intensity units
    noise_sigma: Annotated[float, ">= 0"] = 5.0  # u8 intensity units
    max_jitter_vox: Annotated[int, ">= 0"] = 1

    def __post_init__(self):
        _check_fields(self, ValueError)
        for name in ("intensity_scale_range", "intensity_shift_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must have lo <= hi, got {(lo, hi)}")


PAIR_MODES = ("distinct_synapses", "augment_same")


@dataclass(frozen=True)
class SamplerConfig:
    patch_side: Annotated[int, ">= 4"] = 16  # 80 reproduces the full-scale receptive field
    pair_mode: str = "distinct_synapses"
    max_pair_dist_nm: Annotated[float, "> 0"] | None = None
    batch_pairs: Annotated[int, ">= 2"] = 16
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        _check_fields(self, ValueError)
        if self.pair_mode not in PAIR_MODES:
            raise ValueError(f"pair_mode must be one of {PAIR_MODES}, got {self.pair_mode!r}")


@dataclass
class PairBatch:
    views_a: np.ndarray  # (N, s, s, s) float64 in [0,1]
    views_b: np.ndarray
    supervoxel_ids: np.ndarray  # (N,) pairwise distinct


@dataclass
class Dataset:
    """Minimal sampling source: an intensity volume plus its synapse table,
    whose synapses must lie inside it (else VolumeFormatError)."""

    intensity: IntensityVolume
    synapses: list[SynapseRecord]

    def __post_init__(self):
        check_synapses_in_bounds(self.synapses, self.intensity.header)


# ---------------------------------------------------------------------------
# patch extraction


def extract_patch(vol: IntensityVolume, center: tuple[int, int, int], side: int) -> np.ndarray:
    """Centered cube of the volume, scaled by 1/255; out-of-bounds voxels are 0.

    Patch axes are (z, y, x); for even sides the center voxel sits at index
    side//2 on each axis.
    """
    nz, ny, nx = vol.voxels.shape
    cx, cy, cz = (int(c) for c in center)
    half = side // 2
    patch = np.zeros((side, side, side))
    lo = (cz - half, cy - half, cx - half)
    src = []
    dst = []
    for l, n in zip(lo, (nz, ny, nx)):
        s0 = max(l, 0)
        s1 = max(s0, min(l + side, n))  # s0 where the patch misses the volume: two empty slices
        src.append(slice(s0, s1))
        dst.append(slice(s0 - l, s1 - l))
    patch[tuple(dst)] = vol.voxels[tuple(src)] / 255.0
    return patch


# ---------------------------------------------------------------------------
# octahedral symmetry group (48 axis permutations x axis flips)

OCTAHEDRAL_GROUP: list[tuple[tuple[int, int, int], tuple[bool, bool, bool]]] = [
    (perm, flips)
    for perm in permutations((0, 1, 2))
    for flips in ((a, b, c) for a in (False, True) for b in (False, True) for c in (False, True))
]


def apply_octahedral(patch: np.ndarray, element: int) -> np.ndarray:
    perm, flips = OCTAHEDRAL_GROUP[element]
    axes = tuple(i for i, f in enumerate(flips) if f)
    return np.ascontiguousarray(np.flip(np.transpose(patch, perm), axis=axes))


def augment(patch: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """A random octahedral element, then x*a+b, then Gaussian noise, then clamp to [0,1].

    The element flips about the patch's middle, (side-1)/2, and
    :func:`extract_patch` puts the synapse at side//2, so on the even sides
    that EncoderConfig enforces each flipped axis also moves the synapse one
    voxel: the element is no symmetry about the synapse. Translation jitter
    is applied upstream by shifting the extraction center.
    """
    if patch.ndim != 3 or len(set(patch.shape)) != 1:
        raise ValueError(f"augment expects a cubic patch, got shape {patch.shape}")
    out = patch
    if cfg.use_octahedral:
        out = apply_octahedral(out, int(rng.integers(len(OCTAHEDRAL_GROUP))))
    scale = float(rng.uniform(*cfg.intensity_scale_range))
    shift = float(rng.uniform(*cfg.intensity_shift_range)) / 255.0
    out = out * scale + shift
    if cfg.noise_sigma > 0:
        out = out + rng.normal(0.0, cfg.noise_sigma / 255.0, size=out.shape)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# batch assembly


@dataclass(frozen=True, eq=False)
class Pairs(Sequence):
    """The pairs (recs[i], recs[j]), i < j, whose row-major codes are ``codes``.

    Pair (i, j) of k synapses has code i*k - i(i+1)/2 + j - i - 1, its index in
    ``[(a, b) for i, a in enumerate(recs) for b in recs[i + 1:]]``.
    """

    recs: list[SynapseRecord]
    codes: Sequence[int]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, r: int) -> tuple[SynapseRecord, SynapseRecord]:
        # q counts back from the last pair. The rows after row i hold T(t) = t(t+1)/2
        # pairs with t = k-2-i, so row i has the largest t with T(t) <= q.
        k = len(self.recs)
        q = k * (k - 1) // 2 - 1 - int(self.codes[r])
        t = (math.isqrt(8 * q + 1) - 1) // 2
        i = k - 2 - t
        j = k - 1 - (q - t * (t + 1) // 2)
        return self.recs[i], self.recs[j]


def _pair_codes(recs: list[SynapseRecord], voxel_size, cap: float | None) -> Sequence[int]:
    """Increasing codes of the pairs at most ``cap`` nm apart: range(C(k, 2)) with no cap, else
    built one anchor row at a time from the distance sqrt(((dx*sx)^2 + (dy*sy)^2) + (dz*sz)^2)."""
    k = len(recs)
    if cap is None:
        return range(k * (k - 1) // 2)
    pos = np.array([r.pos for r in recs], dtype=np.int64)
    rows = [np.empty(0, dtype=np.int64)]
    for i in range(k - 1):
        sq = np.square((pos[i] - pos[i + 1:]) * voxel_size)
        dist = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])
        rows.append(np.flatnonzero(dist <= cap) + (i * k - i * (i + 1) // 2))
    return np.concatenate(rows)


def eligible_supervoxels(dataset, cfg: SamplerConfig) -> dict[int, Sequence]:
    """Map supervoxel id -> candidate positive pairs (or singleton views).

    In "distinct_synapses" mode the candidates are the :class:`Pairs` within
    the optional nanometer cap. With no cap their codes are a range, so a
    supervoxel with k synapses costs O(k), not O(k^2). In "augment_same" mode
    they are single synapses.
    """
    by_sv: dict[int, list[SynapseRecord]] = {}
    for rec in dataset.synapses:
        by_sv.setdefault(rec.supervoxel_id, []).append(rec)
    voxel_size = dataset.intensity.header.voxel_size_nm
    out: dict[int, Sequence] = {}
    for sv in sorted(by_sv):
        recs = by_sv[sv]
        if cfg.pair_mode == "augment_same":
            out[sv] = [(r, r) for r in recs]
            continue
        pairs = Pairs(recs, _pair_codes(recs, voxel_size, cfg.max_pair_dist_nm))
        if pairs:
            out[sv] = pairs
    return out


def batchable_supervoxels(dataset, cfg: SamplerConfig) -> dict[int, Sequence]:
    """:func:`eligible_supervoxels`, or SamplingError if fewer than batch_pairs are eligible."""
    eligible = eligible_supervoxels(dataset, cfg)
    if len(eligible) < cfg.batch_pairs:
        raise SamplingError(
            f"need {cfg.batch_pairs} eligible supervoxels, found {len(eligible)} "
            f"(mode={cfg.pair_mode}, max_pair_dist_nm={cfg.max_pair_dist_nm})"
        )
    return eligible


def sample_batch(dataset, cfg: SamplerConfig, rng: np.random.Generator) -> PairBatch:
    """Draw batch_pairs supervoxels without replacement and one positive pair each."""
    eligible = batchable_supervoxels(dataset, cfg)
    n = cfg.batch_pairs
    sv_ids = sorted(eligible)
    chosen = rng.choice(len(sv_ids), size=n, replace=False)
    s, jitter = cfg.patch_side, cfg.augment.max_jitter_vox
    views_a = np.empty((n, s, s, s))
    views_b = np.empty((n, s, s, s))
    out_ids = np.empty(n, dtype=np.int64)
    for row, idx in enumerate(chosen):
        sv = sv_ids[int(idx)]
        pairs = eligible[sv]
        rec_a, rec_b = pairs[int(rng.integers(len(pairs)))]
        for rec, dest in ((rec_a, views_a), (rec_b, views_b)):
            center = np.add(rec.pos, rng.integers(-jitter, jitter + 1, size=3))
            patch = extract_patch(dataset.intensity, center, s)
            dest[row] = augment(patch, cfg.augment, rng)
        out_ids[row] = sv
    return PairBatch(views_a, views_b, out_ids)

