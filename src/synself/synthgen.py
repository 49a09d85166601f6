"""Synthetic phantom volumes with per-supervoxel latent classes.

Supervoxel territories are disjoint axis-aligned boxes of a jittered grid
partition, each assigned one class; every synapse site renders that class's
morphology (core sphere, rim shell, dark bar), so same-supervoxel synapses share
a class by construction and class is recoverable from local appearance. The
phantom keeps the partition as its boxes (``Phantom.cells``) and each synapse's
class in its record.

Rendering paints small integer paint codes, not intensities. Code 0 is the
background, and class k (1-based) owns codes 3k-2, 3k-1 and 3k for its rim, bar
and core; a float64 lookup table maps each code to its intensity. Each
(class, bar axis) pair has one cached stamp, a cube of codes drawn rim, then
bar, then core, so the bar crosses the rim and the core caps the centre. A
site copies its stamp's nonzero codes onto the code volume, so a later site
overwrites an earlier one where they overlap. Sites are placed at least the
stamp's half-width inside their cell, so a stamp never needs clipping.
Placement draws candidates in bulk, each round as many as sites are still
missing (at most the attempts left): a draw bounded per axis returns the values
and leaves the generator state of the same draws made one at a time, and a
candidate yields at most one site, so no round draws a candidate that one-by-one
sampling would not have drawn. A candidate is accepted iff its voxel of an
occupancy grid is unset, where each accepted site has set every offset closer
than the minimum separation; that is the exact integer distance test against
every accepted site, so the sites are the same too. The codes are then turned
into bytes one z-plane at a time: look up the intensities, add that plane's
Gaussian noise, clip to [0, 255] and round. Each plane is finished in place,
its bytes written over the codes they were looked up from, so the code array
becomes the volume's voxels and no second volume is allocated. Drawing the
noise plane by plane gives the same values as one draw of the whole volume, so
the bytes equal those of a float canvas finished at once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .volume_io import (
    IntensityVolume,
    PositiveInt,
    SynapseRecord,
    VolumeHeader,
    _check_fields,
    write_synapse_table,
    write_volume,
)

BAR_INTENSITY = 12.0
BAR_PERP_RADIUS_VOX = 1.0
MIN_CELL_SPAN = 4
PLACEMENT_ATTEMPTS_PER_SITE = 200
PLACEMENT_RESTARTS = 20


class GenerationError(ValueError):
    """Invalid generator config or infeasible synapse placement."""


@dataclass(frozen=True)
class ClassParams:
    blob_radius_vox: Annotated[float, "> 0"]
    rim_thickness_vox: Annotated[float, "> 0"]
    bar_half_length_vox: Annotated[float, "> 0"]
    core_intensity: Annotated[float, ">= 0", "<= 255"]
    rim_intensity: Annotated[float, ">= 0", "<= 255"]

    def __post_init__(self):
        _check_fields(self, GenerationError)

    @property
    def extent_vox(self) -> float:
        return max(self.blob_radius_vox + self.rim_thickness_vox,
                   self.bar_half_length_vox + BAR_PERP_RADIUS_VOX)

    @property
    def half_width_vox(self) -> int:
        """Half side of the class's stamp cube, and the placement margin that keeps
        every stamp inside its site's cell."""
        return int(math.ceil(self.extent_vox)) + 1


# Default three-class morphology set: roughly matched integrated intensity so
# classes differ by structure more than by raw patch brightness.
DEFAULT_CLASS_PARAMS = (
    ClassParams(2.0, 1.5, 3.0, 220.0, 110.0),
    ClassParams(3.0, 1.5, 4.0, 130.0, 75.0),
    ClassParams(4.0, 1.5, 5.0, 90.0, 55.0),
)


@dataclass(frozen=True)
class GenConfig:
    seed: Annotated[int, ">= 0"] = 0  # numpy would reject a negative seed only once generate runs
    dims: tuple[PositiveInt, PositiveInt, PositiveInt] = (180, 144, 108)  # (nx, ny, nz)
    n_supervoxels: int = 60
    synapses_per_supervoxel: Annotated[int, ">= 1"] = 8
    noise_sigma: Annotated[float, ">= 0"] = 10.0
    class_params: tuple[ClassParams, ...] = DEFAULT_CLASS_PARAMS
    background_intensity: Annotated[float, ">= 0", "<= 255"] = 40.0

    def __post_init__(self):
        _check_fields(self, GenerationError)
        if not self.class_params:
            raise GenerationError("need at least one class in class_params")
        if self.n_supervoxels < self.n_classes:
            raise GenerationError(
                f"n_supervoxels {self.n_supervoxels} must be >= n_classes {self.n_classes}"
            )

    @property
    def n_classes(self) -> int:
        return len(self.class_params)

    @property
    def max_blob_radius(self) -> float:
        return max(p.blob_radius_vox for p in self.class_params)


@dataclass
class Phantom:
    intensity: IntensityVolume
    synapses: list[SynapseRecord]
    # supervoxel id -> (lo, hi) voxel corners (x, y, z) of its box, hi exclusive;
    # the boxes partition the volume, and each synapse lies in its supervoxel's box
    cells: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]]


def _factor_triples(v: int):
    for a in range(1, v + 1):
        if v % a:
            continue
        for b in range(1, v // a + 1):
            if (v // a) % b:
                continue
            yield a, b, (v // a) // b


def grid_shape(n_cells: int, dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Factor n_cells into (gx,gy,gz) giving the most cube-like cells for dims.

    An axis of d voxels holds at most d // MIN_CELL_SPAN cells, so a larger
    count is refused before the factoring, which takes time linear in it."""
    best, best_score = None, None
    fits = n_cells <= math.prod(d // MIN_CELL_SPAN for d in dims)
    for g in _factor_triples(n_cells) if fits else ():
        spans = [d / gi for d, gi in zip(dims, g)]
        if min(d // gi for d, gi in zip(dims, g)) < MIN_CELL_SPAN:
            continue
        score = max(spans) / min(spans)
        if best_score is None or score < best_score or (score == best_score and g < best):
            best, best_score = g, score
    if best is None:
        raise GenerationError(
            f"cannot partition dims {dims} into {n_cells} cells of span >= {MIN_CELL_SPAN}"
        )
    return best


def _jittered_cuts(n: int, g: int, rng: np.random.Generator) -> np.ndarray:
    cuts = np.array([round(i * n / g) for i in range(g + 1)], dtype=np.int64)
    j = (n // g) // 6
    cuts[1:-1] += rng.integers(-j, j + 1, size=g - 1)
    for i in range(1, g + 1):  # re-impose monotonicity with minimum span
        cuts[i] = max(cuts[i], cuts[i - 1] + MIN_CELL_SPAN)
    cuts[g] = n
    for i in range(g - 1, 0, -1):
        cuts[i] = min(cuts[i], cuts[i + 1] - MIN_CELL_SPAN)
    if cuts[0] != 0 or np.any(np.diff(cuts) < MIN_CELL_SPAN):
        raise GenerationError(f"axis of {n} voxels cannot hold {g} cells of span >= {MIN_CELL_SPAN}")
    return cuts


def _place_sites(lo, hi, margin, n_sites, min_sep, rng, sv_label):
    """Rejection-sample n_sites integer positions in the cell interior."""
    los = [l + margin for l in lo]
    his = [h - margin for h in hi]  # exclusive
    if any(a >= b for a, b in zip(los, his)):
        raise GenerationError(
            f"supervoxel {sv_label}: cell {lo}..{hi} too small for morphology margin {margin}"
        )
    # Two interior sites differ by less than the interior's span on each axis,
    # so no farther offset matters, however large min_sep is.
    r = min(math.ceil(min_sep), max(b - a for a, b in zip(los, his)) - 1)
    d = np.arange(-r, r + 1)
    # the offsets from an accepted site at which a candidate is too close: the
    # exact test on integer squared distances
    ball = (d[:, None, None] ** 2 + d[:, None] ** 2 + d ** 2) < min_sep * min_sep
    budget = PLACEMENT_ATTEMPTS_PER_SITE * n_sites
    for _ in range(PLACEMENT_RESTARTS):
        # taken[p - los + r] is set where a candidate p would be too close to a site
        taken = np.zeros([b - a + 2 * r for a, b in zip(los, his)], dtype=bool)
        sites = []
        attempts = 0
        while len(sites) < n_sites and attempts < budget:
            m = min(n_sites - len(sites), budget - attempts)
            attempts += m
            for cand in rng.integers(los, his, size=(m, 3)).tolist():
                i, j, k = (c - a for c, a in zip(cand, los))
                if not taken[i + r, j + r, k + r]:
                    taken[i:i + 2 * r + 1, j:j + 2 * r + 1, k:k + 2 * r + 1] |= ball
                    sites.append(tuple(cand))
        if len(sites) == n_sites:
            return sites
    raise GenerationError(
        f"supervoxel {sv_label}: placement infeasible after "
        f"{PLACEMENT_RESTARTS}x{PLACEMENT_ATTEMPTS_PER_SITE * n_sites} rejection-sampling attempts"
    )


def _stamp(params: ClassParams, bar_axis: int, rim_code: int, dtype) -> np.ndarray:
    """Code cube of one site of a class, centred on the site: rim_code, rim_code+1
    and rim_code+2 mark rim, bar and core; 0 leaves the volume as it is."""
    b = params.half_width_vox
    dz, dy, dx = np.ogrid[-b:b + 1, -b:b + 1, -b:b + 1]
    d2 = dx * dx + dy * dy + dz * dz
    r = params.blob_radius_vox
    shell = r + params.rim_thickness_vox
    stamp = np.zeros((2 * b + 1,) * 3, dtype=dtype)
    # order matters: the bar crosses the rim but the core caps the center,
    # so the synapse-center voxel always reads core_intensity
    stamp[(d2 > r * r) & (d2 <= shell * shell)] = rim_code
    along = (dx, dy, dz)[bar_axis]
    bar = (np.abs(along) <= params.bar_half_length_vox) & (
        d2 - along * along <= BAR_PERP_RADIUS_VOX * BAR_PERP_RADIUS_VOX
    )
    stamp[np.broadcast_to(bar, stamp.shape)] = rim_code + 1
    stamp[d2 <= r * r] = rim_code + 2
    return stamp


def generate(cfg: GenConfig) -> Phantom:
    """Deterministically build a phantom from the config; Dale holds by construction."""
    rng = np.random.default_rng(cfg.seed)
    nx, ny, nz = cfg.dims
    gx, gy, gz = grid_shape(cfg.n_supervoxels, cfg.dims)
    cuts_x = _jittered_cuts(nx, gx, rng).tolist()
    cuts_y = _jittered_cuts(ny, gy, rng).tolist()
    cuts_z = _jittered_cuts(nz, gz, rng).tolist()

    cells = {}
    for iz in range(gz):
        for iy in range(gy):
            for ix in range(gx):
                label = 1 + ix + gx * (iy + gy * iz)
                cells[label] = ((cuts_x[ix], cuts_y[iy], cuts_z[iz]),
                                (cuts_x[ix + 1], cuts_y[iy + 1], cuts_z[iz + 1]))

    classes = np.array([1 + (i % cfg.n_classes) for i in range(cfg.n_supervoxels)])
    rng.shuffle(classes)
    class_of = {label: int(classes[label - 1]) for label in range(1, cfg.n_supervoxels + 1)}

    lut = np.array([cfg.background_intensity] + [
        v for p in cfg.class_params for v in (p.rim_intensity, BAR_INTENSITY, p.core_intensity)
    ], dtype=np.float64)
    code_dtype = np.min_scalar_type(len(lut) - 1)
    stamps = [[_stamp(params, axis, 3 * k + 1, code_dtype) for axis in range(3)]
              for k, params in enumerate(cfg.class_params)]  # [class - 1][bar axis]
    masks = [[stamp != 0 for stamp in row] for row in stamps]  # the voxels each stamp paints

    min_sep = 2.0 * cfg.max_blob_radius
    codes = np.zeros((nz, ny, nx), dtype=code_dtype)
    records = []
    next_id = 0
    for label in range(1, cfg.n_supervoxels + 1):
        b = cfg.class_params[class_of[label] - 1].half_width_vox
        lo, hi = cells[label]
        sites = _place_sites(lo, hi, b, cfg.synapses_per_supervoxel, min_sep, rng, label)
        c = class_of[label] - 1
        for site, axis in zip(sites, rng.integers(3, size=len(sites)).tolist()):
            x, y, z = site
            np.copyto(codes[z - b:z + b + 1, y - b:y + b + 1, x - b:x + b + 1], stamps[c][axis],
                      where=masks[c][axis])
            records.append(SynapseRecord(next_id, site, label, class_of[label]))
            next_id += 1

    plane, noise = np.empty((ny, nx)), np.empty((ny, nx))
    for z in range(nz):  # each plane's codes are read before its bytes overwrite them
        np.take(lut, codes[z], out=plane)
        rng.standard_normal(out=noise)  # times sigma: the values and rng state of rng.normal(0, sigma)
        noise *= cfg.noise_sigma
        plane += noise
        np.clip(plane, 0.0, 255.0, out=plane)
        codes[z] = np.rint(plane, out=plane)

    # the same array when the codes are u8, as they are for up to 85 classes
    voxels = codes.astype(np.uint8, copy=False)
    return Phantom(IntensityVolume(VolumeHeader(cfg.dims), voxels), records, cells)


# ---------------------------------------------------------------------------
# on-disk layout


def save_phantom(ph: Phantom, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_volume(ph.intensity, os.path.join(out_dir, "intensity.vol"))
    write_synapse_table(ph.synapses, os.path.join(out_dir, "synapses.csv"))
