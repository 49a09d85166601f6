import dataclasses
import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from synself import sampler as sp
from synself.volume_io import IntensityVolume, SynapseRecord, VolumeFormatError, VolumeHeader
from helpers import IDENTITY_AUGMENT
from oracles import eligible_supervoxels_lists, extract_patch_loops


def ramp_volume(dims=(20, 18, 16)):
    nx, ny, nz = dims
    vox = (np.arange(nx * ny * nz) % 251).astype(np.uint8).reshape(nz, ny, nx)
    return IntensityVolume(VolumeHeader(dims), vox)


def labeled_volume(labels_of_pos, dims=(24, 24, 24)):
    """Intensity volume whose voxel value encodes a synapse's supervoxel id * 10."""
    nx, ny, nz = dims
    vox = np.zeros((nz, ny, nx), np.uint8)
    for (x, y, z), sv in labels_of_pos.items():
        vox[z, y, x] = sv * 10
    return IntensityVolume(VolumeHeader(dims), vox)


class TestExtractPatch:
    def test_constant_volume(self):
        vol = IntensityVolume(VolumeHeader((8, 8, 8)), np.full((8, 8, 8), 128, np.uint8))
        patch = sp.extract_patch(vol, (3, 5, 2), 4)
        assert np.all(patch == 128 / 255.0)

    def test_corner_out_of_bounds_octants(self):
        vol = IntensityVolume(VolumeHeader((8, 8, 8)), np.full((8, 8, 8), 200, np.uint8))
        patch = sp.extract_patch(vol, (0, 0, 0), 8)
        inside = patch[4:, 4:, 4:]
        assert np.all(inside == 200 / 255.0)
        outside = patch.copy()
        outside[4:, 4:, 4:] = -1
        assert np.all(outside[outside >= 0] == 0)

    def test_matches_gather_oracle_random_centers(self):
        vol = ramp_volume()
        rng = np.random.default_rng(0)
        for _ in range(20):
            center = tuple(int(c) for c in rng.integers(-4, 24, size=3))
            side = int(rng.choice([4, 5, 8]))
            got = sp.extract_patch(vol, center, side)
            want = extract_patch_loops(vol.voxels, center, side)
            assert np.array_equal(got, want)


def octahedral_inverse_table() -> list[int]:
    probe = np.arange(27.0).reshape(3, 3, 3)
    table = []
    for g in range(len(sp.OCTAHEDRAL_GROUP)):
        fwd = sp.apply_octahedral(probe, g)
        inv = next(
            h for h in range(len(sp.OCTAHEDRAL_GROUP))
            if np.array_equal(sp.apply_octahedral(fwd, h), probe)
        )
        table.append(inv)
    return table


OCTAHEDRAL_INVERSE = octahedral_inverse_table()


@pytest.mark.parametrize("value", [2.5, 8.0, True])
@pytest.mark.parametrize("make, field", [
    (sp.SamplerConfig, "patch_side"), (sp.SamplerConfig, "batch_pairs"), (sp.AugmentConfig, "max_jitter_vox"),
])
def test_non_integer_count_rejected(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        make(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", math.nan), ("noise_sigma", math.inf),
    ("intensity_scale_range", (math.nan, 1.0)), ("intensity_scale_range", (0.9, math.inf)),
    ("intensity_scale_range", (-math.inf, 1.1)), ("intensity_shift_range", (-10.0, math.nan)),
    ("intensity_shift_range", (-math.inf, 10.0)), ("intensity_shift_range", (-10.0, math.inf)),
])
def test_non_finite_augment_value_rejected(field, value):
    # a NaN noise_sigma used to pass, and disabled the noise: nan > 0 is False
    with pytest.raises(ValueError, match=f"{field} must"):
        sp.AugmentConfig(**{field: value})


@pytest.mark.parametrize("value", [(-1.0, -0.5), (0.0, 1.0), (0.5, -1.0)])
def test_non_positive_intensity_scale_rejected(value):
    # (-1.0, -0.5) used to pass, and clipped every voxel of a patch to 0
    with pytest.raises(ValueError, match="^intensity_scale_range must "):
        sp.AugmentConfig(intensity_scale_range=value)


@pytest.mark.parametrize("cfg", [sp.AugmentConfig(), IDENTITY_AUGMENT], ids=["default", "identity"])
def test_default_and_identity_intensity_scales_accepted(cfg):
    assert sp.AugmentConfig(*dataclasses.astuple(cfg)) == cfg


@pytest.mark.parametrize("field", ["intensity_scale_range", "intensity_shift_range"])
def test_reversed_augment_range_rejected(field):
    with pytest.raises(ValueError, match=f"{field} must have lo <= hi"):
        sp.AugmentConfig(**{field: (1.2, 1.1)})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_bad_pair_distance_cap_rejected(value):
    # inf would build every pair's code
    with pytest.raises(ValueError, match="max_pair_dist_nm must be None or a finite real number > 0"):
        sp.SamplerConfig(max_pair_dist_nm=value)


@pytest.mark.parametrize("value", [True, "5"])
def test_non_real_pair_distance_cap_rejected(value):
    # True would read as a 1 nm cap
    with pytest.raises(ValueError, match="max_pair_dist_nm must be None or a finite real number"):
        sp.SamplerConfig(max_pair_dist_nm=value)


@pytest.mark.parametrize("value", [None, 200, 0.5])
def test_pair_distance_cap_accepted(value):
    assert sp.SamplerConfig(max_pair_dist_nm=value).max_pair_dist_nm == value


class TestOctahedral:
    def test_group_has_48_distinct_elements(self):
        probe = np.arange(27.0).reshape(3, 3, 3)
        images = {sp.apply_octahedral(probe, g).tobytes() for g in range(48)}
        assert len(images) == 48

    def test_inverse_restores_original(self):
        rng = np.random.default_rng(1)
        patch = rng.uniform(size=(5, 5, 5))
        for g in range(48):
            fwd = sp.apply_octahedral(patch, g)
            back = sp.apply_octahedral(fwd, OCTAHEDRAL_INVERSE[g])
            assert np.array_equal(back, patch)


class TestAugment:
    def test_disabled_is_identity(self):
        rng = np.random.default_rng(2)
        patch = rng.uniform(size=(6, 6, 6))
        out = sp.augment(patch, IDENTITY_AUGMENT, np.random.default_rng(0))
        assert np.array_equal(out, patch)

    def test_scale_only_doubles_mean(self):
        patch = np.full((4, 4, 4), 0.25)
        cfg = sp.AugmentConfig(False, (2.0, 2.0), (0.0, 0.0), 0.0, 0)
        out = sp.augment(patch, cfg, np.random.default_rng(0))
        assert abs(out.mean() - 0.5) < 1e-15

    def test_shift_in_u8_units(self):
        patch = np.full((4, 4, 4), 0.25)
        cfg = sp.AugmentConfig(False, (1.0, 1.0), (51.0, 51.0), 0.0, 0)
        out = sp.augment(patch, cfg, np.random.default_rng(0))
        assert abs(out.mean() - (0.25 + 51.0 / 255.0)) < 1e-15

    def test_output_clamped(self):
        rng = np.random.default_rng(3)
        patch = rng.uniform(size=(4, 4, 4))
        cfg = sp.AugmentConfig(True, (3.0, 3.0), (100.0, 100.0), 20.0, 0)
        out = sp.augment(patch, cfg, np.random.default_rng(7))
        assert out.min() >= 0.0 and out.max() <= 1.0


def two_synapse_dataset(n_supervoxels, spacing=4, dims=(24, 24, 24)):
    recs = []
    pos_map = {}
    for sv in range(1, n_supervoxels + 1):
        p1 = (2 * sv, 4, 4)
        p2 = (2 * sv, 4 + spacing, 4)
        recs.append(SynapseRecord(2 * sv - 2, p1, sv))
        recs.append(SynapseRecord(2 * sv - 1, p2, sv))
        pos_map[p1] = sv
        pos_map[p2] = sv
    return sp.Dataset(labeled_volume(pos_map, dims), recs)


class TestSampleBatch:
    def test_forced_enumeration(self):
        ds = two_synapse_dataset(4)
        cfg = sp.SamplerConfig(patch_side=4, batch_pairs=4, augment=IDENTITY_AUGMENT)
        batch = sp.sample_batch(ds, cfg, np.random.default_rng(0))
        assert sorted(batch.supervoxel_ids) == [1, 2, 3, 4]
        # identity augment + label-encoding volume: the center voxel names the supervoxel
        for row, sv in enumerate(batch.supervoxel_ids):
            va = batch.views_a[row][2, 2, 2] * 255
            vb = batch.views_b[row][2, 2, 2] * 255
            assert round(va) == sv * 10 and round(vb) == sv * 10

    def test_positive_pair_uses_both_synapses(self):
        vol = ramp_volume((24, 24, 24))
        recs = []
        for sv in range(1, 5):
            recs.append(SynapseRecord(2 * sv - 2, (2 * sv, 4, 4), sv))
            recs.append(SynapseRecord(2 * sv - 1, (2 * sv, 10, 4), sv))
        ds = sp.Dataset(vol, recs)
        cfg = sp.SamplerConfig(patch_side=4, batch_pairs=4, augment=IDENTITY_AUGMENT)
        batch = sp.sample_batch(ds, cfg, np.random.default_rng(1))
        # on a ramp volume, views from distinct centers must differ
        for row in range(4):
            assert not np.array_equal(batch.views_a[row], batch.views_b[row])

    def test_synapse_outside_the_volume_rejected(self):
        recs = [SynapseRecord(0, (4, 4, 4), 1), SynapseRecord(1, (4, 24, 4), 1)]
        with pytest.raises(VolumeFormatError, match="outside volume"):
            sp.Dataset(ramp_volume((24, 24, 24)), recs)

    def test_distance_cap_excludes_supervoxel(self):
        d = 5
        ds = two_synapse_dataset(3, spacing=d + 1)
        cfg = sp.SamplerConfig(
            patch_side=4, batch_pairs=2, max_pair_dist_nm=8.0 * d,
            augment=IDENTITY_AUGMENT,
        )
        eligible = sp.eligible_supervoxels(ds, cfg)
        assert eligible == {}
        with pytest.raises(sp.SamplingError, match="eligible"):
            sp.sample_batch(ds, cfg, np.random.default_rng(0))

    def test_distance_cap_inclusive_boundary(self):
        d = 5
        ds = two_synapse_dataset(3, spacing=d)
        cfg = sp.SamplerConfig(
            patch_side=4, batch_pairs=3, max_pair_dist_nm=8.0 * d,
            augment=IDENTITY_AUGMENT,
        )
        assert sorted(sp.eligible_supervoxels(ds, cfg)) == [1, 2, 3]

    def test_too_few_supervoxels(self):
        ds = two_synapse_dataset(2)
        cfg = sp.SamplerConfig(patch_side=4, batch_pairs=3, augment=IDENTITY_AUGMENT)
        with pytest.raises(sp.SamplingError, match="need 3"):
            sp.sample_batch(ds, cfg, np.random.default_rng(0))

    def test_singletons_only_eligible_in_augment_same(self):
        vol = labeled_volume({(4, 4, 4): 1, (8, 8, 8): 2, (12, 12, 12): 3})
        recs = [SynapseRecord(i, p, i + 1) for i, p in enumerate([(4, 4, 4), (8, 8, 8), (12, 12, 12)])]
        ds = sp.Dataset(vol, recs)
        distinct = sp.SamplerConfig(patch_side=4, batch_pairs=2, augment=IDENTITY_AUGMENT)
        assert sp.eligible_supervoxels(ds, distinct) == {}
        same = sp.SamplerConfig(patch_side=4, batch_pairs=2, pair_mode="augment_same",
                                augment=IDENTITY_AUGMENT)
        assert sorted(sp.eligible_supervoxels(ds, same)) == [1, 2, 3]
        batch = sp.sample_batch(ds, same, np.random.default_rng(0))
        assert len(set(batch.supervoxel_ids)) == 2

    def test_distinct_supervoxels_invariant(self):
        ds = two_synapse_dataset(8)
        cfg = sp.SamplerConfig(patch_side=4, batch_pairs=5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            batch = sp.sample_batch(ds, cfg, rng)
            assert len(set(batch.supervoxel_ids)) == 5

    def test_same_seed_identical_sequence(self):
        ds = two_synapse_dataset(6)
        cfg = sp.SamplerConfig(patch_side=4, batch_pairs=3)
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            seqs.append([sp.sample_batch(ds, cfg, rng) for _ in range(5)])
        for b1, b2 in zip(*seqs):
            assert np.array_equal(b1.views_a, b2.views_a)
            assert np.array_equal(b1.views_b, b2.views_b)
            assert np.array_equal(b1.supervoxel_ids, b2.supervoxel_ids)

    def test_selection_roughly_uniform(self):
        # smoke-scale version of the acceptance uniformity run
        ds = two_synapse_dataset(10)
        cfg = sp.SamplerConfig(patch_side=4, batch_pairs=4, augment=IDENTITY_AUGMENT)
        rng = np.random.default_rng(7)
        n_batches = 2000
        counts = np.zeros(11)
        for _ in range(n_batches):
            for sv in sp.sample_batch(ds, cfg, rng).supervoxel_ids:
                counts[sv] += 1
        p = 4 / 10
        sd = np.sqrt(n_batches * p * (1 - p))
        assert np.all(np.abs(counts[1:] - n_batches * p) <= 4 * sd)


def clustered_dataset(sizes, voxel_size=(8.0, 8.0, 8.0)):
    """Supervoxel sv+1 holds sizes[sv] synapses at pseudo-random positions on a ramp volume."""
    rng = np.random.default_rng(11)
    recs = []
    for sv, k in enumerate(sizes):
        for _ in range(k):
            pos = tuple(int(c) for c in rng.integers(0, 24, size=3))
            recs.append(SynapseRecord(len(recs), pos, sv + 1))
    vol = ramp_volume((24, 24, 24))
    return sp.Dataset(IntensityVolume(VolumeHeader(vol.header.dims, voxel_size), vol.voxels), recs)


class TestCandidatePairs:
    @staticmethod
    def assert_pairs_equal(pairs, want):
        n = len(want)
        assert len(pairs) == n
        assert [pairs[r] for r in range(n)] == want
        assert [pairs[r] for r in range(-n, 0)] == want
        for r in (n, -n - 1):
            with pytest.raises(IndexError):
                pairs[r]

    def test_all_pairs_equal_the_built_list(self):
        for k in range(41):
            ds = clustered_dataset([k])
            want = eligible_supervoxels_lists(ds, sp.SamplerConfig()).get(1, [])
            n = math.comb(k, 2)
            assert len(want) == n
            for codes in (range(n), np.arange(n, dtype=np.int64)):
                self.assert_pairs_equal(sp.Pairs(ds.synapses, codes), want)

    def test_kept_codes_pick_their_pairs(self):
        rng = np.random.default_rng(3)
        for k in range(2, 41):
            ds = clustered_dataset([k])
            every = eligible_supervoxels_lists(ds, sp.SamplerConfig())[1]
            codes = np.flatnonzero(rng.random(len(every)) < 0.3)
            self.assert_pairs_equal(sp.Pairs(ds.synapses, codes), [every[c] for c in codes])

    @pytest.mark.parametrize("voxel_size", [(8.0, 8.0, 8.0), (4.0, 4.0, 40.0), (3.7, 5.3, 0.1)])
    def test_capped_candidates_equal_the_built_lists(self, voxel_size):
        ds = clustered_dataset([1, 2, 3, 5, 8, 13, 21], voxel_size)
        every = eligible_supervoxels_lists(ds, sp.SamplerConfig())
        # every pair distance as the oracle computes it: a cap set to one of
        # them is met with equality, and the cap is inclusive
        dists = {
            float(np.sqrt(sum(((pa - pb) * s) ** 2 for pa, pb, s in zip(a.pos, b.pos, voxel_size))))
            for pairs in every.values() for a, b in pairs
        }
        for cap in sorted(dists - {0.0}):
            cfg = sp.SamplerConfig(max_pair_dist_nm=cap)
            got = sp.eligible_supervoxels(ds, cfg)
            assert {sv: list(p) for sv, p in got.items()} == eligible_supervoxels_lists(ds, cfg)

    @pytest.mark.parametrize("mode, cap", [
        ("distinct_synapses", None),
        ("distinct_synapses", 80.0),
        ("augment_same", None),
    ])
    def test_batches_match_the_built_lists(self, monkeypatch, mode, cap):
        ds = clustered_dataset([1, 2, 3, 5, 8, 13, 21, 34])
        cfg = sp.SamplerConfig(patch_side=4, pair_mode=mode, max_pair_dist_nm=cap, batch_pairs=3)
        eligible = sp.eligible_supervoxels(ds, cfg)
        assert {sv: list(p) for sv, p in eligible.items()} == eligible_supervoxels_lists(ds, cfg)

        def twenty_batches():
            rng = np.random.default_rng(5)
            return [sp.sample_batch(ds, cfg, rng) for _ in range(20)]

        got = twenty_batches()
        monkeypatch.setattr(sp, "eligible_supervoxels", eligible_supervoxels_lists)
        want = twenty_batches()
        for b1, b2 in zip(got, want):
            assert b1.views_a.tobytes() == b2.views_a.tobytes()
            assert b1.views_b.tobytes() == b2.views_b.tobytes()
            assert np.array_equal(b1.supervoxel_ids, b2.supervoxel_ids)

    def test_large_supervoxel_counts_pairs_without_building_them(self):
        ds = clustered_dataset([5000, 2])
        tracemalloc.start()
        try:
            eligible = sp.eligible_supervoxels(ds, sp.SamplerConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(eligible[1]) == math.comb(5000, 2)
        assert eligible[1][-1] == (ds.synapses[4998], ds.synapses[4999])
        assert peak < 1 << 20  # the 12.5M built tuples would take about 1 GB

    def test_large_capped_supervoxel_keeps_only_its_codes(self):
        ds = clustered_dataset([5000, 2])
        tracemalloc.start()
        try:
            eligible = sp.eligible_supervoxels(ds, sp.SamplerConfig(max_pair_dist_nm=8.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at 8 nm voxels an 8 nm cap keeps the pairs on one voxel or on two face neighbours
        count = Counter(rec.pos for rec in ds.synapses[:5000])
        want = sum(n * (n - 1) // 2 for n in count.values()) + sum(
            n * count[(x + dx, y + dy, z + dz)]
            for (x, y, z), n in count.items()
            for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        )
        assert len(eligible[1]) == want
        assert all(math.dist(a.pos, b.pos) <= 1 for a, b in eligible[1])
        assert peak < 4 << 20  # the 12.5M pair distances at once would take 100 MB


def test_batch_stream_and_octahedral_images_are_pinned():
    # three batches with no jitter and three with jitter 1, each with the default
    # octahedral elements and noise, then a draw that pins the generator state
    # they leave; then the 48 images of a cube
    ds = clustered_dataset([3] * 6)  # synapses anywhere in the volume, so patches cross its faces
    digest = hashlib.sha256()
    for jitter in (0, 1):
        cfg = sp.SamplerConfig(patch_side=8, batch_pairs=4, augment=sp.AugmentConfig(max_jitter_vox=jitter))
        rng = np.random.default_rng(jitter)
        for _ in range(3):
            batch = sp.sample_batch(ds, cfg, rng)
            for a in (batch.views_a, batch.views_b, batch.supervoxel_ids):
                digest.update(a.tobytes())
        digest.update(rng.integers(2 ** 63, size=1).tobytes())
    cube = np.arange(125.0).reshape(5, 5, 5)
    for element in range(len(sp.OCTAHEDRAL_GROUP)):
        digest.update(sp.apply_octahedral(cube, element).tobytes())
    assert digest.hexdigest() == "7603a06230b8003990ddfde1a8e9ddd837ddbc32573e64915a7ecdfbe3330f6b"
