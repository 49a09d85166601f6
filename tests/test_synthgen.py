import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from synself import synthgen as sg
from synself.volume_io import read_synapse_table, read_volume, write_volume
import oracles
from helpers import assert_phantom_invariants, time_limit, traced_peak
from oracles import generate_voxels_loops, place_sites_loops

# the phantom of the dense_sv benchmark workload: 256 synapses on each of 16 supervoxels
DENSE_SV = sg.GenConfig(seed=0, dims=(280, 280, 140), n_supervoxels=16, synapses_per_supervoxel=256)


def small_config(**kw):
    base = dict(
        seed=1,
        dims=(48, 48, 24),
        n_supervoxels=4,
        synapses_per_supervoxel=2,
        noise_sigma=0.0,
        class_params=(
            sg.ClassParams(2.0, 1.0, 3.0, 200.0, 120.0),
            sg.ClassParams(3.5, 1.0, 4.0, 150.0, 90.0),
        ),
        background_intensity=40.0,
    )
    base.update(kw)
    return sg.GenConfig(**base)


def class_of(ph):
    return {r.supervoxel_id: r.class_label for r in ph.synapses}


class TestGenerate:
    def test_single_site_center_is_core_intensity(self):
        cfg = sg.GenConfig(
            seed=0,
            dims=(24, 24, 24),
            n_supervoxels=1,
            synapses_per_supervoxel=1,
            noise_sigma=0.0,
            class_params=(sg.ClassParams(2.0, 1.0, 3.0, 200.0, 120.0),),
            background_intensity=40.0,
        )
        ph = sg.generate(cfg)
        assert len(ph.synapses) == 1
        x, y, z = ph.synapses[0].pos
        assert ph.intensity.voxels[z, y, x] == 200
        # exactly one rendered morphology: all non-background away from the site
        dist = np.abs(np.argwhere(ph.intensity.voxels != 40) - [z, y, x]).max(axis=1)
        assert dist.max() <= int(np.ceil(cfg.class_params[0].extent_vox)) + 1

    def test_class_histogram_balanced(self):
        cfg = sg.GenConfig(seed=3)  # acceptance-scale defaults: K=3, V=60, S=8
        ph = sg.generate(cfg)
        assert len(ph.synapses) == 480
        hist = Counter(r.class_label for r in ph.synapses)
        assert hist == {1: 160, 2: 160, 3: 160}

    def test_determinism_and_seed_sensitivity(self):
        a = sg.generate(small_config(seed=5))
        b = sg.generate(small_config(seed=5))
        c = sg.generate(small_config(seed=6))
        assert np.array_equal(a.intensity.voxels, b.intensity.voxels)
        assert a.cells == b.cells
        assert a.synapses == b.synapses
        assert class_of(a) == class_of(b)
        assert [r.pos for r in a.synapses] != [r.pos for r in c.synapses]

    def test_dale_invariant_and_position_consistency(self):
        assert_phantom_invariants(sg.generate(small_config(seed=7, n_supervoxels=6, synapses_per_supervoxel=3)))

    def test_validate_rejects_a_synapse_moved_into_another_cell(self):
        ph = sg.generate(small_config(seed=7))
        rec = ph.synapses[0]
        other = next(sv for sv in ph.cells if sv != rec.supervoxel_id)
        ph.synapses[0] = dataclasses.replace(rec, pos=ph.cells[other][0])
        with pytest.raises(AssertionError, match="outside the cell"):
            assert_phantom_invariants(ph)

    def test_validate_rejects_a_class_unlike_its_supervoxel_mates(self):
        ph = sg.generate(small_config(seed=7))
        rec = ph.synapses[1]
        assert rec.supervoxel_id == ph.synapses[0].supervoxel_id
        ph.synapses[1] = dataclasses.replace(rec, class_label=3 - rec.class_label)
        with pytest.raises(AssertionError, match="class .* of an earlier synapse"):
            assert_phantom_invariants(ph)

    # the default phantom is pipeline16's
    @pytest.mark.parametrize("cfg", [
        sg.GenConfig(seed=0),
        sg.GenConfig(seed=0, dims=(96, 96, 48), n_supervoxels=4, synapses_per_supervoxel=64),
        DENSE_SV,
    ], ids=["default", "dense", "dense_sv"])
    def test_cells_partition_the_volume(self, cfg):
        ph = sg.generate(cfg)
        boxes = list(ph.cells.values())
        assert sorted(ph.cells) == list(range(1, cfg.n_supervoxels + 1))
        assert all(type(c) is int for lo, hi in boxes for c in lo + hi)
        assert all(0 <= l < h <= n for lo, hi in boxes for l, h, n in zip(lo, hi, cfg.dims))
        for i, (lo1, hi1) in enumerate(boxes):
            for lo2, hi2 in boxes[i + 1:]:
                assert any(h1 <= l2 or h2 <= l1 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))
        assert sum(int(np.prod(np.subtract(hi, lo))) for lo, hi in boxes) == int(np.prod(cfg.dims))
        assert_phantom_invariants(ph)

    @pytest.mark.parametrize("cfg", [
        sg.GenConfig(seed=0),
        sg.GenConfig(seed=1),
        sg.GenConfig(seed=0, dims=(96, 96, 48), n_supervoxels=4, synapses_per_supervoxel=64),
        sg.GenConfig(seed=2, noise_sigma=0.0),
        # exact halves exercise rint's round-half-to-even, with and without noise
        sg.GenConfig(seed=3, noise_sigma=0.0, background_intensity=40.25, class_params=(
            sg.ClassParams(2.0, 1.5, 3.0, 220.75, 110.5), *sg.DEFAULT_CLASS_PARAMS[1:])),
        sg.GenConfig(seed=3, background_intensity=40.25, class_params=(
            sg.ClassParams(2.0, 1.5, 3.0, 220.75, 110.5), *sg.DEFAULT_CLASS_PARAMS[1:])),
        # eight sites to a cell of a small volume, so their stamps crowd each other
        small_config(seed=8, synapses_per_supervoxel=8),
    ], ids=["default", "seed1", "dense", "no-noise", "halves", "halves-noise", "crowded"])
    def test_matches_the_float_canvas_renderer(self, cfg):
        want = generate_voxels_loops(cfg)
        assert sg.generate(cfg).intensity.voxels.tobytes() == want.tobytes()
        # the sites overlap, so the result depends on painting them in order
        assert not np.array_equal(want, generate_voxels_loops(cfg, reverse=True))

    def test_more_classes_than_u8_codes_match_the_float_canvas_renderer(self):
        # 86 classes need codes up to 258, so the planes are finished into u16
        # codes, which are then cast to the u8 voxels
        params = tuple(sg.ClassParams(1.0, 0.5, 1.0, 100.0 + k, 60.0 + k / 2) for k in range(86))
        cfg = sg.GenConfig(seed=5, dims=(110, 40, 20), n_supervoxels=88, synapses_per_supervoxel=1,
                           class_params=params)
        voxels = sg.generate(cfg).intensity.voxels
        assert voxels.dtype == np.uint8
        assert voxels.tobytes() == generate_voxels_loops(cfg).tobytes()

    @pytest.mark.parametrize("cfg", [
        sg.GenConfig(seed=0),
        sg.GenConfig(seed=0, dims=(96, 96, 48), n_supervoxels=4, synapses_per_supervoxel=64),
    ], ids=["default", "dense"])
    def test_stamps_fit_their_cells(self, cfg):
        # what lets generate paint every stamp whole, with no clipping at the edges
        ph = sg.generate(cfg)
        for rec in ph.synapses:
            b = cfg.class_params[rec.class_label - 1].half_width_vox
            lo, hi = ph.cells[rec.supervoxel_id]
            assert all(l <= p - b and p + b < h for l, p, h in zip(lo, rec.pos, hi))

    def test_peak_memory_under_4_bytes_per_voxel(self):
        # three supervoxels make the largest cells, so the largest placement grids
        for n_supervoxels in (8, 3):
            cfg = sg.GenConfig(seed=0, dims=(96, 96, 96), n_supervoxels=n_supervoxels)
            # one byte of codes per voxel, finished in place into intensities, plus
            # per-plane floats and a placement grid of a byte per cell voxel;
            # a float64 canvas with its noise and sum takes over 24
            assert traced_peak(lambda: sg.generate(cfg)) < 4 * 96 ** 3, n_supervoxels

    def test_sites_respect_min_separation(self):
        cfg = small_config(seed=9, synapses_per_supervoxel=4, dims=(64, 64, 32))
        ph = sg.generate(cfg)
        min_sep = 2 * cfg.max_blob_radius
        by_sv = {}
        for r in ph.synapses:
            by_sv.setdefault(r.supervoxel_id, []).append(np.array(r.pos))
        for sites in by_sv.values():
            for i in range(len(sites)):
                for j in range(i + 1, len(sites)):
                    assert np.linalg.norm(sites[i] - sites[j]) >= min_sep

    def test_infeasible_placement_reports_supervoxel(self):
        with pytest.raises(sg.GenerationError, match="supervoxel"):
            sg.generate(small_config(dims=(20, 20, 10), synapses_per_supervoxel=30))

    @pytest.mark.parametrize("cfg", [
        sg.GenConfig(seed=4),
        sg.GenConfig(seed=4, dims=(96, 96, 48), n_supervoxels=4, synapses_per_supervoxel=64),
        DENSE_SV,
        # min_sep 4.6 is not an integer, so no offset lies exactly on the separation
        sg.GenConfig(seed=4, dims=(64, 64, 32), n_supervoxels=4, synapses_per_supervoxel=24,
                     class_params=(sg.ClassParams(2.3, 1.0, 3.0, 200.0, 120.0),
                                   sg.ClassParams(1.5, 1.0, 2.5, 150.0, 90.0))),
    ], ids=["default", "dense", "dense_sv", "fractional-sep"])
    def test_placement_matches_the_loops(self, monkeypatch, cfg):
        got = sg.generate(cfg)
        monkeypatch.setattr(sg, "_place_sites", place_sites_loops)
        want = sg.generate(cfg)
        assert got.intensity.voxels.tobytes() == want.intensity.voxels.tobytes()
        assert got.cells == want.cells
        assert got.synapses == want.synapses
        assert all(type(c) is int for r in got.synapses for c in r.pos)

    @pytest.mark.parametrize("args, passes", [
        (((0, 0, 0), (24, 24, 24), 5, 8, 8.0), 2),
        # min_sep 6.5 exceeds the interior's span of 6, so the grid's pad stops at 5
        (((0, 0, 0), (16, 16, 16), 5, 3, 6.5), 4),
    ])
    def test_place_sites_matches_the_loops(self, monkeypatch, args, passes):
        got = sg._place_sites(*args, np.random.default_rng(2), 1)
        assert got == place_sites_loops(*args, np.random.default_rng(2), 1)
        assert all(type(c) is int for site in got for c in site)
        # the earlier passes fail, so the case covers restarts
        monkeypatch.setattr(sg, "PLACEMENT_RESTARTS", passes - 1)
        monkeypatch.setattr(oracles, "PLACEMENT_RESTARTS", passes - 1)
        for place in (sg._place_sites, place_sites_loops):
            with pytest.raises(sg.GenerationError, match=f"infeasible after {passes - 1}x"):
                place(*args, np.random.default_rng(2), 1)

    @pytest.mark.parametrize("los, his", [
        ([5, 5, 5], [19, 19, 19]),
        ([3, 0, 7], [4, 2, 1000]),  # spans of 1 and 2 beside a wide one
        ([0, -50, 10], [2 ** 40, 50, 2 ** 31 + 11]),  # spans past 32 bits
    ])
    def test_bulk_draw_equals_scalar_draws(self, los, his):
        # what lets _place_sites draw a round's candidates at once: the draw bounded
        # per axis gives the scalar draws' values and leaves the generator where they do
        bulk, scalar = np.random.default_rng(7), np.random.default_rng(7)
        got = bulk.integers(los, his, size=(40, 3)).tolist()
        want = [[int(scalar.integers(a, b)) for a, b in zip(los, his)] for _ in range(40)]
        assert got == want
        assert bulk.bit_generator.state == scalar.bit_generator.state

    def test_infeasible_placement_error_matches_the_loops(self, monkeypatch):
        cfg = small_config(dims=(20, 20, 10), synapses_per_supervoxel=30)
        with pytest.raises(sg.GenerationError) as got:
            sg.generate(cfg)
        monkeypatch.setattr(sg, "_place_sites", place_sites_loops)
        with pytest.raises(sg.GenerationError) as want:
            sg.generate(cfg)
        assert str(got.value) == str(want.value)

    def test_recoverability_zero_noise_threshold_classifier(self):
        # radii differ by >= 2: counting non-background voxels in a centered
        # patch must reach 100% accuracy
        cfg = sg.GenConfig(
            seed=11,
            dims=(96, 72, 48),
            n_supervoxels=12,
            synapses_per_supervoxel=2,
            noise_sigma=0.0,
            class_params=(
                sg.ClassParams(2.0, 1.0, 3.0, 200.0, 120.0),
                sg.ClassParams(4.0, 1.0, 5.0, 150.0, 90.0),
                sg.ClassParams(6.0, 1.0, 7.0, 100.0, 60.0),
            ),
            background_intensity=40.0,
        )
        ph = sg.generate(cfg)
        half = 8
        counts, labels = [], []
        vox = ph.intensity.voxels
        for rec in ph.synapses:
            x, y, z = rec.pos
            patch = vox[max(z - half, 0):z + half, max(y - half, 0):y + half, max(x - half, 0):x + half]
            counts.append(int((patch != 40).sum()))
            labels.append(rec.class_label)
        counts = np.array(counts)
        labels = np.array(labels)
        spans = {c: (counts[labels == c].min(), counts[labels == c].max()) for c in (1, 2, 3)}
        ordered = sorted(spans.values())
        assert ordered[0][1] < ordered[1][0] < ordered[1][1] < ordered[2][0]

    @pytest.mark.parametrize("field, value", [
        ("dims", (180.9, 144, 108)), ("dims", (True, 144, 108)), ("seed", 1.5),
        ("n_supervoxels", 60.0), ("synapses_per_supervoxel", 8.0), ("seed", -1),
        ("dims", (0, 10, 10)), ("dims", (10, -3, 10)),  # generate failed only when it partitioned
    ])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(sg.GenerationError, match=f"{field} must be"):
            sg.GenConfig(**{field: value})

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        # NaN turned the noise off, and inf left a volume of 0s and 255s
        with pytest.raises(sg.GenerationError, match="noise_sigma must be a finite real number"):
            sg.GenConfig(noise_sigma=sigma)

    @pytest.mark.parametrize("extents", [
        (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0),
    ])
    def test_non_finite_class_extent_rejected(self, extents):
        with pytest.raises(sg.GenerationError, match="_vox must be a finite real number > 0"):
            sg.ClassParams(*extents, 100.0, 50.0)

    def test_config_validation(self):
        with pytest.raises(sg.GenerationError):
            small_config(n_supervoxels=1)  # V < K
        with pytest.raises(sg.GenerationError):
            small_config(class_params=())  # no class
        with pytest.raises(sg.GenerationError):
            sg.ClassParams(0.0, 1.0, 1.0, 100.0, 50.0)
        with pytest.raises(sg.GenerationError):
            sg.ClassParams(1.0, 1.0, 1.0, 300.0, 50.0)


class TestGridShape:
    def test_exact_product(self):
        for v in (1, 7, 12, 60):
            g = sg.grid_shape(v, (180, 144, 108))
            assert g[0] * g[1] * g[2] == v

    def test_count_past_the_cells_that_fit_refused_at_once(self):
        # factoring 10**9 before the refusal took minutes
        with time_limit(5), pytest.raises(sg.GenerationError, match="cannot partition dims"):
            sg.generate(sg.GenConfig(n_supervoxels=10 ** 9))

    def test_sixty_is_5_4_3(self):
        assert sg.grid_shape(60, (180, 144, 108)) == (5, 4, 3)


class TestPersistence:
    def test_save_phantom_round_trip(self, tmp_path):
        ph = sg.generate(small_config(seed=23))
        sg.save_phantom(ph, tmp_path)
        assert read_volume(tmp_path / "intensity.vol") == ph.intensity
        assert read_synapse_table(tmp_path / "synapses.csv") == ph.synapses
        # every supervoxel carries a synapse, so the table records every supervoxel's class
        table = read_synapse_table(tmp_path / "synapses.csv")
        assert {r.supervoxel_id for r in table} == set(ph.cells)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["intensity.vol", "synapses.csv"]

    def test_default_phantom_files_are_pinned(self, tmp_path):
        # the default phantom, the dense_sv benchmark's, then a noiseless one whose
        # grid is (3, 1, 1), so two of its axes have a single cell and no cut to jitter
        for name, cfg, want in [
            ("default", sg.GenConfig(seed=0), {
                "intensity.vol": "4d81527320e82ce465d8610a115e31d5f3ff35dee59e0427ede1cb6a48b3d23e",
                "synapses.csv": "fcd05952340355be05843f3f37602bb9a45c2d11e66091fa87af420bd357001c",
            }),
            ("dense_sv", DENSE_SV, {
                "intensity.vol": "e9139394d804b670b1159019b52aac176c39b8fc7ef15c8124f783f0da167343",
                "synapses.csv": "d28253de34b0d19c4b132fee28b49ba237791570aeefd2419a395cf9789e41bb",
            }),
            ("single_cell_axes", sg.GenConfig(seed=3, dims=(90, 30, 30), n_supervoxels=3,
                                              synapses_per_supervoxel=2, noise_sigma=0.0), {
                "intensity.vol": "d901656f2bddaadfeac3ed5064529d7d4676c89b64ca9fe4c40dd02b70b14002",
                "synapses.csv": "5c21398439616eb7adf12760cbadd8858db79050b88631bb2b92004be2f17409",
            }),
        ]:
            sg.save_phantom(sg.generate(cfg), tmp_path / name)
            got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / name).iterdir()}
            assert got == want, name


class TestVolumeTracedPeaks:
    """What each stage of the dense_sv volume's path allocates at its peak: one
    buffer per volume, from generation to disk and back, and no array the size
    of the volume for a comparison."""

    MIB = 1 << 20

    @pytest.fixture(scope="class")
    def phantom(self):
        return sg.generate(DENSE_SV)

    def test_generate_holds_one_and_a_half_volumes_at_most(self, phantom):
        # the code array, finished in place, plus planes and placement grids
        assert traced_peak(lambda: sg.generate(DENSE_SV)) <= 1.5 * phantom.intensity.voxels.nbytes

    def test_write_and_read_copy_no_payload(self, phantom, tmp_path):
        path = tmp_path / "intensity.vol"
        assert traced_peak(lambda: write_volume(phantom.intensity, path)) < self.MIB
        assert traced_peak(lambda: read_volume(path)) <= phantom.intensity.voxels.nbytes + self.MIB

    def test_equality_compares_without_a_volume_of_bools(self, phantom, tmp_path):
        path = tmp_path / "intensity.vol"
        write_volume(phantom.intensity, path)
        vol = read_volume(path)
        equal = []
        assert traced_peak(lambda: equal.append(vol == phantom.intensity)) < self.MIB
        assert equal == [True]
