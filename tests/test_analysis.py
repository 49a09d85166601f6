import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synself import analysis as an
from synself import encoder as enc
from synself import numcore as nc
from synself import sampler as sp
from synself.volume_io import EmbeddingMatrix, IntensityVolume, SynapseRecord, VolumeFormatError, VolumeHeader
from oracles import ari_pair_loops, concordance_loops, nmi_loops


def ramp_dataset():
    dims = (32, 24, 16)
    nx, ny, nz = dims
    vox = (np.arange(nx * ny * nz) % 241).astype(np.uint8).reshape(nz, ny, nx)
    vol = IntensityVolume(VolumeHeader(dims), vox)
    recs = [
        SynapseRecord(0, (8, 8, 8), 1),
        SynapseRecord(1, (16, 8, 8), 1),
        SynapseRecord(2, (8, 16, 8), 2),
        SynapseRecord(3, (24, 16, 8), 2),
    ]
    return vol, recs


SMALL = enc.EncoderConfig(patch_side=8, channels=(2, 3), convs_per_block=1, h_dim=6, z_dim=4, init_seed=0)


class TestEmbedAll:
    def test_rows_match_manual_forward(self, tmp_path):
        vol, recs = ramp_dataset()
        params = enc.init(SMALL)
        ck = tmp_path / "ck.dckpt"
        enc.save(params, SMALL, ck)
        emb = an.embed_all(ck, vol, recs, patch_side=8)
        assert emb.values.shape == (4, 6)
        for i, rec in enumerate(recs):
            patch = sp.extract_patch(vol, rec.pos, 8)
            h, _ = enc.forward(params, patch[None], SMALL)
            assert np.array_equal(emb.values[i], h[0])

    def test_duplicate_position_identical_rows(self, tmp_path):
        vol, _ = ramp_dataset()
        recs = [SynapseRecord(0, (8, 8, 8), 1), SynapseRecord(1, (8, 8, 8), 2)]
        params = enc.init(SMALL)
        ck = tmp_path / "ck.dckpt"
        enc.save(params, SMALL, ck)
        emb = an.embed_all(ck, vol, recs, patch_side=8)
        assert np.array_equal(emb.values[0], emb.values[1])

    def test_patch_side_mismatch(self, tmp_path):
        vol, recs = ramp_dataset()
        ck = tmp_path / "ck.dckpt"
        enc.save(enc.init(SMALL), SMALL, ck)
        with pytest.raises(an.AnalysisError, match="patch_side"):
            an.embed_all(ck, vol, recs, patch_side=16)

    def test_synapse_outside_the_volume_rejected(self):
        vol, recs = ramp_dataset()
        with pytest.raises(VolumeFormatError, match="outside volume"):
            an.embed_with_params(enc.init(SMALL), SMALL, vol, recs + [SynapseRecord(9, (500, 500, 500), 1)])

    def test_zero_projection_still_embeds(self, monkeypatch):
        # a zero patch under zero biases gives z_pre = 0, which has no unit
        # direction; embedding reads only h, so it returns a finite row
        vol = IntensityVolume(VolumeHeader((16, 16, 16)), np.zeros((16, 16, 16), np.uint8))
        calls = []
        real = enc.forward
        monkeypatch.setattr(enc, "forward", lambda *a: calls.append(1) or real(*a))
        emb = an.embed_with_params(enc.init(SMALL), SMALL, vol, [SynapseRecord(0, (8, 8, 8), 1)])
        assert emb.values.shape == (1, SMALL.h_dim) and np.isfinite(emb.values).all()
        assert len(calls) == 1  # one encoder.forward per chunk, the call the benchmark paces

    @pytest.mark.parametrize("m", [1, 4, 5, 6, 11])
    def test_chunked_rows_equal_one_view_rows(self, m):
        # the default encoder at 8^3 embeds in chunks of 5: 11 synapses run as 5 + 5 + 1
        cfg = enc.EncoderConfig(patch_side=8)
        assert enc.views_per_chunk(cfg) == 5
        rng = np.random.default_rng(m)
        vol = IntensityVolume(VolumeHeader((24, 20, 16)), rng.integers(0, 256, (16, 20, 24), dtype=np.uint8))
        recs = [SynapseRecord(i, tuple(int(c) for c in rng.integers(0, 16, 3)), 1) for i in range(m)]
        params = {k: v + 0.01 * rng.standard_normal(v.shape) for k, v in enc.init(cfg).items()}
        emb = an.embed_with_params(params, cfg, vol, recs)
        assert emb.values.shape == (m, cfg.h_dim)
        for i, rec in enumerate(recs):
            h, _ = enc.forward(params, sp.extract_patch(vol, rec.pos, 8)[None], cfg)
            assert emb.values[i].tobytes() == h[0].tobytes(), i

    def test_chunk_rule_from_shapes(self, monkeypatch):
        # the widest conv (c8-8) keeps z-slabs of at least k-1 = 2 planes:
        # 768 KiB // (72 rows x 64 columns x 8 B x B) - 2 >= 2 holds up to B = 5 at 8^3
        chunk = {s: enc.views_per_chunk(enc.EncoderConfig(patch_side=s)) for s in (8, 16, 80)}
        assert chunk == {8: 5, 16: 1, 80: 1}
        monkeypatch.setattr(nc, "SLAB_BYTES", 1)
        assert enc.views_per_chunk(enc.EncoderConfig(patch_side=8)) == 1

    def test_row_order_follows_table_order(self, tmp_path):
        vol, recs = ramp_dataset()
        ck = tmp_path / "ck.dckpt"
        enc.save(enc.init(SMALL), SMALL, ck)
        fwd = an.embed_all(ck, vol, recs, patch_side=8)
        rev = an.embed_all(ck, vol, recs[::-1], patch_side=8)
        assert rev.synapse_ids == fwd.synapse_ids[::-1]
        assert np.array_equal(rev.values, fwd.values[::-1])


def near_degenerate_pair(rng, m, d, g):
    """(m, d) data whose sample covariance has eigenvalues 1, 1 - g, then 0.5 down to
    0.1, along random orthonormal axes."""
    z = rng.normal(size=(m, d))
    q, _ = np.linalg.qr(z - z.mean(axis=0))  # orthonormal columns, each of zero mean
    axes, _ = np.linalg.qr(rng.normal(size=(d, d)))
    spectrum = np.concatenate([[1.0, 1.0 - g], np.linspace(0.5, 0.1, d - 2)])
    return (q * np.sqrt((m - 1) * spectrum)) @ axes.T


class TestPCA:
    def test_line_data_first_component(self):
        t = np.linspace(-2, 2, 9)
        x = np.outer(t, np.array([3.0, 4.0, 0.0, 0.0]))
        res = an.pca_project(EmbeddingMatrix(list(range(9)), x), out_dim=2)
        assert np.allclose(np.abs(res.components[0]), [0.6, 0.8, 0, 0], atol=1e-10)
        assert res.components[0][1] > 0  # sign rule: largest-magnitude entry positive
        assert res.explained_variance[1] == 0.0
        assert res.n_positive == 1

    def test_matches_dense_eigensolver(self):
        # reference: the SVD of the centred data, which shares no code with a
        # covariance eigensolver; the last two inputs have lambda_2 = (1 - g) lambda_1
        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=(m, d)) @ rng.normal(size=(d, d)) for m, d in ((30, 5), (80, 8), (200, 12))]
        inputs += [near_degenerate_pair(rng, 300, 8, g) for g in (1e-3, 1e-4)]
        for x in inputs:
            m = x.shape[0]
            res = an.pca_project(EmbeddingMatrix(list(range(m)), x), out_dim=2)
            _, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
            var = s**2 / (m - 1)
            assert np.allclose(res.explained_variance, var[:2] / var.sum(), rtol=0, atol=1e-10)
            peaks = vt[np.arange(2), np.argmax(np.abs(vt[:2]), axis=1)]
            want = vt[:2] * np.sign(peaks)[:, None]
            assert np.allclose(res.components, want, rtol=0, atol=1e-10)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 7))
        res = an.pca_project(EmbeddingMatrix(list(range(50)), x), out_dim=3)
        gram = res.components @ res.components.T
        assert np.allclose(gram, np.eye(3), atol=1e-8)

    def test_explained_variance_non_increasing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
        res = an.pca_project(EmbeddingMatrix(list(range(60)), x), out_dim=4)
        assert np.all(np.diff(res.explained_variance) <= 1e-12)

    def test_rotation_recovery_procrustes(self):
        # PCA commutes with orthonormal rotation: coords agree up to axis sign
        rng = np.random.default_rng(3)
        base = rng.normal(size=(40, 2)) * np.array([4.0, 1.5])
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        ref = an.pca_project(EmbeddingMatrix(list(range(40)), base), out_dim=2)
        rot = an.pca_project(EmbeddingMatrix(list(range(40)), base @ q.T), out_dim=2)
        for axis in range(2):
            match = min(
                np.max(np.abs(rot.coords[:, axis] - ref.coords[:, axis])),
                np.max(np.abs(rot.coords[:, axis] + ref.coords[:, axis])),
            )
            assert match < 1e-8

    def test_rank_deficient_reported_and_padded(self):
        x = np.ones((5, 3)) * 2.0  # zero variance
        res = an.pca_project(EmbeddingMatrix(list(range(5)), x), out_dim=2)
        assert res.n_positive == 0
        assert not res.components.any()
        assert not res.coords.any()
        # more components than dimensions: the rows past D stay zero
        x = np.random.default_rng(8).normal(size=(10, 2))
        res = an.pca_project(EmbeddingMatrix(list(range(10)), x), out_dim=3)
        assert res.n_positive == 2
        assert not res.components[2].any() and not res.coords[:, 2].any()
        assert res.explained_variance[2] == 0.0

    @pytest.mark.parametrize("out_dim", [1.5, -1, 0, True, 2.0, 5])
    def test_bad_out_dim_rejected(self, out_dim):
        # 5 asks for as many components as there are rows
        x = np.random.default_rng(9).normal(size=(5, 3))
        with pytest.raises(an.AnalysisError, match="out_dim must be an integer"):
            an.pca_project(EmbeddingMatrix(list(range(5)), x), out_dim=out_dim)


class TestKMeans:
    def test_k_equals_m(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3))
        res = an.kmeans(x, k=6, seed=0)
        assert res.inertia == 0.0
        assert len(set(res.labels.tolist())) == 6

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 4))
        res = an.kmeans(x, k=1, seed=0)
        assert np.allclose(res.centroids[0], x.mean(axis=0), atol=1e-12)
        want = float(((x - x.mean(axis=0)) ** 2).sum())
        assert abs(res.inertia - want) < 1e-9

    def test_two_blobs_hand_oracle(self):
        blob_a = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]])
        blob_b = np.array([[10.0, 10.0], [10.2, 10.0], [10.0, 10.2]])
        x = np.vstack([blob_a, blob_b])
        res = an.kmeans(x, k=2, seed=1)
        assert len(set(res.labels[:3].tolist())) == 1
        assert len(set(res.labels[3:].tolist())) == 1
        assert res.labels[0] != res.labels[3]
        want = sum(float(((b - b.mean(axis=0)) ** 2).sum()) for b in (blob_a, blob_b))
        assert abs(res.inertia - want) < 1e-12

    def test_inertia_non_increasing_per_iteration(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            x = rng.normal(size=(40, 3)) + rng.integers(0, 4, size=(40, 1)) * 3.0
            res = an.kmeans(x, k=4, seed=trial)
            assert all(a >= b for a, b in zip(res.inertia_history, res.inertia_history[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 4))
        a = an.kmeans(x, k=3, seed=9)
        b = an.kmeans(x, k=3, seed=9)
        assert np.array_equal(a.labels, b.labels) and a.inertia == b.inertia

    def test_bad_k(self):
        with pytest.raises(an.AnalysisError):
            an.kmeans(np.zeros((3, 2)), k=0)
        with pytest.raises(an.AnalysisError):
            an.kmeans(np.zeros((3, 2)), k=4)

    @pytest.mark.parametrize("k", [2.0, 2.5, True])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(an.AnalysisError, match="k must be an integer"):
            an.kmeans(np.arange(8.0).reshape(4, 2), k=k)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(an.AnalysisError, match="seed must be an integer >= 0"):
            an.kmeans(np.arange(8.0).reshape(4, 2), k=2, seed=seed)


class TestAgreementMetrics:
    def test_identical_labelings(self):
        labels = [0, 0, 1, 1, 2]
        assert an.nmi(labels, labels) == 1.0
        assert an.ari(labels, labels) == 1.0

    def test_constant_labeling(self):
        a = [1, 1, 1, 1]
        b = [0, 1, 0, 1]
        assert an.nmi(a, b) == 0.0
        assert an.ari(a, b) == 0.0

    def test_matches_contingency_oracles_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.integers(0, 4, size=30).tolist()
            b = rng.integers(0, 3, size=30).tolist()
            assert abs(an.nmi(a, b) - nmi_loops(a, b)) <= 1e-12
            assert abs(an.ari(a, b) - ari_pair_loops(a, b)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=2, max_size=40), st.integers(0, 10**6))
    def test_symmetry_and_permutation_invariance(self, a, seed):
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 4, size=len(a)).tolist()
        assert abs(an.nmi(a, b) - an.nmi(b, a)) <= 1e-12
        assert abs(an.ari(a, b) - an.ari(b, a)) <= 1e-12
        # relabeling is irrelevant
        remap = {v: 100 - v for v in set(a)}
        a2 = [remap[v] for v in a]
        assert abs(an.nmi(a, b) - an.nmi(a2, b)) <= 1e-12
        assert abs(an.ari(a, b) - an.ari(a2, b)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(an.AnalysisError):
            an.nmi([1, 2], [1, 2, 3])
        with pytest.raises(an.AnalysisError):
            an.nmi([], [])


class TestConcordance:
    def recs(self, svs):
        return [SynapseRecord(i, (0, 0, 0), sv) for i, sv in enumerate(svs)]

    def test_identical_embeddings(self):
        emb = EmbeddingMatrix(list(range(4)), np.tile([1.0, 2.0], (4, 1)))
        intra, inter = an.concordance(emb, self.recs([1, 1, 2, 2]))
        assert intra == 1.0 and inter == 1.0

    def test_identical_wide_embeddings(self):
        # at this size the entries of a BLAS Gram matrix of equal rows differ in
        # their last bits, so the cosine of two equal rows would not be exactly 1
        row = np.random.default_rng(3).normal(size=64)
        emb = EmbeddingMatrix(list(range(80)), np.tile(row, (80, 1)))
        intra, inter = an.concordance(emb, self.recs([1] * 40 + [2] * 40))
        assert intra == 1.0 and inter == 1.0

    # sample 50 takes the sampled inter path, 10_000 the exhaustive one
    @pytest.mark.parametrize("sample", [50, 10_000])
    def test_matches_the_pairwise_loops(self, sample):
        rng = np.random.default_rng(17)
        svs = [1] * 23 + [2] * 9 + [3] + [4] * 2 + [5] * 14
        svs = [svs[i] for i in rng.permutation(len(svs))]
        x = rng.normal(size=(len(svs), 64)) * rng.uniform(0.01, 100.0, size=(len(svs), 1))
        emb = EmbeddingMatrix(list(range(len(svs))), x)
        got = an.concordance(emb, self.recs(svs), sample=sample, seed=4)
        want = concordance_loops(emb, self.recs(svs), sample=sample, seed=4)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    # m = 480 and 4096 are the benchmark workloads' synapse counts; integer-valued
    # rows make every dot product exact in any summation order, so equal results
    # mean that the bulk draws picked the loop's pairs
    @pytest.mark.parametrize("m", [480, 4096])
    def test_sampled_pairs_equal_the_per_pair_draws(self, m):
        rng = np.random.default_rng(m)
        x = rng.integers(-4, 5, size=(m, 8)).astype(float)
        emb = EmbeddingMatrix(list(range(m)), x)
        recs = self.recs([1 + i % (m // 8) for i in range(m)])
        assert an.concordance(emb, recs) == concordance_loops(emb, recs)

    def test_zero_row_has_cosine_zero(self):
        x = np.random.default_rng(5).normal(size=(6, 8))
        x[1] = 0.0
        emb = EmbeddingMatrix(list(range(6)), x)
        recs = self.recs([1, 1, 1, 2, 2, 2])
        got = an.concordance(emb, recs)
        assert np.isfinite(got).all()
        assert np.allclose(got, concordance_loops(emb, recs), rtol=0.0, atol=1e-12)

    def test_orthogonal_supervoxels(self):
        emb = EmbeddingMatrix(
            list(range(4)), np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        )
        intra, inter = an.concordance(emb, self.recs([1, 1, 2, 2]))
        assert intra == 1.0 and inter == 0.0

    def test_intra_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(9)
        svs = [s for s in range(5) for _ in range(3)]
        x = rng.normal(size=(15, 6))
        emb = EmbeddingMatrix(list(range(15)), x)
        intra, _ = an.concordance(emb, self.recs([s + 1 for s in svs]))
        vals = []
        for i in range(15):
            for j in range(i + 1, 15):
                if svs[i] == svs[j]:
                    u, v = x[i], x[j]
                    vals.append(float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert abs(intra - np.mean(vals)) < 1e-12

    @pytest.mark.parametrize("sample", [0, -1, 2.0, True])
    def test_bad_sample_rejected(self, sample):
        # an empty sample averaged no inter pair, to NaN
        emb = EmbeddingMatrix(list(range(4)), np.eye(4))
        with pytest.raises(an.AnalysisError, match="sample must be an integer >= 1"):
            an.concordance(emb, self.recs([1, 1, 2, 2]), sample=sample)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        # four cross pairs, fewer than the sample: no draw would read the seed
        emb = EmbeddingMatrix(list(range(4)), np.eye(4))
        with pytest.raises(an.AnalysisError, match="seed must be an integer >= 0"):
            an.concordance(emb, self.recs([1, 1, 2, 2]), seed=seed)

    def test_no_eligible_pairs(self):
        emb = EmbeddingMatrix([0, 1], np.ones((2, 2)))
        with pytest.raises(an.AnalysisError, match="intra"):
            an.concordance(emb, self.recs([1, 2]))


class TestScatter:
    def test_counts_and_determinism(self, tmp_path):
        coords = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        labels = [1, 2, 1]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        an.emit_scatter(coords, labels, p1)
        an.emit_scatter(coords, labels, p2)
        assert p1.read_bytes() == p2.read_bytes()
        root = ET.fromstring(p1.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        points = [c for c in root.findall(f"{ns}circle")]
        legends = root.findall(f"{ns}g")
        assert len(points) == 3
        assert len(legends) == 2

    def test_bounding_box_with_margin(self, tmp_path):
        rng = np.random.default_rng(10)
        coords = rng.normal(size=(20, 2)) * [3.0, 7.0] + [100.0, -50.0]
        p = tmp_path / "s.svg"
        an.emit_scatter(coords, ["x"] * 20, p)
        root = ET.fromstring(p.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        pts = [
            (float(c.get("cx")), float(c.get("cy")))
            for c in root.findall(f"{ns}circle")
        ]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        # all points inside the viewport, margin keeps them off the exact edge
        assert min(xs) > 0 and max(xs) < 640
        assert min(ys) > 0 and max(ys) < 480
        # extremes map to the 5% margin positions: span fraction ~ 1/1.1
        # (coords are written with 3 decimals, hence the loose tolerance)
        assert (max(xs) - min(xs)) / (640 - 120) == pytest.approx(1 / 1.1, rel=1e-4)
