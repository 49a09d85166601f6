"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written as plain loops / direct summation so
it shares no code path with the implementations it checks, except
``encoder_backward_from_pre``, which says why it does.
"""

import math

import numpy as np

from synself import numcore as nc
from synself import synthgen as sg
from synself.analysis import AnalysisError
from synself.synthgen import PLACEMENT_ATTEMPTS_PER_SITE, PLACEMENT_RESTARTS, GenerationError


def conv3d_loops(x, w, b):
    """Direct 8-nested-loop 3D correlation with same padding, view by view."""
    c_out, c_in, k, _, _ = w.shape
    _, d, h, wd, n_views = x.shape
    p = k // 2
    out = np.zeros((c_out, d, h, wd, n_views))
    for v in range(n_views):
        for o in range(c_out):
            for z in range(d):
                for y in range(h):
                    for xx in range(wd):
                        acc = b[o]
                        for c in range(c_in):
                            for dz in range(k):
                                for dy in range(k):
                                    for dx in range(k):
                                        zz, yy, xz = z + dz - p, y + dy - p, xx + dx - p
                                        if 0 <= zz < d and 0 <= yy < h and 0 <= xz < wd:
                                            acc += w[o, c, dz, dy, dx] * x[c, zz, yy, xz, v]
                        out[o, z, y, xx, v] = acc
    return out


def maxpool3d_loops(x):
    """Nested-loop max over disjoint 2x2x2 windows of each view."""
    c, d, h, w, n_views = x.shape
    out = np.empty((c, d // 2, h // 2, w // 2, n_views))
    for v in range(n_views):
        for ci in range(c):
            for z in range(d // 2):
                for y in range(h // 2):
                    for xx in range(w // 2):
                        best = -np.inf
                        for dz in range(2):
                            for dy in range(2):
                                for dx in range(2):
                                    val = x[ci, 2 * z + dz, 2 * y + dy, 2 * xx + dx, v]
                                    if val > best:
                                        best = val
                        out[ci, z, y, xx, v] = best
    return out


def maxpool3d_backward_loops(x, d_output):
    """Nested-loop pool gradient: each window's gradient goes to its first voxel,
    in (dz, dy, dx) order, that holds the window's max."""
    c, d, h, w, n_views = x.shape
    d_x = np.zeros_like(x)
    for v in range(n_views):
        for ci in range(c):
            for z in range(d // 2):
                for y in range(h // 2):
                    for xx in range(w // 2):
                        best, at = -np.inf, None
                        for dz in range(2):
                            for dy in range(2):
                                for dx in range(2):
                                    val = x[ci, 2 * z + dz, 2 * y + dy, 2 * xx + dx, v]
                                    if val > best:
                                        best, at = val, (ci, 2 * z + dz, 2 * y + dy, 2 * xx + dx, v)
                        d_x[at] = d_output[ci, z, y, xx, v]
    return d_x


def conv3d_flat_grid(x, w, b):
    """Same-padded 3D correlation of each view on one whole flat padded grid, in one pass.

    The reference for the bytes of ``numcore.conv3d_forward``, which computes
    only kept voxels, slab by slab, with every view side by side: on the
    encoder's shapes it must give each view exactly this. Column row
    (c,dy,dx) is flat padded channel c shifted left by dy*Wp + dx, and output
    column q sums w[:, :, dz] times the column window at q + dz*Hp*Wp, one
    GEMM per dz in dz order; columns whose taps wrap into the next row or
    plane are cropped off.
    """
    return np.stack([_conv3d_flat_grid_one(x[..., v], w, b) for v in range(x.shape[-1])], axis=-1)


def _conv3d_flat_grid_one(x, w, b):
    c_out, c_in, k, _, _ = w.shape
    _, d, h, wd = x.shape
    p = k // 2
    dp, hp, wp = d + 2 * p, h + 2 * p, wd + 2 * p
    n = dp * hp * wp
    flat = np.zeros((c_in, n + (k - 1) * (wp + 1)))
    flat[:, :n].reshape(c_in, dp, hp, wp)[:, p:p + d, p:p + h, p:p + wd] = x
    cols = np.empty((c_in, k, k, n))
    for dy in range(k):
        for dx in range(k):
            shift = dy * wp + dx
            cols[:, dy, dx] = flat[:, shift:shift + n]
    cols = cols.reshape(c_in * k * k, n)
    plane = hp * wp
    span = d * plane
    out = w[:, :, 0].reshape(c_out, -1) @ cols[:, :span]
    for dz in range(1, k):
        out += w[:, :, dz].reshape(c_out, -1) @ cols[:, dz * plane:dz * plane + span]
    return out.reshape(c_out, d, hp, wp)[:, :, :h, :wd] + b[:, None, None, None]


def conv3d_weight_grad_taps(x, d_output, k):
    """Weight gradient of a same-padded 3D correlation, one tap at a time.

    d_w[:, :, dz, dy, dx] sums d_output times the zero-padded input shifted by
    the tap, over every output voxel of every view in one einsum: no slab, no
    column matrix.
    """
    c_in, d, h, wd, n_views = x.shape
    p = k // 2
    xp = np.zeros((c_in, d + 2 * p, h + 2 * p, wd + 2 * p, n_views))
    xp[:, p:p + d, p:p + h, p:p + wd] = x
    d_w = np.empty((d_output.shape[0], c_in, k, k, k))
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                tap = xp[:, dz:dz + d, dy:dy + h, dx:dx + wd]
                d_w[:, :, dz, dy, dx] = np.einsum("ozyxv,czyxv->oc", d_output, tap)
    return d_w


def encoder_pre_activations(params, cache):
    """Each conv's pre-relu output by name, recomputed from its cached input, and
    h's pre-activation rows from one-row dense calls, view by view."""
    conv_pre = {name: nc.conv3d_forward(x, params[f"{name}.w"], params[f"{name}.b"])
                for name, x in cache["inputs"] if name is not None}
    flat = cache["flat"]
    h_pre = np.concatenate([nc.dense_forward(flat[v:v + 1], params["head_h.w"], params["head_h.b"])
                            for v in range(len(flat))])
    return conv_pre, h_pre


def encoder_backward_from_pre(params, cache, d_z):
    """The encoder backward that reads each relu mask from the pre-activation.

    Not a loop oracle: it runs the same ``numcore`` layers as
    ``encoder.backward`` and differs only in feeding ``relu_backward`` the
    recomputed pre-activations where ``encoder.backward`` feeds it the cached
    relu outputs, so the two must agree byte for byte. The heads run view by
    view on one-row slices, and their gradients add in view order, so the
    batched head rows of ``encoder.backward`` are checked against one-row calls.
    """
    conv_pre, h_pre = encoder_pre_activations(params, cache)
    grads = {}
    d_flat = np.empty_like(cache["flat"])
    for v in range(len(d_z)):
        row = slice(v, v + 1)
        view = {}
        d_zpre = nc.l2_normalize_backward(cache["z_pre"][row], np.asarray(d_z[row], dtype=np.float64))
        d_h, view["head_z.w"], view["head_z.b"] = nc.dense_backward(cache["h"][row], params["head_z.w"], d_zpre)
        d_hpre = nc.relu_backward(h_pre[row], d_h)
        d_flat[row], view["head_h.w"], view["head_h.b"] = nc.dense_backward(
            cache["flat"][row], params["head_h.w"], d_hpre)
        for name, g in view.items():
            grads[name] = grads[name] + g if v else g
    d_x = d_flat.T.reshape(cache["pooled_shape"])
    for i, (name, x) in reversed(list(enumerate(cache["inputs"]))):
        if name is None:
            d_x = nc.maxpool3d_backward(x, d_x)
        else:
            d_x, grads[f"{name}.w"], grads[f"{name}.b"] = nc.conv3d_backward(
                x, params[f"{name}.w"], nc.relu_backward(conv_pre[name], d_x), need_dx=i > 0)
    return grads


def extract_patch_loops(vol_zyx, center, s):
    """Gather a centered cube voxel by voxel; out-of-bounds -> 0; scaled 1/255."""
    nz, ny, nx = vol_zyx.shape
    cx, cy, cz = center
    patch = np.zeros((s, s, s))
    half = s // 2
    for iz in range(s):
        for iy in range(s):
            for ix in range(s):
                x, y, z = cx + ix - half, cy + iy - half, cz + iz - half
                if 0 <= x < nx and 0 <= y < ny and 0 <= z < nz:
                    patch[iz, iy, ix] = vol_zyx[z, y, x] / 255.0
    return patch


def grad_close(analytic, numeric, rel_tol, abs_floor=1e-9):
    """Per spec tolerance: |a-n| <= max(rel_tol * max(|a|,|n|), abs_floor)."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    err = np.abs(a - n)
    bound = np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(n)), abs_floor)
    return bool(np.all(err <= bound))


def central_diff(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def ntxent_loops(z, pairing, tau):
    """Naive double-loop NT-Xent value (no log-sum-exp stabilization)."""
    n2 = z.shape[0]
    total = 0.0
    for i in range(n2):
        num = np.exp(np.dot(z[i], z[pairing[i]]) / tau)
        den = 0.0
        for k in range(n2):
            if k != i:
                den += np.exp(np.dot(z[i], z[k]) / tau)
        total += -np.log(num / den)
    return total / n2


def nmi_loops(a, b):
    """Contingency-table NMI with arithmetic-mean normalization, natural logs."""
    a = list(a)
    b = list(b)
    n = len(a)
    from collections import Counter

    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))
    mi = 0.0
    for (va, vb), nij in cab.items():
        pij = nij / n
        mi += pij * np.log(pij / ((ca[va] / n) * (cb[vb] / n)))
    ha = -sum((c / n) * np.log(c / n) for c in ca.values())
    hb = -sum((c / n) * np.log(c / n) for c in cb.values())
    denom = (ha + hb) / 2
    if denom == 0.0 or mi <= 0.0:
        return 0.0
    return mi / denom


def ari_pair_loops(a, b):
    """ARI via explicit pair counting over all C(n,2) pairs."""
    n = len(a)
    ss = sd = ds = dd = 0  # same/diff in a x same/diff in b
    for i in range(n):
        for j in range(i + 1, n):
            sa, sb = a[i] == a[j], b[i] == b[j]
            if sa and sb:
                ss += 1
            elif sa:
                sd += 1
            elif sb:
                ds += 1
            else:
                dd += 1
    denom = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if denom == 0:
        return 1.0
    return 2.0 * (ss * dd - sd * ds) / denom


def eligible_supervoxels_lists(dataset, cfg):
    """Every supervoxel's candidate pairs as a fully built list, by the definition."""
    by_sv = {}
    for rec in dataset.synapses:
        by_sv.setdefault(rec.supervoxel_id, []).append(rec)
    voxel_size = dataset.intensity.header.voxel_size_nm
    out = {}
    for sv in sorted(by_sv):
        recs = by_sv[sv]
        if cfg.pair_mode == "augment_same":
            out[sv] = [(r, r) for r in recs]
            continue
        pairs = []
        for i, a in enumerate(recs):
            for b in recs[i + 1:]:
                dist = np.sqrt(sum(((pa - pb) * s) ** 2 for pa, pb, s in zip(a.pos, b.pos, voxel_size)))
                if cfg.max_pair_dist_nm is None or dist <= cfg.max_pair_dist_nm:
                    pairs.append((a, b))
        if pairs:
            out[sv] = pairs
    return out


def _cosine_loops(u, v):
    # sqrt of the product keeps cos(u, u) == 1 exactly
    denom = max(float(np.sqrt((u @ u) * (v @ v))), 1e-300)
    return float(u @ v) / denom


def concordance_loops(emb, synapses, sample=10_000, seed=0):
    """Intra/inter mean cosine, one pair at a time in row-major order."""
    by_id = {rec.id: rec.supervoxel_id for rec in synapses}
    sv = np.array([by_id[i] for i in emb.synapse_ids])
    x = emb.values
    m = x.shape[0]
    intra_vals = []
    for label in np.unique(sv):
        rows = np.nonzero(sv == label)[0]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                intra_vals.append(_cosine_loops(x[rows[i]], x[rows[j]]))
    if not intra_vals:
        raise AnalysisError("no supervoxel has two embedded synapses; intra undefined")
    cross_total = m * (m - 1) // 2 - len(intra_vals)
    if cross_total == 0:
        raise AnalysisError("no cross-supervoxel pairs; inter undefined")
    inter_vals = []
    if cross_total <= sample:
        for i in range(m):
            for j in range(i + 1, m):
                if sv[i] != sv[j]:
                    inter_vals.append(_cosine_loops(x[i], x[j]))
    else:
        rng = np.random.default_rng(seed)
        while len(inter_vals) < sample:
            i, j = rng.integers(m, size=2)
            if i != j and sv[i] != sv[j]:
                inter_vals.append(_cosine_loops(x[i], x[j]))
    return float(np.mean(intra_vals)), float(np.mean(inter_vals))


def place_sites_loops(lo, hi, margin, n_sites, min_sep, rng, sv_label):
    """Rejection-sample sites, testing each candidate against the accepted ones one by one."""
    los = [l + margin for l in lo]
    his = [h - margin for h in hi]  # exclusive
    if any(a >= b for a, b in zip(los, his)):
        raise GenerationError(
            f"supervoxel {sv_label}: cell {lo}..{hi} too small for morphology margin {margin}"
        )
    min_sep2 = min_sep * min_sep
    for _ in range(PLACEMENT_RESTARTS):
        sites = []
        attempts = 0
        while len(sites) < n_sites and attempts < PLACEMENT_ATTEMPTS_PER_SITE * n_sites:
            attempts += 1
            cand = tuple(int(rng.integers(a, b)) for a, b in zip(los, his))
            if all(sum((c - s) ** 2 for c, s in zip(cand, st)) >= min_sep2 for st in sites):
                sites.append(cand)
        if len(sites) == n_sites:
            return sites
    raise GenerationError(
        f"supervoxel {sv_label}: placement infeasible after "
        f"{PLACEMENT_RESTARTS}x{PLACEMENT_ATTEMPTS_PER_SITE * n_sites} rejection-sampling attempts"
    )


def render_site_loops(canvas, center, params, bar_axis):
    """Paint one site's rim, bar and core intensities onto a float canvas, clipped
    at the volume's edges."""
    nz, ny, nx = canvas.shape
    cx, cy, cz = center
    r = params.blob_radius_vox
    shell = r + params.rim_thickness_vox
    box = int(math.ceil(params.extent_vox)) + 1
    x0, x1 = max(cx - box, 0), min(cx + box + 1, nx)
    y0, y1 = max(cy - box, 0), min(cy + box + 1, ny)
    z0, z1 = max(cz - box, 0), min(cz + box + 1, nz)
    dz, dy, dx = np.ogrid[z0 - cz:z1 - cz, y0 - cy:y1 - cy, x0 - cx:x1 - cx]
    d2 = dx * dx + dy * dy + dz * dz
    sub = canvas[z0:z1, y0:y1, x0:x1]
    sub[(d2 > r * r) & (d2 <= shell * shell)] = params.rim_intensity
    along = (dx, dy, dz)[bar_axis]
    perp2 = d2 - along * along
    bar = (np.abs(along) <= params.bar_half_length_vox) & (
        perp2 <= sg.BAR_PERP_RADIUS_VOX * sg.BAR_PERP_RADIUS_VOX
    )
    sub[np.broadcast_to(bar, sub.shape)] = sg.BAR_INTENSITY
    sub[d2 <= r * r] = params.core_intensity


def generate_voxels_loops(cfg, reverse=False):
    """The phantom's voxels from a float canvas painted site by site, with the
    noise of the whole volume added at once, then clipped, rounded and cast.

    The rng is drawn in generate's order. reverse=True paints the sites last to
    first, so a test can show that a config's sites overlap.
    """
    rng = np.random.default_rng(cfg.seed)
    nx, ny, nz = cfg.dims
    gx, gy, gz = sg.grid_shape(cfg.n_supervoxels, cfg.dims)
    cuts = [sg._jittered_cuts(n, g, rng).tolist() for n, g in ((nx, gx), (ny, gy), (nz, gz))]
    classes = np.array([1 + (i % cfg.n_classes) for i in range(cfg.n_supervoxels)])
    rng.shuffle(classes)
    painted = []
    for iz in range(gz):
        for iy in range(gy):
            for ix in range(gx):
                label = 1 + ix + gx * (iy + gy * iz)
                lo = (cuts[0][ix], cuts[1][iy], cuts[2][iz])
                hi = (cuts[0][ix + 1], cuts[1][iy + 1], cuts[2][iz + 1])
                params = cfg.class_params[classes[label - 1] - 1]
                margin = int(math.ceil(params.extent_vox)) + 1
                for site in place_sites_loops(lo, hi, margin, cfg.synapses_per_supervoxel,
                                              2.0 * cfg.max_blob_radius, rng, label):
                    painted.append((site, params, int(rng.integers(3))))
    canvas = np.full((nz, ny, nx), float(cfg.background_intensity))
    for site, params, bar_axis in (painted[::-1] if reverse else painted):
        render_site_loops(canvas, site, params, bar_axis)
    if cfg.noise_sigma > 0:
        canvas = canvas + rng.normal(0.0, cfg.noise_sigma, size=canvas.shape)
    return np.rint(np.clip(canvas, 0.0, 255.0)).astype(np.uint8)
