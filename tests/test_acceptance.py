"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line summarizing the
check (visible with -v as the test outcome, and in captured output on
failure) and asserts the criterion at its stated tolerance and runtime
budget.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage

from morsecells import (KernelDensity, MorseFiltration, NebParams,
                        PipelineConfig, PointCloud, betti, dct_basis, evolve,
                        find_zero_cells, gradient_constant, initial_sheet,
                        loop_persistence, mds_embed, preprocess_patches, relax_sheet, run,
                        sliding_window, superlevel_complex,
                        synth_bumpy_circle, synth_gaussian_mixture,
                        write_point_cloud)
from morsecells.band import arc_band, band_density
from morsecells.cli import main as cli_main
from morsecells.ingestion import PatchConfig
from morsecells.sheet import INTERIOR, _wiring

from conftest import ConstantField, grid_search_mode
from test_cwcomplex import (b1_from_intervals, dense_gf2_b1, edge, face,
                            random_filtration, vert)
from test_density import mp_kde_value, numeric_max_gradient_norm


def report(number, ok, detail=""):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. KDE exactness against an extended-precision oracle

def test_criterion_01_kde_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    pts = rng.normal(size=(50, 3))
    field = KernelDensity(PointCloud(pts), 0.35)
    worst = 0.0
    for _ in range(20):
        y = rng.normal(size=3)
        expected = mp_kde_value(pts, 0.35, y)
        worst = max(worst, abs(field.value(y) - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"max relative error {worst:.3g}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Analytic gradient vs central differences

def test_criterion_02_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        sigma = float(rng.uniform(0.4, 1.2))
        field = KernelDensity(PointCloud(rng.normal(size=(12, 3))), sigma)
        y = rng.normal(size=3)
        h = 1e-5 * sigma
        fd = np.array([
            (field.value(y + h * e) - field.value(y - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        err = np.linalg.norm(field.gradient(y) - fd) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-6 and elapsed < 1.0,
           f"max relative error {worst:.3g}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Gradient constant vs numeric maximization

def test_criterion_03_gradient_constant():
    start = time.perf_counter()
    worst = 0.0
    details = []
    for n in (1, 2, 3):
        for sigma in (0.5, 1.0, 2.0):
            formula = gradient_constant(n, sigma)
            numeric = 1.0 / numeric_max_gradient_norm(n, sigma)
            rel = abs(formula - numeric) / numeric
            worst = max(worst, rel)
            if rel > 1e-6:
                details.append(f"(n={n}, sigma={sigma}): rel {rel:.3g}")
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-6 and elapsed < 5.0,
           f"max relative error {worst:.3g}, {elapsed:.2f}s"
           + ("; mismatches " + "; ".join(details) if details else ""))


# ---------------------------------------------------------------------------
# 4. Mean-shift modes of a two-Gaussian cloud

def test_criterion_04_mean_shift_modes():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    centers = np.array([[0.0, 0.0], [6.0, 0.0]])  # 6 sigma apart at sigma 1
    cloud = PointCloud(centers[rng.integers(0, 2, size=200)]
                       + rng.standard_normal((200, 2)))
    field = KernelDensity(cloud, 1.0)
    cells = find_zero_cells(field, np.random.default_rng(7))
    ok = len(cells) == 2
    worst = float("inf")
    if ok:
        modes = [grid_search_mode(field, c, 1.5) for c in centers]
        worst = max(min(np.linalg.norm(cell.position - m) for m in modes)
                    for cell in cells)
        ok = worst <= 1e-2
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 10.0,
           f"{len(cells)} zero cells, max mode distance {worst:.3g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. NEB band through the two-Gaussian saddle

def test_criterion_05_neb_saddle():
    start = time.perf_counter()
    field = KernelDensity(PointCloud([[-2.0, 0.0], [2.0, 0.0]]), 1.0)
    p, q = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    band = evolve(field, arc_band(p, q, np.array([0.0, 1.0]), 2.0, 11))
    ok = band is not None
    off_axis = float("inf")
    density_err = float("inf")
    if ok:
        off_axis = float(np.abs(band.nodes[:, 1]).max())
        saddle = field.value(np.array([0.0, 0.0]))
        density_err = abs(band_density(field, band) - saddle)
        ok = off_axis <= 1e-2 and density_err <= 1e-3
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 30.0,
           f"off-axis {off_axis:.3g}, density error {density_err:.3g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6 & 7 share the end-to-end bumpy-circle filtration

@pytest.fixture(scope="module")
def bumpy_run():
    cloud = synth_bumpy_circle(3, 2.0, 1000, np.random.default_rng(3),
                               angular_spread=0.45)
    config = PipelineConfig(sigma=0.8, seed=3, neb=NebParams(trials_per_pair=6))
    start = time.perf_counter()
    filtration, rep = run(cloud, config)
    elapsed = time.perf_counter() - start
    return cloud, config, filtration, rep, elapsed


def grid_betti(density_grid, threshold):
    """(b0, b1) of the superlevel set of a sampled density on a square grid.

    b0 counts 8-connected foreground components; b1 counts 4-connected
    background components that do not touch the border (bounded holes).
    """
    fg = density_grid >= threshold
    _, b0 = scipy.ndimage.label(fg, structure=np.ones((3, 3), dtype=int))
    bg_labels, n_bg = scipy.ndimage.label(~fg)
    border = np.unique(np.concatenate([
        bg_labels[0], bg_labels[-1], bg_labels[:, 0], bg_labels[:, -1]]))
    holes = set(range(1, n_bg + 1)) - set(border.tolist())
    return int(b0), len(holes)


def sweep_thresholds(densities, count=10):
    """Midpoints of the gaps between change densities, widest gaps subdivided
    until ``count`` thresholds exist."""
    bounds = sorted(set(densities))
    intervals = [(0.0, bounds[0])]
    intervals += [(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    while len(intervals) < count:
        lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
        intervals.remove((lo, hi))
        mid = (lo + hi) / 2
        intervals += [(lo, mid), (mid, hi)]
    return sorted((lo + hi) / 2 for lo, hi in intervals[:count])


def test_criterion_06_end_to_end_skeleton(bumpy_run):
    cloud, config, filtration, rep, run_seconds = bumpy_run
    start = time.perf_counter()
    counts_ok = (rep.counts["zero_cells"] == 3 and rep.counts["one_cells"] == 3)
    ones = [c for c in filtration.cells if c.dimension == 1]
    cycle_ok = sorted(tuple(sorted(c.boundary)) for c in ones) == [
        (0, 1), (0, 2), (1, 2)]

    # fine-grid connectivity oracle on the same kernel density
    field = KernelDensity(cloud, config.sigma)
    extent, res = 4.8, 481
    xs = np.linspace(-extent, extent, res)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = np.concatenate([field.value_batch(chunk)
                           for chunk in np.array_split(mesh, 32)])
    density_grid = vals.reshape(res, res)

    thresholds = sweep_thresholds([c.density for c in filtration.cells])
    mismatches = []
    for a in thresholds:
        model = betti(superlevel_complex(filtration, a))
        oracle = grid_betti(density_grid, a)
        if model != oracle:
            mismatches.append((round(a, 6), model, oracle))
    elapsed = run_seconds + time.perf_counter() - start
    report(6, counts_ok and cycle_ok and not mismatches and elapsed < 120.0,
           f"counts {rep.counts}, Betti sweep mismatches {mismatches}, "
           f"{elapsed:.0f}s")


def test_criterion_07_filtration_laws(bumpy_run):
    _, _, filtration, _, _ = bumpy_run
    problems = []
    by_id = {c.id: c for c in filtration.cells}

    # density cascade / closure
    for cell in filtration.cells:
        for fid in cell.boundary:
            face_cell = by_id.get(fid)
            if face_cell is None or face_cell.dimension != cell.dimension - 1:
                problems.append(f"closure broken at cell {cell.id}")
            elif cell.density > face_cell.density:
                problems.append(f"cascade broken at cell {cell.id}")

    # nesting + per-threshold closure + Euler identity
    thresholds = sweep_thresholds([c.density for c in filtration.cells])
    prev_ids = None
    for a in sorted(thresholds, reverse=True):
        sub = superlevel_complex(filtration, a)
        ids = {c.id for c in sub}
        if prev_ids is not None and not prev_ids <= ids:
            problems.append(f"nesting broken at threshold {a:.4g}")
        prev_ids = ids
        v = sum(1 for c in sub if c.dimension == 0)
        e = sum(1 for c in sub if c.dimension == 1)
        f = sum(1 for c in sub if c.dimension == 2)
        b0, b1 = betti(sub)
        if b0 - b1 != v - e + f:
            problems.append(f"Euler identity broken at threshold {a:.4g}")
    report(7, not problems, "; ".join(problems) or
           f"laws hold at {len(thresholds)} thresholds")


# ---------------------------------------------------------------------------
# 8. Homology fixtures

def test_criterion_08_homology_fixtures():
    start = time.perf_counter()
    circle = [vert(0), vert(1), edge(2, 0, 1), edge(3, 0, 1)]
    disk = circle + [face(4, (2, 3))]
    three = [vert(i) for i in range(4)] + [
        edge(4, 0, 1), edge(5, 0, 1), edge(6, 1, 2), edge(7, 1, 2),
        edge(8, 2, 3), edge(9, 2, 3), edge(10, 3, 0), edge(11, 3, 0)]
    results = (betti(circle), betti(disk), betti(three))
    elapsed = time.perf_counter() - start
    report(8, results == ((1, 1), (1, 0), (1, 5)) and elapsed < 1.0,
           f"circle/disk/three-circle -> {results}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. Loop persistence with a rank-sweep oracle

def test_criterion_09_loop_persistence():
    a_dens, b_dens = 0.8, 0.3
    square = [vert(0, 1.0), vert(1, 1.0),
              edge(2, 0, 1, 0.95), edge(3, 0, 1, a_dens),
              face(4, (2, 3), b_dens)]
    intervals = loop_persistence(MorseFiltration.build(square))
    square_ok = (len(intervals) == 1
                 and intervals[0] == pytest.approx((a_dens, b_dens,
                                                    a_dens - b_dens)))

    rng = np.random.default_rng(109)
    mismatches = 0
    for _ in range(20):
        filt = random_filtration(rng)
        ivs = loop_persistence(filt)
        for t in sorted({c.density for c in filt.cells} | {0.0}):
            expected = dense_gf2_b1(superlevel_complex(filt, t))
            if b1_from_intervals(ivs, t) != expected:
                mismatches += 1
    report(9, square_ok and mismatches == 0,
           f"square interval {intervals}, rank-sweep mismatches {mismatches}")


# ---------------------------------------------------------------------------
# 10. Sheet harmonic equilibrium

def test_criterion_10_sheet_equilibrium():
    theta = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    loop2 = np.stack([np.cos(theta), np.sin(theta)], axis=1)

    sheet = initial_sheet(loop2)
    out = relax_sheet(ConstantField(2), sheet)
    ok = out is not None
    residual = float("inf")
    if ok:
        adj = [[] for _ in out.positions]
        for a, b in _wiring().edges.tolist():
            adj[a].append(b)
            adj[b].append(a)
        residual = float(np.mean([
            np.linalg.norm((out.positions[adj[i]] - out.positions[i]).sum(axis=0))
            for i in range(INTERIOR.stop)
        ]))
        ok = residual < 1e-3

    loop3 = np.hstack([loop2, np.zeros((40, 1))])
    sheet3 = initial_sheet(loop3)
    out3 = relax_sheet(ConstantField(3), sheet3)
    planar = float("inf")
    if out3 is not None:
        planar = float(np.abs(out3.positions[:, 2]).max())
    ok = ok and out3 is not None and planar <= 1e-9
    report(10, ok, f"mean residual force {residual:.3g}, "
                   f"out-of-plane drift {planar:.3g}")


# ---------------------------------------------------------------------------
# 11. Patch preprocessing

def test_criterion_11_preprocessing():
    problems = []
    for side, expected in ((3, 8), (5, 24)):
        basis = dct_basis(side)
        if basis.shape != (expected, side * side):
            problems.append(f"side {side}: {basis.shape}")
        from morsecells.ingestion import _grid_laplacian
        lap = _grid_laplacian(side)
        gram = basis @ lap @ basis.T
        off = float(np.abs(gram - np.eye(expected)).max())
        if off > 1e-10:
            problems.append(f"side {side}: D-orthonormality off by {off:.3g}")

    rng = np.random.default_rng(111)
    raster = np.exp(rng.normal(size=(30, 30)))
    cloud = preprocess_patches([raster], PatchConfig(side=3, sample_size=500),
                               rng)
    norms = np.linalg.norm(cloud.points, axis=1)
    if np.abs(norms - 1.0).max() > 1e-10:
        problems.append("outputs not unit norm")
    basis3 = dct_basis(3)
    means = cloud.points @ basis3 @ np.ones(9)  # mean of the pixel patch
    if np.abs(means).max() > 1e-8:
        problems.append("patch means not removed")

    # a raster holding exactly one scaled basis patch maps to +-e_k
    k = 3
    patch = (5.0 * basis3[k]).reshape(3, 3, order="F")
    tiny = np.exp(patch)
    coords = preprocess_patches(
        [tiny], PatchConfig(side=3, contrast_quantile=1.0, sample_size=4),
        np.random.default_rng(0)).points
    target = np.zeros(8)
    target[k] = 1.0
    if not all(np.allclose(np.abs(row), target, atol=1e-10) for row in coords):
        problems.append(f"basis patch mapped to {coords[0]}")
    report(11, not problems, "; ".join(problems) or
           "D-orthonormal bases, unit-norm zero-mean outputs, "
           "basis patch -> coordinate vector")


# ---------------------------------------------------------------------------
# 12. Sliding window dimensions

def test_criterion_12_sliding_window():
    series = np.arange(6 * 47, dtype=float).reshape(6, 47)
    cloud = sliding_window(series, 5)
    report(12, cloud.points.shape == (43, 30),
           f"shape {cloud.points.shape}")


# ---------------------------------------------------------------------------
# 13. MDS fixtures

def test_criterion_13_mds():
    problems = []

    tri = np.ones((3, 3)) - np.eye(3)
    out = mds_embed(tri, 2)
    if out.stress >= 1e-6:
        problems.append(f"triangle stress {out.stress:.3g}")
    hist = np.array(out.stress_history)
    if not (np.diff(hist) <= 1e-12 * np.maximum(hist[:-1], 1e-300)).all():
        problems.append("triangle stress not monotone")

    line = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    out = mds_embed(line, 2)
    if out.stress >= 1e-6:
        problems.append(f"collinear stress {out.stress:.3g}")
    hist = np.array(out.stress_history)
    if not (np.diff(hist) <= 1e-12 * np.maximum(hist[:-1], 1e-300)).all():
        problems.append("collinear stress not monotone")
    report(13, not problems, "; ".join(problems) or "both fixtures < 1e-6, monotone")


# ---------------------------------------------------------------------------
# 14. Byte-identical documents across runs and worker counts

def test_criterion_14_determinism(tmp_path):
    cloud = synth_gaussian_mixture([[0.0, 0.0], [5.0, 0.0]], 1.0, [1.0, 1.0],
                                   200, np.random.default_rng(14))
    src = str(tmp_path / "cloud.csv")
    write_point_cloud(cloud, src)
    cfg = tmp_path / "run.conf"
    cfg.write_text("sigma = 1.0\nseed = 14\nneb.trials_per_pair = 4\n")

    documents = []
    for tag, threads in (("r1", "1"), ("r2", "1"), ("w2", "2"), ("w8", "8")):
        out = str(tmp_path / f"{tag}.json")
        code = cli_main(["analyze", src, out, "--config", str(cfg),
                        "--threads", threads])
        assert code == 0
        documents.append(Path(out).read_bytes())
    identical = all(d == documents[0] for d in documents)
    cell_count = len(json.loads(documents[0])["cells"])
    report(14, identical,
           f"{len(documents)} documents, {cell_count} cells, "
           f"byte-identical={identical}")
