"""Independent oracle for the benchmark's outputs; shares no code with morsecells.

- a plain NumPy Gaussian KDE, at scattered points and on a square grid;
- density modes by grid search, refined on finer local grids;
- Betti numbers of grid superlevel sets by ``scipy.ndimage`` labelling;
- the filtration laws of acceptance criterion 07, on plain cell records.

Every cloud here is planar.  The R^8 workload's cloud spans a 2-plane P; on P
its density is (2 pi s^2)^(-(n-2)/2) times the density of the planar cloud,
and the R^n superlevel set {f >= a} deformation-retracts onto its slice in P
(the kernel factors into a planar part and a part that decays off P).  So the
planar grid answers for R^n once thresholds are scaled by ``plane_scale``.
"""

from __future__ import annotations

import math

import numpy as np

GRID_STEPS_PER_SIGMA = 40   # criterion 06 samples at sigma / 40
GRID_MARGIN_SIGMAS = 4.0


def kde_at(points: np.ndarray, sigma: float, queries: np.ndarray) -> np.ndarray:
    """Mean of Gaussian kernels over ``points`` at each query row, in R^n."""
    points = np.asarray(points, dtype=float)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    n = points.shape[1]
    norm = (2.0 * math.pi * sigma * sigma) ** (-n / 2.0)
    out = np.empty(len(queries))
    for start in range(0, len(queries), 256):
        chunk = queries[start:start + 256]
        sq = ((chunk[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        out[start:start + 256] = norm * np.exp(-sq / (2.0 * sigma * sigma)).mean(axis=1)
    return out


def plane_scale(n: int, sigma: float) -> float:
    """Factor taking an R^n density level to the planar level with the same topology."""
    return (2.0 * math.pi * sigma * sigma) ** ((n - 2) / 2.0)


class OracleError(Exception):
    """The oracle cannot answer for this input; the benchmark is at fault."""


class Grid:
    """The planar KDE sampled on a square grid around the cloud."""

    def __init__(self, points: np.ndarray, sigma: float):
        self.points = np.asarray(points, dtype=float)
        self.sigma = sigma
        self.step = sigma / GRID_STEPS_PER_SIGMA
        lo = self.points.min(axis=0) - GRID_MARGIN_SIGMAS * sigma
        hi = self.points.max(axis=0) + GRID_MARGIN_SIGMAS * sigma
        self.xs = np.arange(lo[0], hi[0] + self.step, self.step)
        self.ys = np.arange(lo[1], hi[1] + self.step, self.step)
        # The 2-D kernel is a product of 1-D kernels, so the whole grid is one
        # matrix product of per-axis kernel tables.
        two_s2 = 2.0 * sigma * sigma
        kx = np.exp(-(self.xs[:, None] - self.points[None, :, 0]) ** 2 / two_s2)
        ky = np.exp(-(self.ys[:, None] - self.points[None, :, 1]) ** 2 / two_s2)
        self.values = (kx @ ky.T) / (len(self.points) * math.pi * two_s2)

    def node(self, i: int, j: int) -> np.ndarray:
        return np.array([self.xs[i], self.ys[j]])

    def betti(self, level: float) -> tuple[int, int]:
        """(b0, b1) of {f >= level}: 8-connected components, 4-connected holes."""
        import scipy.ndimage  # here, so that the timed rounds run without scipy loaded
        fg = self.values >= level
        if fg[0].any() or fg[-1].any() or fg[:, 0].any() or fg[:, -1].any():
            raise OracleError(f"superlevel set at {level:.6g} reaches the grid border")
        _, b0 = scipy.ndimage.label(fg, structure=np.ones((3, 3), dtype=int))
        bg, n_bg = scipy.ndimage.label(~fg)
        border = set(np.concatenate([bg[0], bg[-1], bg[:, 0], bg[:, -1]]).tolist())
        return int(b0), len(set(range(1, n_bg + 1)) - border)

    def modes(self, resolution: float = 1e-4, floor: float = 1e-3) -> np.ndarray:
        """Local maxima of the grid above ``floor`` x the peak, refined to ``resolution``."""
        v = self.values
        padded = np.pad(v, 1, constant_values=-np.inf)
        is_max = v >= floor * v.max()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    is_max &= v >= padded[1 + di:1 + di + v.shape[0],
                                          1 + dj:1 + dj + v.shape[1]]
        found: list[np.ndarray] = []
        for i, j in zip(*np.nonzero(is_max)):
            mode = self._refine(self.node(i, j), resolution)
            if all(np.linalg.norm(mode - m) > 2 * self.step for m in found):
                found.append(mode)
        return np.array(found)

    def _refine(self, center: np.ndarray, resolution: float, points: int = 21) -> np.ndarray:
        width = self.step
        while True:
            axis = np.linspace(-width, width, points)
            mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            cand = center + mesh
            center = cand[int(np.argmax(kde_at(self.points, self.sigma, cand)))]
            step = 2 * width / (points - 1)
            if step <= resolution:
                return center
            width = 2 * step


def self_check(grid: Grid) -> list[str]:
    """Problems found by checking the KDE against closed forms; empty when sound."""
    problems = []
    sigma = grid.sigma
    rng = np.random.default_rng(0)
    for n in (2, 8):
        center = rng.standard_normal(n)
        queries = center + rng.standard_normal((5, n)) * sigma
        r2 = ((queries - center) ** 2).sum(axis=1)
        exact = (2 * math.pi * sigma ** 2) ** (-n / 2) * np.exp(-r2 / (2 * sigma ** 2))
        err = np.abs(kde_at(center[None, :], sigma, queries) / exact - 1).max()
        if err > 1e-13:
            problems.append(f"one-point KDE in R^{n} off the closed form by {err:.3g}")
    one = Grid(np.zeros((1, 2)), sigma)
    xx, yy = np.meshgrid(one.xs, one.ys, indexing="ij")
    exact = np.exp(-(xx ** 2 + yy ** 2) / (2 * sigma ** 2)) / (2 * math.pi * sigma ** 2)
    err = np.abs(one.values - exact).max() / exact.max()
    if err > 1e-13:
        problems.append(f"one-point grid KDE off the closed form by {err:.3g}")
    idx = rng.integers(0, [len(grid.xs), len(grid.ys)], size=(20, 2))
    nodes = np.array([grid.node(i, j) for i, j in idx])
    direct = kde_at(grid.points, sigma, nodes)
    err = np.abs(grid.values[idx[:, 0], idx[:, 1]] - direct).max() / grid.values.max()
    if err > 1e-12:
        problems.append(f"grid KDE off the direct sum by {err:.3g}")
    return problems


def sweep_thresholds(densities, count: int = 10) -> list[float]:
    """Midpoints of the gaps between cell densities (and 0), the widest gaps
    halved until ``count`` thresholds exist, as in criterion 06."""
    bounds = sorted(set(densities))
    intervals = [(0.0, bounds[0])] + list(zip(bounds, bounds[1:]))
    while len(intervals) < count:
        lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
        intervals.remove((lo, hi))
        mid = (lo + hi) / 2
        intervals += [(lo, mid), (mid, hi)]
    return sorted((lo + hi) / 2 for lo, hi in intervals[:count])


def filtration_problems(cells: list[dict], betti_at: dict) -> list[str]:
    """Criterion 07 on cell records {id, dim, density, boundary}.

    Closure and the density cascade over all cells; nesting of the superlevel
    sets and b0 - b1 = V - E + F at each threshold of ``betti_at`` (threshold
    -> the program's (b0, b1)).
    """
    problems = []
    by_id = {c["id"]: c for c in cells}
    for c in cells:
        for fid in c["boundary"]:
            face = by_id.get(fid)
            if face is None or face["dim"] != c["dim"] - 1:
                problems.append(f"closure broken at cell {c['id']}")
            elif c["density"] > face["density"]:
                problems.append(f"cascade broken at cell {c['id']}")
    prev: set | None = None
    for a in sorted(betti_at, reverse=True):
        sub = [c for c in cells if c["density"] >= a]
        ids = {c["id"] for c in sub}
        if prev is not None and not prev <= ids:
            problems.append(f"nesting broken at {a:.6g}")
        prev = ids
        counts = [sum(1 for c in sub if c["dim"] == d) for d in (0, 1, 2)]
        b0, b1 = betti_at[a]
        if b0 - b1 != counts[0] - counts[1] + counts[2]:
            problems.append(f"Euler identity broken at {a:.6g}")
    return problems


def loop_count(cells: list[dict]) -> int:
    """Independent cycles of the 1-skeleton: E - V + components."""
    verts = [c["id"] for c in cells if c["dim"] == 0]
    parent = {v: v for v in verts}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    edges = [c for c in cells if c["dim"] == 1]
    for e in edges:
        a, b = (root(v) for v in e["boundary"])
        parent[a] = b
    components = len({root(v) for v in verts})
    return len(edges) - len(verts) + components
