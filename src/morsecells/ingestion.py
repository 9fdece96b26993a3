"""Getting data into point-cloud form.

Covers CSV point-cloud I/O, graph shortest-path distances and their
stress-majorization embedding, image/flow patch preprocessing into DCT
coordinates on the unit sphere, sliding-window embedding of time series, and
synthetic cloud generators.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cwcomplex import components, laplacian
from .density import PointCloud
from .errors import DataError, InvalidInputError, ParseError

FLOAT_FMT = "%.17g"  # exact round trip for doubles
# mds_embed stops when the stress falls by less than this fraction in a step,
# or after this many Guttman transforms
MDS_TOLERANCE = 1e-12
MDS_MAX_ITERATIONS = 10_000


# ---------------------------------------------------------------------------
# Point-cloud CSV

def read_point_cloud(path: str) -> PointCloud:
    """One point per row, comma-separated decimal coordinates."""
    rows: list[list[float]] = []
    arity = None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if arity is None:
                    arity = len(fields)
                elif len(fields) != arity:
                    raise ParseError(
                        f"expected {arity} fields, found {len(fields)}", line=lineno
                    )
                try:
                    rows.append([float(f) for f in fields])
                except ValueError as exc:
                    raise ParseError(str(exc), line=lineno) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode as text ({exc})") from None
    if not rows:
        raise ParseError(f"{path}: no points found")
    return PointCloud(np.array(rows))


def write_point_cloud(cloud: PointCloud, path: str) -> None:
    with open(path, "w") as fh:
        for row in cloud.points:
            fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")


# ---------------------------------------------------------------------------
# Graphs

@dataclass(frozen=True)
class UnweightedGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise DataError(f"graph needs at least one vertex, got {self.vertex_count}")
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise DataError(f"self-loop at vertex {a}")
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise DataError(f"edge ({a}, {b}) out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise DataError(f"duplicate edge ({a}, {b})")
            seen.add(key)


def read_graph(path: str) -> UnweightedGraph:
    """First line "V E", then E lines "i j" with 0-based vertex indices."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty graph file")
    try:
        v, e = (int(x) for x in lines[0].split())
    except ValueError:
        raise ParseError("header must be 'V E'", line=1) from None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            a, b = (int(x) for x in line.split())
        except ValueError:
            raise ParseError("edge line must be 'i j'", line=lineno) from None
        edges.append((a, b))
    if len(edges) != e:
        raise ParseError(f"header promises {e} edges, found {len(edges)}")
    return UnweightedGraph(vertex_count=v, edges=tuple(edges))


def shortest_path_distances(graph: UnweightedGraph) -> np.ndarray:
    """All-pairs hop counts via BFS; errors on disconnected graphs."""
    n = graph.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)

    dist = np.full((n, n), -1, dtype=float)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[src, w] < 0:
                    dist[src, w] = dist[src, u] + 1
                    queue.append(w)
    if (dist < 0).any():
        sizes = [len(c) for c in components(dist >= 0)]
        raise DataError(f"graph is disconnected; component sizes {sorted(sizes)}")
    return dist


# ---------------------------------------------------------------------------
# Stress-majorization MDS

@dataclass(frozen=True)
class MdsResult:
    cloud: PointCloud
    stress: float
    stress_history: tuple[float, ...]


def mds_embed(distances: np.ndarray, target_dim: int) -> MdsResult:
    """Embed a distance matrix by iterated Guttman transforms.

    Starts from classical scaling: the top ``target_dim`` eigenvectors of
    -1/2 J D^2 J (D squared entrywise, J the centring matrix), scaled by the
    square roots of their eigenvalues (negative ones clipped to zero, zero
    columns past the number of points).  Stops when the relative stress
    decrease falls below ``MDS_TOLERANCE`` or after ``MDS_MAX_ITERATIONS``
    transforms.  Raw stress is non-increasing across iterations; a transform
    that raises it by round-off is dropped.
    """
    delta = np.asarray(distances, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1] or delta.size == 0:
        raise InvalidInputError("distance matrix must be square and non-empty")
    if not np.isfinite(delta).all():
        raise InvalidInputError("distances must be finite")
    if not np.allclose(delta, delta.T):
        raise InvalidInputError("distance matrix must be symmetric")
    if (delta < 0).any() or not np.allclose(np.diag(delta), 0):
        raise InvalidInputError("distances must be nonnegative with zero diagonal")
    if target_dim < 1:
        raise InvalidInputError("target_dim must be >= 1")

    m = delta.shape[0]
    centring = np.eye(m) - 1.0 / m
    values, vectors = np.linalg.eigh(-0.5 * centring @ delta ** 2 @ centring)
    values, vectors = values[::-1][:target_dim], vectors[:, ::-1][:, :target_dim]
    points = np.zeros((m, target_dim))
    points[:, :values.size] = vectors * np.sqrt(np.clip(values, 0.0, None))
    history: list[float] = []
    previous = points
    for iteration in range(MDS_MAX_ITERATIONS + 1):
        # one distance matrix gives the raw stress and the next transform
        diff = points[:, None, :] - points[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        stress = float(np.triu((d - delta) ** 2, k=1).sum())
        if history and stress > history[-1]:
            # only round-off lets a transform raise the stress: keep the one before
            points = previous
            break
        history.append(stress)
        if iteration == MDS_MAX_ITERATIONS or (
                iteration and history[-2] - stress <= MDS_TOLERANCE * history[-2]):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d > 0, delta / np.where(d > 0, d, 1.0), 0.0)
        b = -ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        previous, points = points, b @ points / m
    return MdsResult(cloud=PointCloud(points), stress=history[-1],
                     stress_history=tuple(history))


# ---------------------------------------------------------------------------
# Patch preprocessing

def _grid_edges(side: int) -> np.ndarray:
    """(E, 2) adjacent pixel pairs of the side x side grid under 4-adjacency,
    pixels indexed column-major to match patch vectorization."""
    idx = np.arange(side * side).reshape(side, side)  # [c, r] -> c * side + r
    down = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    right = np.stack([idx[:-1].ravel(), idx[1:].ravel()], axis=1)
    return np.vstack([down, right])


def _grid_laplacian(side: int) -> np.ndarray:
    """Graph Laplacian of the side x side grid; the D-inner product of
    patches is <x, y>_D = x^T L y."""
    return laplacian(side * side, _grid_edges(side))


# Mode orderings (row frequency, column frequency), skipping the constant mode.
# Side 3 follows the linear/linear/quadratic/quadratic labeling of the
# patch-statistics literature; side 5 is row-major so the vertical linear
# gradient lands at index 5 (1-based).
_MODE_ORDER = {
    3: [(0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
    5: [(p, q) for p in range(5) for q in range(5) if (p, q) != (0, 0)],
}


def dct_basis(side: int) -> np.ndarray:
    """Non-constant DCT modes of the side x side grid, D-orthonormalized.

    Returns (side^2 - 1, side^2); rows are basis vectors with contrast norm
    one.  e_1 is the horizontal linear gradient; the vertical linear gradient
    is e_2 for side 3 and e_5 for side 5.
    """
    if side not in _MODE_ORDER:
        raise InvalidInputError(f"unsupported patch side {side}; use 3 or 5")
    lap = _grid_laplacian(side)
    basis = []
    i = np.arange(side)
    for p, q in _MODE_ORDER[side]:
        rows = np.cos(math.pi * p * (2 * i + 1) / (2 * side))
        cols = np.cos(math.pi * q * (2 * i + 1) / (2 * side))
        patch = np.outer(rows, cols)          # [r, c]
        vec = patch.flatten(order="F")        # column-major pixel indexing
        vec = vec / math.sqrt(vec @ lap @ vec)
        basis.append(vec)
    return np.array(basis)


@dataclass(frozen=True)
class PatchConfig:
    side: int = 3
    modality: str = "optical"  # optical | range | flow
    contrast_quantile: float = 0.2  # keep the top fraction by contrast
    sample_size: int = 10_000

    def __post_init__(self):
        if self.modality not in ("optical", "range", "flow"):
            raise InvalidInputError(f"unknown modality {self.modality!r}")
        if not 0 < self.contrast_quantile <= 1:
            raise InvalidInputError("contrast_quantile must be in (0, 1]")
        if self.side not in _MODE_ORDER:
            raise InvalidInputError(f"unsupported patch side {self.side}; use 3 or 5")
        if self.sample_size < 1:
            raise InvalidInputError("sample_size must be >= 1")


def _sample_patches(rasters: list[np.ndarray], side: int, count: int,
                    rng: np.random.Generator, depth: tuple = ()) -> np.ndarray:
    """(count, side, side, *depth) patch stack from random positions.

    Each raster is (H, W, *depth): one image, or channels sampled together.
    """
    usable = [np.asarray(r, dtype=float) for r in rasters]
    for k, r in enumerate(usable):
        if (r.ndim != 2 + len(depth) or r.shape[2:] != depth
                or r.shape[0] < side or r.shape[1] < side):
            raise DataError(f"raster {k} is too small for {side}x{side} patches")
    picks = rng.integers(0, len(usable), size=count)
    out = np.empty((count, side, side) + depth)
    for t, k in enumerate(picks):
        r = usable[k]
        i = rng.integers(0, r.shape[0] - side + 1)
        j = rng.integers(0, r.shape[1] - side + 1)
        out[t] = r[i:i + side, j:j + side]
    return out


def preprocess_patches(rasters, config: PatchConfig,
                       rng: np.random.Generator) -> PointCloud:
    """Random patches -> high-contrast, normalized points on the unit sphere.

    An image is a one-channel stack and a flow (u, v) raster pair a
    two-channel one.  Optical and range patches are log-transformed; the
    contrast norm is joint over the channels, and each channel is centred and
    projected on its own.  Output coordinates are D-inner products against
    the D-orthonormal DCT basis, so every point has Euclidean norm one.
    """
    side = config.side
    lap = _grid_laplacian(side)
    basis = dct_basis(side)

    if config.modality == "flow":
        stacks = []
        for k, (u, v) in enumerate(rasters):
            u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
            if u.shape != v.shape:
                raise DataError(f"flow raster pair {k} has mismatched shapes")
            stacks.append(np.stack([u, v], axis=-1))
    else:
        stacks = [np.asarray(r, dtype=float)[..., None] for r in rasters]
    channels = 2 if config.modality == "flow" else 1
    patches = _sample_patches(stacks, side, config.sample_size, rng, depth=(channels,))
    # (channel, patch, pixel), each channel of each patch flattened column-major
    x = patches.transpose(3, 0, 2, 1).reshape(channels, -1, side * side)
    if config.modality != "flow":
        if (x <= 0).any():
            bad = int(np.flatnonzero((x <= 0).any(axis=(0, 2)))[0])
            raise DataError(
                f"nonpositive values under log transform (sampled patch {bad})"
            )
        x = np.log(x)
    # joint contrast: sum over adjacent pixels of the squared channel
    # differences, taken as differences so that a constant patch reads 0
    a, b = _grid_edges(side).T
    diff = x[:, :, a] - x[:, :, b]
    contrast = np.sqrt(np.einsum("cte,cte->t", diff, diff))
    keep = _top_quantile(contrast, config.contrast_quantile)
    x, contrast = x[:, keep], contrast[keep]
    x = (x - x.mean(axis=2, keepdims=True)) / contrast[:, None]
    return PointCloud(np.hstack([xc @ lap @ basis.T for xc in x]))


def _top_quantile(contrast: np.ndarray, fraction: float) -> np.ndarray:
    positive = contrast > 0  # constant patches are excluded outright
    if not positive.any():
        raise DataError("every sampled patch has zero contrast")
    threshold = np.quantile(contrast[positive], 1.0 - fraction) if fraction < 1 else 0.0
    return np.flatnonzero(positive & (contrast >= threshold))


# ---------------------------------------------------------------------------
# Time series

def sliding_window(series: np.ndarray, window: int) -> PointCloud:
    """Stack ``window`` consecutive columns of a (variables, time) matrix.

    T time points yield T - window + 1 points in R^(variables * window).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise InvalidInputError("series must be a (variables, time) matrix")
    if not np.all(np.isfinite(series)):
        raise InvalidInputError("series contains non-finite entries")
    g, t = series.shape
    if window < 1 or window > t:
        raise InvalidInputError(f"window must be in [1, {t}]")
    points = np.array([
        series[:, s:s + window].flatten(order="F") for s in range(t - window + 1)
    ])
    return PointCloud(points)


# ---------------------------------------------------------------------------
# Synthetic clouds

def synth_gaussian_mixture(centers, scales, weights, count: int,
                           rng: np.random.Generator) -> PointCloud:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    k = centers.shape[0]
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (k,))
    if not (scales >= 0).all():
        raise InvalidInputError("scales must be >= 0")
    weights = np.asarray(weights, dtype=float) if weights is not None else np.ones(k)
    if weights.shape != (k,) or (weights < 0).any() or weights.sum() <= 0:
        raise InvalidInputError("weights must be nonnegative with positive sum")
    if count < 1:
        raise InvalidInputError("need count >= 1")
    probs = weights / weights.sum()
    picks = rng.choice(k, size=count, p=probs)
    noise = rng.standard_normal((count, centers.shape[1]))
    return PointCloud(centers[picks] + scales[picks][:, None] * noise)


def synth_noisy_circle(radius: float, noise: float, count: int,
                       rng: np.random.Generator) -> PointCloud:
    if count < 1 or radius <= 0 or noise < 0:
        raise InvalidInputError("need count >= 1, radius > 0 and noise >= 0")
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    pts = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if noise > 0:
        pts += noise * rng.standard_normal((count, 2))
    return PointCloud(pts)


def synth_bumpy_circle(bumps: int, radius: float, count: int,
                       rng: np.random.Generator,
                       angular_spread: float = 0.45,
                       radial_noise: float = 0.0) -> PointCloud:
    """Circle-supported cloud with ``bumps`` equally spaced angular modes."""
    if bumps < 1 or count < 1 or radius <= 0 or angular_spread <= 0 or radial_noise < 0:
        raise InvalidInputError("need bumps >= 1, count >= 1, radius > 0, "
                                "angular_spread > 0 and radial_noise >= 0")
    centers = 2.0 * math.pi * np.arange(bumps) / bumps
    picks = rng.integers(0, bumps, size=count)
    angles = centers[picks] + angular_spread * rng.standard_normal(count)
    radii = radius + (radial_noise * rng.standard_normal(count) if radial_noise else 0.0)
    return PointCloud(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))
