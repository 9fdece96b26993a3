"""1-cell search with the nudged-elastic-band method.

A band is an ordered node sequence with pinned endpoints at two density
maxima.  Interior nodes move under three forces: the density gradient
projected perpendicular to the band tangent, a spring term equalizing
adjacent edge lengths, and an angle-gated smoothing term that relaxes kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .density import DensityField, _require_positive, _resolve_c
from .errors import ConstructionError, DegenerateTangentError, InvalidInputError
from .maxima import ZeroCell, _single_linkage_from_dists

_HAIRPIN_EPS = 1e-12


@dataclass(frozen=True)
class Band:
    """Ordered nodes v_1..v_N; v_1 and v_N are fixed endpoints."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] < 3:
            raise InvalidInputError("band needs at least 3 nodes of equal dimension")
        object.__setattr__(self, "nodes", nodes)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class NebParams:
    node_count: int = 11
    alpha: float = math.pi / 6
    beta: float = math.pi / 2
    gradient_constant: float | None = None  # None -> sigma * (sigma*sqrt(2pi))^n * sqrt(e)
    step_size: float = 0.01
    convergence_tolerance: float = 1e-4
    max_steps: int = 200_000
    discard_radius: float = 0.5
    cluster_threshold: float = 0.3
    trials_per_pair: int = 20
    sphere_mode: bool = False

    def __post_init__(self):
        if not (0 <= self.alpha < self.beta <= math.pi):
            raise InvalidInputError("need 0 <= alpha < beta <= pi")
        if self.node_count < 3:
            raise InvalidInputError("node_count must be >= 3")
        _require_positive(step_size=self.step_size,
                          convergence_tolerance=self.convergence_tolerance,
                          discard_radius=self.discard_radius,
                          cluster_threshold=self.cluster_threshold,
                          gradient_constant=self.gradient_constant)
        if self.trials_per_pair < 1 or self.max_steps < 0:
            raise InvalidInputError("need trials_per_pair >= 1 and max_steps >= 0")


@dataclass(frozen=True)
class OneCell:
    """Convergent band between two 0-cells; density is min f over its nodes."""

    band: Band
    density: float
    endpoint_indices: tuple[int, int]


def tangent(band: Band, i: int) -> np.ndarray:
    """Averaged unit tangent (u+ + u-)/||u+ + u-|| at interior node i (0-based)."""
    v = band.nodes
    if not 0 < i < band.node_count - 1:
        raise InvalidInputError("tangent is defined at interior nodes only")
    s = (v[i + 1] - v[i]) + (v[i] - v[i - 1])
    norm = np.linalg.norm(s)
    if norm <= _HAIRPIN_EPS:
        raise DegenerateTangentError(f"hairpin at node {i}")
    return s / norm


def smoothing_weight(theta: float, alpha: float, beta: float) -> float:
    """Gate in [0,1]: 0 below alpha, 1 above beta, raised-cosine ramp between."""
    if theta <= alpha:
        return 0.0
    if theta >= beta:
        return 1.0
    return (1.0 - math.cos(math.pi * (theta - alpha) / (beta - alpha))) / 2.0


def _interior_forces(
    field: DensityField, nodes: np.ndarray, params: NebParams, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Forces on all interior nodes of one (N, n) band or a (B, N, n) stack.

    Returns (forces, hairpin_mask) shaped like the interior nodes and their
    first axes; the density gradient of every band comes from one batched
    call.  Hairpin nodes fall back to the forward difference tangent and are
    flagged so the caller can track persistence.
    """
    edges = np.diff(nodes, axis=-2)
    edge_norm = np.sqrt(np.einsum("...in,...in->...i", edges, edges))
    up, um = edges[..., 1:, :], edges[..., :-1, :]
    up_norm, um_norm = edge_norm[..., 1:], edge_norm[..., :-1]
    s = up + um
    s_norm = np.sqrt(np.einsum("...in,...in->...i", s, s))
    hairpin = s_norm <= _HAIRPIN_EPS
    tau = s / np.maximum(s_norm, _HAIRPIN_EPS)[..., None]
    if hairpin.any():
        tau[hairpin] = up[hairpin] / np.maximum(up_norm[hairpin], _HAIRPIN_EPS)[:, None]

    interior = nodes[..., 1:-1, :]
    grad = field.gradient_batch(interior.reshape(-1, nodes.shape[-1]))
    grad = grad.reshape(interior.shape)
    grad_perp = grad - np.einsum("...in,...in->...i", grad, tau)[..., None] * tau
    spring = (up_norm - um_norm)[..., None] * tau

    denom = np.maximum(up_norm * um_norm, _HAIRPIN_EPS)
    cos_theta = np.clip(np.einsum("...in,...in->...i", up, um) / denom, -1.0, 1.0)
    # raised-cosine gate: 0 up to alpha, 1 from beta on
    phase = np.clip(np.pi * (np.arccos(cos_theta) - params.alpha)
                    / (params.beta - params.alpha), 0.0, np.pi)
    h = (1.0 - np.cos(phase)) / 2.0
    smooth = h[..., None] * (up - um)

    return c * grad_perp + spring + smooth, hairpin


def total_force(field: DensityField, band: Band, params: NebParams, i: int) -> np.ndarray:
    """Total force at interior node i (0-based); raises on a hairpin tangent."""
    tangent(band, i)  # raise DegenerateTangentError before computing anything
    c = _resolve_c(field, params)
    forces, _ = _interior_forces(field, band.nodes, params, c)
    return forces[i - 1]


def _evolve_bands(field: DensityField, bands: list[Band],
                  params: NebParams) -> list[Band | None]:
    """Evolve equal-shaped bands side by side, as ``evolve`` does each alone.

    Every step makes one force evaluation over the bands still active.  A
    band leaves the active set when it converges or fails; each keeps its
    own hairpin count.
    """
    if not bands:
        return []
    c = _resolve_c(field, params)
    out: list[Band | None] = [None] * len(bands)
    # the active bands as one contiguous stack, with their indices into bands
    nodes = np.stack([b.nodes for b in bands])
    ids = np.arange(len(bands))
    hairpin_steps = np.zeros(len(bands), dtype=int)
    for step in range(params.max_steps + 1):
        forces, hairpin = _interior_forces(field, nodes, params, c)
        hairpin_steps += hairpin.any(axis=1)
        mean_norm = np.sqrt(np.einsum("bin,bin->bi", forces, forces)).mean(axis=1)
        done = mean_norm < params.convergence_tolerance
        for k in np.flatnonzero(done):
            if hairpin_steps[k] <= 0.01 * (step + 1):
                out[ids[k]] = Band(nodes[k].copy())  # endpoints were never written
        if step == params.max_steps:
            break
        nodes[:, 1:-1] += params.step_size * forces
        keep = ~done & np.isfinite(nodes).all(axis=(1, 2))
        if not keep.all():
            nodes, ids, hairpin_steps = nodes[keep], ids[keep], hairpin_steps[keep]
            if not len(ids):
                break
    return out


def evolve(field: DensityField, band: Band, params: NebParams) -> Band | None:
    """Fixed-step first-order integration of v_i' = F_i on interior nodes.

    Returns the band at the first step where the mean interior force norm
    drops below the convergence tolerance (checked before stepping), or None
    on max_steps exhaustion, non-finite coordinates, or persistent hairpins
    (flagged on more than 1% of steps).
    """
    return _evolve_bands(field, [band], params)[0]


def _unit_orthogonal(direction: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector orthogonal to direction (rotation invariance of the normal law)."""
    d = direction / np.linalg.norm(direction)
    for _ in range(100):
        y = rng.standard_normal(d.shape[0])
        y -= (y @ d) * d
        norm = np.linalg.norm(y)
        if norm > 1e-12:
            return y / norm
    raise ConstructionError("failed to sample an orthogonal direction")


def _arc_nodes(origin: np.ndarray, center2d: np.ndarray, basis: np.ndarray,
               radius: float, phi_start: float, sweep: float, count: int) -> np.ndarray:
    """count points evenly spaced in angle along a circular arc.

    The arc lives in the 2-plane through origin spanned by the basis rows;
    center2d is the circle center in plane coordinates.
    """
    phis = phi_start + sweep * np.linspace(0.0, 1.0, count)
    circ = np.stack([radius * np.cos(phis), radius * np.sin(phis)], axis=1)
    return origin[None, :] + (center2d[None, :] + circ) @ basis


def _straight_band(p: np.ndarray, q: np.ndarray, count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)[:, None]
    return (1.0 - t) * p[None, :] + t * q[None, :]


def initial_band_general(
    p: np.ndarray, q: np.ndarray, node_count: int, rng: np.random.Generator
) -> Band:
    """Evenly spaced nodes along a random circular arc from p to q.

    The arc passes through (p + q + r*y)/2 with y a uniform unit vector
    orthogonal to p - q and r uniform in [0, d(p, q)].  Degenerates to the
    straight segment when r = 0 or in dimension 1.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidInputError("endpoint dimensions differ")
    d = np.linalg.norm(q - p)
    if d == 0:
        raise InvalidInputError("endpoints coincide")
    if p.shape[0] == 1:
        return Band(_straight_band(p, q, node_count))
    y = _unit_orthogonal(q - p, rng)
    r = rng.uniform(0.0, d)
    return arc_band(p, q, y, r, node_count)


def arc_band(p: np.ndarray, q: np.ndarray, y: np.ndarray, r: float,
             node_count: int) -> Band:
    """Band along the circular arc through p, (p + q + r*y)/2 and q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.linalg.norm(q - p)
    if r < 1e-12 * d:
        return Band(_straight_band(p, q, node_count))

    # Plane coordinates: e1 along q - p, e2 = y; p at the origin.
    e1 = (q - p) / d
    basis = np.stack([e1, y])
    # Circle through (0,0), (d,0) and the bow point (d/2, r/2).
    k = (r * r - d * d) / (4.0 * r)
    center2 = np.array([d / 2.0, k])
    radius = math.hypot(d / 2.0, k)
    phi_p = math.atan2(-k, -d / 2.0)
    phi_q = math.atan2(-k, d / 2.0)
    phi_m = math.pi / 2.0
    sweep_ccw = (phi_q - phi_p) % (2.0 * math.pi)
    on_ccw = (phi_m - phi_p) % (2.0 * math.pi) <= sweep_ccw
    sweep = sweep_ccw if on_ccw else sweep_ccw - 2.0 * math.pi

    nodes = _arc_nodes(p, center2, basis, radius, phi_p, sweep, node_count)
    nodes[0] = p
    nodes[-1] = q
    return Band(nodes)


def _circumcircle(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Center, radius and orthonormal plane basis of the circle through a, b, c."""
    u1 = b - a
    u2 = c - a
    f1 = u1 / np.linalg.norm(u1)
    g = u2 - (u2 @ f1) * f1
    g_norm = np.linalg.norm(g)
    if g_norm < 1e-12:
        raise ConstructionError("defining points are collinear")
    f2 = g / g_norm
    # 2D coordinates relative to a
    bx = float(u1 @ f1)
    cx, cy = float(u2 @ f1), float(u2 @ f2)
    # Circumcenter of (0,0), (bx,0), (cx,cy)
    ux = bx / 2.0
    uy = (cx * cx + cy * cy - cx * bx) / (2.0 * cy)
    radius = math.hypot(ux, uy)
    basis = np.stack([f1, f2])
    center = a + ux * f1 + uy * f2
    return center, radius, basis


def initial_band_sphere(
    p: np.ndarray, q: np.ndarray, node_count: int, rng: np.random.Generator
) -> Band:
    """Initial band near the unit sphere for normalized data.

    Unit nodes are evenly spaced along the circle through p/||p||, q/||q|| and
    a random unit vector y, on the arc avoiding y; node i is then scaled by
    the linear interpolation of ||p|| and ||q||.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    if np_ == 0 or nq == 0:
        raise InvalidInputError("endpoints must be nonzero")
    ph, qh = p / np_, q / nq
    if abs(float(ph @ qh)) > 1.0 - 1e-12:
        raise ConstructionError("endpoint directions are parallel; plane is degenerate")

    for _ in range(100):
        y = rng.standard_normal(p.shape[0])
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            continue
        y /= norm
        if min(np.linalg.norm(y - ph), np.linalg.norm(y - qh)) < 1e-9:
            continue
        try:
            return sphere_arc_band(p, q, y, node_count)
        except ConstructionError:
            continue
    raise ConstructionError("failed to sample a non-degenerate sphere direction")


def sphere_arc_band(p: np.ndarray, q: np.ndarray, y: np.ndarray,
                    node_count: int) -> Band:
    """Band along the sphere circle through p/||p||, q/||q|| and unit y.

    Unit nodes take the arc from p-hat to q-hat avoiding y; node norms
    interpolate ||p|| and ||q|| linearly.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    ph, qh = p / np_, q / nq
    center, radius, basis = _circumcircle(ph, qh, y)
    rel = np.stack([ph, qh, y]) - center[None, :]
    coords = rel @ basis.T
    phi_p, phi_q, phi_y = (math.atan2(cy, cx) for cx, cy in coords)
    sweep_ccw = (phi_q - phi_p) % (2.0 * math.pi)
    y_on_ccw = (phi_y - phi_p) % (2.0 * math.pi) <= sweep_ccw
    sweep = sweep_ccw - 2.0 * math.pi if y_on_ccw else sweep_ccw

    units = _arc_nodes(center, np.zeros(2), basis, radius, phi_p, sweep, node_count)
    i = np.arange(1, node_count + 1)
    scale = ((node_count - i) * np_ + (i - 1) * nq) / (node_count - 1)
    nodes = scale[:, None] * units
    nodes[0] = p
    nodes[-1] = q
    return Band(nodes)


def band_distance(b1: Band, b2: Band) -> float:
    """Mean Euclidean distance over interior node pairs of two comparable bands."""
    if b1.node_count != b2.node_count:
        raise InvalidInputError("bands have different node counts")
    if not (np.array_equal(b1.nodes[0], b2.nodes[0])
            and np.array_equal(b1.nodes[-1], b2.nodes[-1])):
        raise InvalidInputError("bands have different endpoints")
    return float(np.linalg.norm(b1.nodes[1:-1] - b2.nodes[1:-1], axis=1).mean())


def band_density(field: DensityField, band: Band) -> float:
    return float(field.value_batch(band.nodes).min())


def find_one_cells(
    field: DensityField,
    zero_cells: list[ZeroCell],
    params: NebParams,
    rng: np.random.Generator,
) -> list[OneCell]:
    """Evolve trial bands between every 0-cell pair and keep one per cluster.

    Convergent bands passing within discard_radius of a third 0-cell are
    dropped; survivors are single-linkage clustered under the band metric and
    the densest band of each cluster becomes a 1-cell.  Deterministic given
    the rng state.
    """
    positions = np.array([z.position for z in zero_cells])
    initial_band = initial_band_sphere if params.sphere_mode else initial_band_general
    cells: list[OneCell] = []

    pairs = list(combinations(range(len(zero_cells)), 2))
    # every pair's trial bands, drawn in pair order and evolved together
    initial = [initial_band(positions[a], positions[b], params.node_count, r)
               for a, b in pairs for r in rng.spawn(params.trials_per_pair)]
    evolved = _evolve_bands(field, initial, params)

    for k, (a, b) in enumerate(pairs):
        others = np.delete(positions, [a, b], axis=0)
        trials = evolved[k * params.trials_per_pair:(k + 1) * params.trials_per_pair]
        survivors = []
        for band in trials:
            if band is None:
                continue
            if len(others) > 0:
                diff = band.nodes[:, None, :] - others[None, :, :]
                if np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).min() <= params.discard_radius:
                    continue
            survivors.append(band)
        if not survivors:
            continue

        m = len(survivors)
        dists = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                dists[i, j] = dists[j, i] = band_distance(survivors[i], survivors[j])
        for cluster in _single_linkage_from_dists(dists, params.cluster_threshold):
            densities = [band_density(field, survivors[i]) for i in cluster]
            best = cluster[int(np.argmax(densities))]
            cells.append(OneCell(band=survivors[best],
                                 density=float(max(densities)),
                                 endpoint_indices=(a, b)))

    cells.sort(key=lambda c: (-c.density, c.endpoint_indices))
    return cells
