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

from .cwcomplex import components, implicit_step_matrix, laplacian, relax
from .density import DensityField
from .errors import ConstructionError, DegenerateTangentError, InvalidInputError
from .maxima import ZeroCell

_HAIRPIN_EPS = 1e-12
# a band converges when its mean interior force norm falls below this; the
# force's gradient term c·∇f⊥ is unitless and at most 1
TOLERANCE = 1e-4
MAX_STEPS = 200_000  # force evaluations before a band gives up
NODE_COUNT = 11  # nodes of a trial band, endpoints included
# the smoothing gate turns on above ALPHA and is full above BETA
ALPHA, BETA = math.pi / 6, math.pi / 2


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
    trials_per_pair: int = 20

    def __post_init__(self):
        if self.trials_per_pair < 1:
            raise InvalidInputError("trials_per_pair must be >= 1")


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


def smoothing_weight(theta: np.ndarray | float) -> np.ndarray | float:
    """Gate in [0,1], elementwise: 0 below ALPHA, 1 above BETA, raised-cosine between."""
    phase = np.clip(np.pi * (theta - ALPHA) / (BETA - ALPHA), 0.0, np.pi)
    return (1.0 - np.cos(phase)) / 2.0


def _interior_forces(field: DensityField, nodes: np.ndarray) -> np.ndarray:
    """Forces on all interior nodes of one (N, n) band or a (B, N, n) stack,
    shaped like those interior nodes; the density gradient of every band
    comes from one batched call.

    At a fold, where u+ + u- is zero, the tangent is zero, so that node
    takes the whole gradient, no spring term and full smoothing, which
    straightens the fold.
    """
    edges = nodes[..., 1:, :] - nodes[..., :-1, :]
    edge_norm = np.sqrt(np.einsum("...in,...in->...i", edges, edges))
    up, um = edges[..., 1:, :], edges[..., :-1, :]
    up_norm, um_norm = edge_norm[..., 1:], edge_norm[..., :-1]
    s = up + um
    s_norm = np.sqrt(np.einsum("...in,...in->...i", s, s))
    tau = s / np.maximum(s_norm, _HAIRPIN_EPS)[..., None]

    interior = nodes[..., 1:-1, :]
    grad = field.gradient_batch(interior.reshape(-1, nodes.shape[-1])).reshape(interior.shape)
    # c·∇f⊥ + spring + smooth, summed in place in that order
    force = grad - np.einsum("...in,...in->...i", grad, tau)[..., None] * tau
    force *= field.c
    force += (up_norm - um_norm)[..., None] * tau
    cos_theta = np.einsum("...in,...in->...i", up, um)
    cos_theta /= np.maximum(up_norm * um_norm, _HAIRPIN_EPS)
    # the gate is exactly 0 where cos θ >= cos α + 1e-12: skipped if so at every node
    if not (cos_theta >= math.cos(ALPHA) + 1e-12).all():
        np.minimum(np.maximum(cos_theta, -1.0, out=cos_theta), 1.0, out=cos_theta)
        force += smoothing_weight(np.arccos(cos_theta))[..., None] * (up - um)
    return force


def total_force(field: DensityField, band: Band, i: int) -> np.ndarray:
    """Total force at interior node i (0-based): its row of the batched force
    over all interior nodes, so it equals the solver's force bitwise."""
    if not 0 < i < band.node_count - 1:
        raise InvalidInputError("forces are defined at interior nodes only")
    return _interior_forces(field, band.nodes)[i - 1]


def _evolve_bands(field: DensityField, bands: list[Band],
                  counts: dict | None = None) -> list[Band | None]:
    """Evolve equal-shaped bands side by side, each as ``evolve`` does it alone.

    The bands relax as one stack through ``cwcomplex.relax``, with the
    implicit step that ``implicit_step_matrix`` forms from the Laplacian of
    the path through their nodes, the endpoints fixed; a band fails if it
    runs out of steps or its nodes turn non-finite.  One step h serves the
    whole stack: ``field.step_below(top)`` for top the densest endpoint of
    the stack.  The step is bounded only where the bands stay at or below
    top; ``find_one_cells`` meets that, since its endpoints are all the
    0-cells.  A band therefore steps by the stack it is in:
    alone, or beside less dense endpoints, it may take a longer step.
    ``counts`` receives ``band_iterations`` (force evaluations of the
    stack), ``band_steps`` (bands times force evaluations) and
    ``band_final_force`` (the largest final mean force norm of a converged
    band).
    """
    counts = {} if counts is None else counts
    counts.update(band_steps=0, band_iterations=0, band_final_force=0.0)
    if not bands:
        return []
    nodes = np.stack([b.nodes for b in bands])
    n_nodes = nodes.shape[1]
    top = field.value_batch(nodes[:, [0, -1]].reshape(-1, nodes.shape[2])).max()
    path = laplacian(n_nodes, [(i, i + 1) for i in range(n_nodes - 1)])
    interior = slice(1, n_nodes - 1)
    out, iterations, steps, final_force = relax(
        nodes, implicit_step_matrix(path, interior, field.step_below(top)), interior,
        lambda stack: _interior_forces(field, stack), TOLERANCE, MAX_STEPS)
    counts.update(band_iterations=iterations, band_steps=steps,
                  band_final_force=final_force)
    return [None if x is None else Band(x) for x in out]


def evolve(field: DensityField, band: Band) -> Band | None:
    """Semi-implicit first-order integration of v_i' = F_i on interior nodes.

    The band relaxes through ``cwcomplex.relax`` to ``TOLERANCE`` within
    ``MAX_STEPS`` at step ``field.step_below`` at the denser endpoint, a
    bound only if the band stays at or below that density.  Returns the
    converged band, or None.
    """
    return _evolve_bands(field, [band])[0]


def _unit_orthogonal(direction: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector orthogonal to direction (rotation invariance of the normal law).

    The projected draw is zero with probability 0; a band from a non-finite
    one fails in ``relax``."""
    d = direction / np.linalg.norm(direction)
    y = rng.standard_normal(d.shape[0])
    y -= (y @ d) * d
    return y / np.linalg.norm(y)


def _straight_band(p: np.ndarray, q: np.ndarray, count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)[:, None]
    return (1.0 - t) * p[None, :] + t * q[None, :]


def initial_band_general(
    p: np.ndarray, q: np.ndarray, node_count: int, rng: np.random.Generator
) -> Band:
    """Evenly spaced nodes along a random circular arc from p to q.

    The arc passes through (p + q + r*y)/2 with y a uniform unit vector
    orthogonal to p - q and r uniform in [0, d(p, q)].  Degenerates to the
    straight segment when ``arc_band`` finds the bow flat or in dimension 1.
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
    """Band along the circular arc through p, (p + q + r*y)/2 and q; the
    straight segment where ``_circumcircle`` finds those points collinear."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    bow = (p + q + r * np.asarray(y, dtype=float)) / 2.0
    try:
        return Band(_arc(p, q, bow, node_count, through=True))
    except ConstructionError:
        return Band(_straight_band(p, q, node_count))


def _circumcircle(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Center, radius and orthonormal plane basis of the circle through a, b, c;
    ConstructionError when c is within 1e-12·|b - a| of the line through a, b."""
    u1 = b - a
    u2 = c - a
    length = np.linalg.norm(u1)
    f1 = u1 / length
    g = u2 - (u2 @ f1) * f1
    # a second pass: for c near the line ab, rounding skews g toward f1
    g -= (g @ f1) * f1
    g_norm = np.linalg.norm(g)
    if g_norm < 1e-12 * length:
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


def _arc(a: np.ndarray, b: np.ndarray, c: np.ndarray, count: int,
         through: bool) -> np.ndarray:
    """count points from a to b, evenly spaced in angle on the circle through
    a, b and c: on the arc through c, or avoiding it when not through.  The
    ends are exactly a and b."""
    center, radius, basis = _circumcircle(a, b, c)
    coords = (np.stack([a, b, c]) - center) @ basis.T
    phi_a, phi_b, phi_c = (math.atan2(cy, cx) for cx, cy in coords)
    sweep = (phi_b - phi_a) % (2.0 * math.pi)
    if ((phi_c - phi_a) % (2.0 * math.pi) <= sweep) != through:
        sweep -= 2.0 * math.pi
    phis = phi_a + sweep * np.linspace(0.0, 1.0, count)
    circ = np.stack([radius * np.cos(phis), radius * np.sin(phis)], axis=1)
    nodes = center + circ @ basis
    nodes[0], nodes[-1] = a, b
    return nodes


def initial_band_sphere(
    p: np.ndarray, q: np.ndarray, node_count: int, rng: np.random.Generator
) -> Band:
    """Initial band near the unit sphere for normalized data.

    Unit nodes are evenly spaced along the circle through p/||p||, q/||q|| and
    a random unit vector y, on the arc avoiding y; node i is then scaled by
    the linear interpolation of ||p|| and ||q||.  y is one normal draw made
    unit; a draw on p/||p|| or q/||q||, of probability 0, defines no circle
    and ``_circumcircle`` refuses it.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    if np_ == 0 or nq == 0:
        raise InvalidInputError("endpoints must be nonzero")
    ph, qh = p / np_, q / nq
    if abs(float(ph @ qh)) > 1.0 - 1e-12:
        raise ConstructionError("endpoint directions are parallel; plane is degenerate")
    y = rng.standard_normal(p.shape[0])
    return sphere_arc_band(p, q, y / np.linalg.norm(y), node_count)


def sphere_arc_band(p: np.ndarray, q: np.ndarray, y: np.ndarray,
                    node_count: int) -> Band:
    """Band along the sphere circle through p/||p||, q/||q|| and unit y.

    Unit nodes take the arc from p-hat to q-hat avoiding y; node norms
    interpolate ||p|| and ||q|| linearly.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    np_, nq = np.linalg.norm(p), np.linalg.norm(q)
    units = _arc(p / np_, q / nq, y, node_count, through=False)
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
    return float(_node_gaps(b1.nodes, b2.nodes))


def _node_gaps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean Euclidean distance over interior node pairs of (..., N, n) node
    arrays, broadcast over their leading axes."""
    return np.linalg.norm(x[..., 1:-1, :] - y[..., 1:-1, :], axis=-1).mean(axis=-1)


def band_density(field: DensityField, band: Band) -> float:
    return float(field.value_batch(band.nodes).min())


def _polyline_distance(nodes: np.ndarray, points: np.ndarray) -> float:
    """Least distance from the (K, n) points to the segments of an (N, n)
    polyline: each point projects onto each segment, clipped to its ends."""
    starts, edges = nodes[:-1], np.diff(nodes, axis=0)
    rel = points[:, None, :] - starts
    lengths2 = np.maximum(np.einsum("sn,sn->s", edges, edges), 1e-300)
    t = np.clip(np.einsum("ksn,sn->ks", rel, edges) / lengths2, 0.0, 1.0)
    gap = rel - t[..., None] * edges
    return float(np.sqrt(np.einsum("ksn,ksn->ks", gap, gap).min()))


def find_one_cells(
    field: DensityField,
    zero_cells: list[ZeroCell],
    params: NebParams,
    rng: np.random.Generator,
    sphere_mode: bool = False,
    counts: dict | None = None,
) -> list[OneCell]:
    """Evolve trial bands between every 0-cell pair and keep one per cluster.

    ``params.trials_per_pair`` trials of ``NODE_COUNT`` nodes per pair start
    on sphere arcs in sphere mode and on plane arcs otherwise, and all of
    them evolve as one stack.  Convergent bands whose polyline passes within
    ``field.resolution`` of a third 0-cell are dropped; survivors are
    single-linkage clustered at the same length under the band metric and
    the densest band of each cluster becomes a 1-cell.  Deterministic given
    the rng state.  ``counts`` receives the trial outcomes: ``band_trials``,
    ``band_converged``, ``band_failed`` (out of steps or non-finite),
    ``band_discarded`` (converged, but dropped near a third 0-cell),
    ``band_iterations``, ``band_steps`` and ``band_final_force``.  Every
    0-cell is an endpoint, so the band step is ``field.step_below`` at the
    densest 0-cell, a bound wherever the density is no higher than at its
    densest mode.
    """
    positions = np.array([z.position for z in zero_cells])
    initial_band = initial_band_sphere if sphere_mode else initial_band_general
    cells: list[OneCell] = []

    pairs = list(combinations(range(len(zero_cells)), 2))
    # every pair's trial bands, drawn in pair order and evolved together
    initial = [initial_band(positions[a], positions[b], NODE_COUNT, r)
               for a, b in pairs for r in rng.spawn(params.trials_per_pair)]
    counts = {} if counts is None else counts
    evolved = _evolve_bands(field, initial, counts)
    converged = sum(band is not None for band in evolved)
    counts.update(band_trials=len(initial), band_converged=converged,
                  band_failed=len(initial) - converged, band_discarded=0)

    for k, (a, b) in enumerate(pairs):
        others = np.delete(positions, [a, b], axis=0)
        trials = evolved[k * params.trials_per_pair:(k + 1) * params.trials_per_pair]
        converged = [band for band in trials if band is not None]
        kept = [band for band in converged if not len(others)
                or _polyline_distance(band.nodes, others) > field.resolution]
        counts["band_discarded"] += len(converged) - len(kept)
        if not kept:
            continue
        nodes = np.stack([band.nodes for band in kept])
        for cluster in components(_node_gaps(nodes[:, None], nodes[None]) <= field.resolution):
            densities = [band_density(field, kept[i]) for i in cluster]
            best = cluster[int(np.argmax(densities))]
            cells.append(OneCell(band=kept[best], density=float(max(densities)),
                                 endpoint_indices=(a, b)))

    cells.sort(key=lambda c: (-c.density, c.endpoint_indices))
    return cells
