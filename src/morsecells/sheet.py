"""2-cell search: web-graph sheets relaxed under gradient and spring forces.

A candidate 2-cell is a web-shaped graph spanning a closed boundary loop of
1-cell nodes.  Interior nodes feel the density gradient projected
perpendicular to a PCA-estimated tangent plane plus the sum of neighbor
differences, and relax under first-order dynamics until the mean interior
force norm is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityField, _require_positive, _resolve_c
from .errors import ConstructionError, InvalidInputError

TANGENT_DIM = 2  # 2-cells only; the general-k construction is not run


@dataclass(frozen=True)
class SheetParams:
    rings: int = 10
    nodes_per_ring: int = 20
    step_size: float = 0.01
    tolerance: float = 1e-3
    max_steps: int = 200_000
    gradient_constant: float | None = None

    def __post_init__(self):
        if self.rings < 1 or self.nodes_per_ring < 3:
            raise InvalidInputError("need rings >= 1 and nodes_per_ring >= 3")
        _require_positive(step_size=self.step_size, tolerance=self.tolerance,
                          gradient_constant=self.gradient_constant)
        if self.max_steps < 0:
            raise InvalidInputError("max_steps must be >= 0")


@dataclass(frozen=True)
class WebSheet:
    """Node positions plus fixed web wiring; boundary nodes never move."""

    positions: np.ndarray            # (V, n)
    edges: tuple[tuple[int, int], ...]
    boundary: np.ndarray             # (V,) bool, True = fixed
    rings: int
    nodes_per_ring: int

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "boundary", np.asarray(self.boundary, dtype=bool))

    def neighbor_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.positions.shape[0])]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def _resample_closed_polyline(loop: np.ndarray, count: int) -> np.ndarray:
    """count points evenly spaced by arc length along a closed polyline."""
    seg = np.diff(np.vstack([loop, loop[:1]]), axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    total = lengths.sum()
    if total <= 0:
        raise ConstructionError("boundary loop is degenerate (zero length)")
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    targets = np.linspace(0.0, total, count, endpoint=False)
    out = np.empty((count, loop.shape[1]))
    for k, t in enumerate(targets):
        i = min(np.searchsorted(cum, t, side="right") - 1, len(lengths) - 1)
        frac = (t - cum[i]) / lengths[i] if lengths[i] > 0 else 0.0
        out[k] = loop[i] + frac * seg[i]
    return out


def initial_sheet(boundary_loop: np.ndarray, rings: int = 10,
                  nodes_per_ring: int = 20) -> WebSheet:
    """Web over a closed boundary loop: concentric rings plus a center node.

    Node 0 is the center (average of the resampled boundary); ring j of
    ``rings`` sits at interpolation fraction j/rings between center and
    boundary.  Ring nodes join their two ring neighbors and the same-index
    node on adjacent rings; the center joins every innermost-ring node.
    Only the outermost ring is flagged as fixed boundary.
    """
    loop = np.asarray(boundary_loop, dtype=float)
    if loop.ndim != 2 or loop.shape[0] < 3:
        raise ConstructionError("boundary loop needs at least 3 points")
    if np.allclose(loop, loop[0]):
        raise ConstructionError("boundary loop is degenerate (all points coincide)")
    if np.array_equal(loop[0], loop[-1]):
        loop = loop[:-1]

    outer = _resample_closed_polyline(loop, nodes_per_ring)
    center = outer.mean(axis=0)

    npr = nodes_per_ring
    n_nodes = 1 + rings * npr
    positions = np.empty((n_nodes, loop.shape[1]))
    positions[0] = center
    for j in range(1, rings + 1):
        frac = j / rings
        positions[1 + (j - 1) * npr: 1 + j * npr] = center + frac * (outer - center)

    def node(j: int, k: int) -> int:  # ring j in 1..rings, slot k
        return 1 + (j - 1) * npr + (k % npr)

    edges = []
    for j in range(1, rings + 1):
        for k in range(npr):
            edges.append((node(j, k), node(j, k + 1)))
            if j < rings:
                edges.append((node(j, k), node(j + 1, k)))
    for k in range(npr):
        edges.append((0, node(1, k)))

    boundary = np.zeros(n_nodes, dtype=bool)
    boundary[1 + (rings - 1) * npr:] = True
    return WebSheet(positions=positions, edges=tuple(edges), boundary=boundary,
                    rings=rings, nodes_per_ring=npr)


def tangent_space(sheet: WebSheet, alpha: int, k: int = TANGENT_DIM
                  ) -> tuple[np.ndarray, bool]:
    """Top-k principal directions of the centered neighbor offsets at node alpha.

    Returns (basis, deficient); basis rows are orthonormal.  When the offsets
    have rank below k, the available directions are returned and the
    deficiency flag is set.
    """
    neighbors = sheet.neighbor_lists()[alpha]
    if len(neighbors) < k:
        raise InvalidInputError(f"node {alpha} has fewer than {k} neighbors")
    offsets = sheet.positions[neighbors] - sheet.positions[alpha]
    centered = offsets - offsets.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int((s > max(s[0], 1e-300) * 1e-10).sum()) if s.size else 0
    take = min(k, rank)
    return vt[:take], take < k


def sheet_force(field: DensityField, sheet: WebSheet, alpha: int,
                c: float) -> np.ndarray:
    """Perpendicular gradient force plus the neighbor-difference spring sum."""
    if sheet.boundary[alpha]:
        raise InvalidInputError("forces are defined at interior nodes only")
    basis, _ = tangent_space(sheet, alpha)
    g = field.gradient(sheet.positions[alpha])
    g_perp = g - basis.T @ (basis @ g)
    neighbors = sheet.neighbor_lists()[alpha]
    spring = (sheet.positions[neighbors] - sheet.positions[alpha]).sum(axis=0)
    return c * g_perp + spring


def _degree_groups(adj: list[list[int]], interior: np.ndarray
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Interior nodes grouped by degree for batched linear algebra.

    Each entry is (rows into the interior array, neighbor index matrix).
    """
    by_degree: dict[int, list[int]] = {}
    for row, alpha in enumerate(interior):
        by_degree.setdefault(len(adj[alpha]), []).append(row)
    groups = []
    for degree, rows in sorted(by_degree.items()):
        rows = np.array(rows)
        nbrs = np.array([adj[interior[r]] for r in rows])
        groups.append((rows, nbrs))
    return groups


def _interior_forces(field: DensityField, positions: np.ndarray,
                     interior: np.ndarray,
                     groups: list[tuple[np.ndarray, np.ndarray]],
                     c: float) -> np.ndarray:
    grads = field.gradient_batch(positions[interior])
    forces = np.empty_like(grads)
    for rows, nbrs in groups:
        offsets = positions[nbrs] - positions[interior[rows]][:, None, :]
        centered = offsets - offsets.mean(axis=1, keepdims=True)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        basis = vt[:, :TANGENT_DIM, :]
        # zero out rank-deficient directions instead of projecting onto noise
        ok = s[:, :TANGENT_DIM] > np.maximum(s[:, :1], 1e-300) * 1e-10
        basis = basis * ok[:, :, None]
        g = grads[rows]
        proj = np.einsum("ikn,in,ikm->im", basis, g, basis)
        forces[rows] = c * (g - proj) + offsets.sum(axis=1)
    return forces


def relax_sheet(field: DensityField, sheet: WebSheet,
                params: SheetParams) -> WebSheet | None:
    """First-order fixed-step relaxation of interior nodes.

    Converged when the mean interior force norm drops below the tolerance
    (checked before stepping); returns None on max_steps exhaustion or
    non-finite coordinates.  Boundary positions are bitwise untouched.
    """
    c = _resolve_c(field, params)
    adj = sheet.neighbor_lists()
    interior = np.flatnonzero(~sheet.boundary)
    groups = _degree_groups(adj, interior)
    positions = sheet.positions.copy()
    for step in range(params.max_steps + 1):
        forces = _interior_forces(field, positions, interior, groups, c)
        if np.linalg.norm(forces, axis=1).mean() < params.tolerance:
            out = sheet.positions.copy()
            out[interior] = positions[interior]
            return WebSheet(positions=out, edges=sheet.edges, boundary=sheet.boundary,
                            rings=sheet.rings, nodes_per_ring=sheet.nodes_per_ring)
        if step == params.max_steps:
            break
        positions[interior] += params.step_size * forces
        if not np.all(np.isfinite(positions[interior])):
            return None
    return None


def sheet_density(field: DensityField, sheet: WebSheet) -> float:
    return float(field.value_batch(sheet.positions).min())
