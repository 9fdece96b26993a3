"""2-cell search: web-graph sheets relaxed under gradient and spring forces.

A candidate 2-cell is a web-shaped graph spanning a closed boundary loop of
1-cell nodes.  Interior nodes feel the density gradient projected
perpendicular to a PCA-estimated tangent plane plus the sum of neighbor
differences.  In R^n with n <= 2 the tangent plane of a 2-cell is all of
R^n, so the projected gradient is zero and the force is the spring sum
alone.  Off the plane the tangent planes of a step come from one batched
``eigh`` of each node's neighbor Gram, reduced to the offsets' sum-zero
subspace; a node whose Gram cannot resolve its plane takes the SVD.  A
sheet relaxes through ``cwcomplex.relax``, the loop the elastic bands use
too: semi-implicit steps (implicit springs, explicit gradient) until the
mean interior force norm is below ``TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .cwcomplex import relax
from .density import DensityField
from .errors import ConstructionError, InvalidInputError

TANGENT_DIM = 2  # 2-cells only; the general-k construction is not run
STEP = 1.0  # implicit step h of relax_sheet
# a sheet converges when its mean interior force norm falls below this, the
# mean residual acceptance criterion 10 requires of a web on the unit circle
TOLERANCE = 1e-3
MAX_STEPS = 200_000  # force evaluations before a sheet gives up
RINGS, NODES_PER_RING = 10, 20  # the web the pipeline spans over each loop


@dataclass(frozen=True)
class WebSheet:
    """Node positions plus fixed web wiring; boundary nodes never move."""

    positions: np.ndarray            # (V, n)
    edges: tuple[tuple[int, int], ...]
    boundary: np.ndarray             # (V,) bool, True = fixed

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
    # each segment is scaled by a power of two near its largest entry, which
    # is exact, so its squares neither under- nor overflow
    exponent = np.frexp(np.abs(seg).max(axis=1))[1]
    lengths = np.ldexp(np.linalg.norm(np.ldexp(seg, -exponent[:, None]), axis=1), exponent)
    total = lengths.sum()
    if total <= 0:
        raise ConstructionError("boundary loop is degenerate (zero length)")
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    targets = np.linspace(0.0, total, count, endpoint=False)
    # the last breakpoint at or below each target, which never starts a
    # zero-length segment
    i = np.minimum(np.searchsorted(cum, targets, side="right") - 1, len(lengths) - 1)
    return loop[i] + ((targets - cum[i]) / lengths[i])[:, None] * seg[i]


def initial_sheet(boundary_loop: np.ndarray, rings: int = RINGS,
                  nodes_per_ring: int = NODES_PER_RING) -> WebSheet:
    """Web over a closed boundary loop: concentric rings plus a center node.

    Node 0 is the center (average of the resampled boundary); ring j of
    ``rings`` sits at interpolation fraction j/rings between center and
    boundary.  Ring nodes join their two ring neighbors and the same-index
    node on adjacent rings; the center joins every innermost-ring node.
    Only the outermost ring is flagged as fixed boundary.  A last point equal
    to the first closes the loop and is dropped before the loop is counted.
    """
    if rings < 1 or nodes_per_ring < 3:
        raise InvalidInputError("need rings >= 1 and nodes_per_ring >= 3")
    loop = np.asarray(boundary_loop, dtype=float)
    if loop.ndim == 2 and len(loop) and np.array_equal(loop[0], loop[-1]):
        loop = loop[:-1]
    if loop.ndim != 2 or loop.shape[0] < 3:
        raise ConstructionError("boundary loop needs at least 3 points besides "
                                "a closing repeat of the first")

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
    return WebSheet(positions=positions, edges=tuple(edges), boundary=boundary)


def _svd_bases(centered: np.ndarray) -> np.ndarray:
    """The ``_tangent_bases`` rows from one SVD of each node's offsets, zero
    rows past min(d, n)."""
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    k = min(TANGENT_DIM, s.shape[1])
    bases = np.zeros((len(centered), TANGENT_DIM, centered.shape[2]))
    bases[:, :k] = vt[:, :k] * (s[:, :k] > np.maximum(s[:, :1], 1e-300) * 1e-10)[:, :, None]
    return bases


@lru_cache(maxsize=None)
def _helmert(d: int) -> np.ndarray:
    """(d - 1, d) orthonormal rows spanning the vectors whose entries sum to 0."""
    k = np.arange(1, d)[:, None]
    j = np.arange(d)
    rows = np.where(j < k, 1.0, np.where(j == k, -k, 0.0)) / np.sqrt(k * (k + 1.0))
    rows.flags.writeable = False
    return rows


def _tangent_bases(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-TANGENT_DIM principal directions of each node's neighbor offsets.

    centered is (r, d, n): d neighbor offsets for each of r nodes, less their
    mean.  Returns (r, TANGENT_DIM, n) orthonormal rows, with the directions
    past each node's numerical rank, or past min(d, n), zeroed instead of
    projecting onto noise, and the (r,) mask of the nodes whose rows came
    from an SVD.

    The offsets A of a node have rows that sum to zero, so A' = H A, with H
    the Helmert rows, has A's right singular vectors.  After scaling each
    node's offsets by their largest absolute entry, so that no square
    under- or overflows, one batched ``eigh`` takes the Gram of each node's
    smaller side: A' A'^T when d - 1 <= n, whose top two eigenvectors u give
    the rows u^T A' after one Gram-Schmidt pass, or A^T A, whose top two
    eigenvectors are the rows.  A node whose eigenvalues miss
    lambda2 - lambda3 > 1e-2 lambda1, or whose largest entry is below 1e-300
    or not finite, takes the SVD instead: past that rule the Gram's plane
    can drift from the SVD's by more than 1e-12.  Inside it s2 > 0.1 s1, so
    the SVD's rank test would keep both rows.  Rejecting is always safe.
    """
    r, d, n = centered.shape
    if min(d - 1, n) < TANGENT_DIM:
        return _svd_bases(centered), np.ones(r, dtype=bool)
    scale = np.abs(centered).max(axis=(1, 2))
    usable = (scale >= 1e-300) & np.isfinite(scale)
    a = np.divide(centered, scale[:, None, None], out=np.zeros_like(centered),
                  where=usable[:, None, None])
    if d - 1 <= n:
        a = _helmert(d) @ a
        lam, u = np.linalg.eigh(a @ a.swapaxes(1, 2))
        bases = u[:, :, [-1, -2]].swapaxes(1, 2) @ a
        # Gram-Schmidt; the floors keep the rows of a rejected node finite
        bases[:, 1] -= (np.einsum("ij,ij->i", bases[:, 0], bases[:, 1])
                        / np.maximum(np.einsum("ij,ij->i", bases[:, 0], bases[:, 0]), 1e-300)
                        )[:, None] * bases[:, 0]
        bases /= np.maximum(np.sqrt(np.einsum("rkn,rkn->rk", bases, bases)), 1e-300)[:, :, None]
    else:
        lam, v = np.linalg.eigh(a.swapaxes(1, 2) @ a)
        bases = v[:, :, [-1, -2]].swapaxes(1, 2)
    third = lam[:, -3] if lam.shape[1] > 2 else 0.0
    svd = ~(usable & (lam[:, -2] - third > 1e-2 * lam[:, -1]))
    if svd.any():
        bases[svd] = _svd_bases(centered[svd])
    return bases, svd


def _neighbors(sheet: WebSheet, alpha: int) -> list[int]:
    neighbors = sheet.neighbor_lists()[alpha]
    if len(neighbors) < TANGENT_DIM:
        raise InvalidInputError(f"node {alpha} has fewer than {TANGENT_DIM} neighbors")
    return neighbors


def tangent_space(sheet: WebSheet, alpha: int) -> tuple[np.ndarray, bool]:
    """Top-TANGENT_DIM principal directions of node alpha's neighbor offsets:
    in R^n, n > TANGENT_DIM, the plane the sheet force projects off.

    Returns (basis, deficient); basis rows are orthonormal.  When the
    neighbor offsets have rank below TANGENT_DIM, the available directions
    are returned and the deficiency flag is set.
    """
    offsets = sheet.positions[_neighbors(sheet, alpha)] - sheet.positions[alpha]
    basis = _tangent_bases((offsets - offsets.mean(axis=0))[None])[0][0]
    basis = basis[basis.any(axis=1)]
    return basis, len(basis) < TANGENT_DIM


def sheet_force(field: DensityField, sheet: WebSheet, alpha: int) -> np.ndarray:
    """Perpendicular gradient force plus the neighbor-difference spring sum
    at interior node alpha: its row of the batched force."""
    if sheet.boundary[alpha]:
        raise InvalidInputError("forces are defined at interior nodes only")
    group = (np.array([0]), np.array([_neighbors(sheet, alpha)]))
    return _interior_forces(field, sheet.positions, np.array([alpha]), [group])[0][0]


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
                     groups: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, int]:
    """Forces at the interior nodes and the number of tangent bases that
    took the SVD.

    In R^n with n <= TANGENT_DIM a 2-cell's tangent plane is all of R^n, so
    the perpendicular gradient is zero and each force is the spring sum,
    with no tangent basis and no gradient call.  Off the plane every node
    takes its tangent basis in the sweep over the degree groups, and all
    gain c * (g - proj) from one gradient call and one update.
    """
    n = positions.shape[1]
    forces = np.empty((len(interior), n))
    bases = np.empty((len(interior), TANGENT_DIM, n))
    svd_rows = 0
    for rows, nbrs in groups:
        offsets = positions[nbrs] - positions[interior[rows]][:, None, :]
        forces[rows] = offsets.sum(axis=1)
        if n > TANGENT_DIM:
            # less their mean, bitwise as offsets.mean(axis=1) gives it
            centered = offsets - (forces[rows] / nbrs.shape[1])[:, None, :]
            bases[rows], svd = _tangent_bases(centered)
            svd_rows += int(np.count_nonzero(svd))
    if n > TANGENT_DIM:
        g = field.gradient_batch(positions[interior])
        along = np.einsum("ikn,in->ik", bases, g)
        forces += field.c * (g - np.einsum("ik,ikm->im", along, bases))
    return forces, svd_rows


def relax_sheet(field: DensityField, sheet: WebSheet,
                counts: dict | None = None) -> WebSheet | None:
    """Relax the interior nodes through ``cwcomplex.relax`` at step STEP.

    The sheet is a one-item stack that is never degenerate; it converges at
    ``TOLERANCE`` within ``MAX_STEPS`` or the relaxation returns None.  Boundary positions are
    bitwise untouched.  ``counts["sheet_steps"]`` gains one per force
    evaluation, ``counts["sheet_gradient_rows"]`` the rows those evaluations
    send to the density gradient (every interior node off the plane, none in
    R^1 and R^2), ``counts["sheet_svd_rows"]`` the tangent
    bases each evaluation takes from the SVD, and
    ``counts["sheet_final_force"]`` keeps the largest final mean force norm
    of a converged sheet.
    """
    counts = {} if counts is None else counts
    counts.setdefault("sheet_steps", 0)
    counts.setdefault("sheet_gradient_rows", 0)
    counts.setdefault("sheet_svd_rows", 0)
    counts.setdefault("sheet_final_force", 0.0)
    interior = np.flatnonzero(~sheet.boundary)
    groups = _degree_groups(sheet.neighbor_lists(), interior)

    def forces(stack):
        force, svd_rows = _interior_forces(field, stack[0], interior, groups)
        counts["sheet_svd_rows"] += svd_rows
        return force[None], np.zeros(1, dtype=bool)

    (out,), _, steps, final_force = relax(sheet.positions[None], sheet.edges, interior,
                                         STEP, forces, TOLERANCE, MAX_STEPS)
    counts["sheet_steps"] += steps
    if sheet.positions.shape[1] > TANGENT_DIM:
        counts["sheet_gradient_rows"] += steps * len(interior)
    counts["sheet_final_force"] = max(counts["sheet_final_force"], final_force)
    return None if out is None else replace(sheet, positions=out)


def sheet_density(field: DensityField, sheet: WebSheet) -> float:
    return float(field.value_batch(sheet.positions).min())
