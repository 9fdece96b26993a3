"""2-cell search: web-graph sheets relaxed under gradient and spring forces.

A candidate 2-cell is a web-shaped graph spanning a closed boundary loop of
1-cell nodes.  Interior nodes feel the density gradient projected
perpendicular to a PCA-estimated tangent plane plus the sum of neighbor
differences.  The tangent planes of a step come from one batched ``eigh``
of each node's neighbor Gram, reduced to the offsets' sum-zero subspace;
a node whose Gram cannot resolve its plane takes the SVD.  In R^2 a node
whose neighbor offsets span the plane has no perpendicular direction, so
its force is the spring sum alone and it costs no gradient row and no
tangent plane.  A sheet relaxes through ``cwcomplex.relax``,
the loop the elastic bands use too: semi-implicit steps (implicit springs,
explicit gradient) until the mean interior force norm is below
``TOLERANCE``.
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
    """The ``_tangent_bases`` rows from one SVD of each node's offsets."""
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    ok = s[:, :TANGENT_DIM] > np.maximum(s[:, :1], 1e-300) * 1e-10
    return vt[:, :TANGENT_DIM, :] * ok[:, :, None]


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
    past each node's numerical rank zeroed instead of projecting onto noise,
    and the (r,) mask of the nodes whose rows came from an SVD.

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


def _spans_plane(centered: np.ndarray) -> np.ndarray:
    """Where (r, d, TANGENT_DIM) centered neighbor offsets pass the rank test
    of ``_svd_bases`` in every direction, decided without the SVD.

    With A a node's centered offsets scaled by their largest absolute entry,
    s1^2 * s2^2 = sum over i < j of (a_i x a_j)^2 (Cauchy-Binet) and
    s1^2 + s2^2 = ||A||_F^2, so det > 1e-20 ||A||_F^4 gives s2 > 1e-10 s1; a
    largest entry of at least 1e-300 puts s1 above the SVD test's floor.  The
    cross products keep collinear offsets at det ~ 0, where the Gram form
    g00 g11 - g01^2 can round to full rank.  A node the test rejects takes
    ``_tangent_bases``, so rejecting is always safe.
    """
    scale = np.abs(centered).max(axis=(1, 2))
    a = centered / np.maximum(scale, 1e-300)[:, None, None]
    cross = a[:, :, None, 0] * a[:, None, :, 1] - a[:, :, None, 1] * a[:, None, :, 0]
    det = 0.5 * np.einsum("ijk,ijk->i", cross, cross)
    frob = np.einsum("ijk,ijk->i", a, a)
    return (scale >= 1e-300) & (det > 1e-20 * frob * frob)


def _neighbors(sheet: WebSheet, alpha: int) -> list[int]:
    neighbors = sheet.neighbor_lists()[alpha]
    if len(neighbors) < TANGENT_DIM:
        raise InvalidInputError(f"node {alpha} has fewer than {TANGENT_DIM} neighbors")
    return neighbors


def tangent_space(sheet: WebSheet, alpha: int) -> tuple[np.ndarray, bool]:
    """Tangent-plane basis of node alpha, as used by the sheet force.

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
                     groups: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, int, int]:
    """Forces at the interior nodes, the number of gradient rows taken and
    the number of tangent bases that took the SVD.

    In R^TANGENT_DIM a node whose offsets span the plane has a tangent basis
    that spans the space, so c * (g - proj) is zero up to rounding: its
    force is the spring sum, with no gradient row and no tangent basis.
    Every other node sends its row, in interior order, to one gradient call
    and gains c * (g - proj) in one update after the sweep over the degree
    groups.
    """
    n = positions.shape[1]
    forces = np.empty((len(interior), n))
    bases = np.empty((len(interior), TANGENT_DIM, n))
    slow = np.zeros(len(interior), dtype=bool)
    svd_rows = 0
    for rows, nbrs in groups:
        offsets = positions[nbrs] - positions[interior[rows]][:, None, :]
        forces[rows] = offsets.sum(axis=1)
        # less their mean, bitwise as offsets.mean(axis=1) gives it
        centered = offsets - (forces[rows] / nbrs.shape[1])[:, None, :]
        if n == TANGENT_DIM:
            keep = ~_spans_plane(centered)
            rows, centered = rows[keep], centered[keep]
        if len(rows):
            bases[rows], svd = _tangent_bases(centered)
            slow[rows] = True
            svd_rows += int(np.count_nonzero(svd))
    if slow.any():
        g, basis = field.gradient_batch(positions[interior[slow]]), bases[slow]
        along = np.einsum("ikn,in->ik", basis, g)
        forces[slow] += field.c * (g - np.einsum("ik,ikm->im", along, basis))
    return forces, int(np.count_nonzero(slow)), svd_rows


def relax_sheet(field: DensityField, sheet: WebSheet,
                counts: dict | None = None) -> WebSheet | None:
    """Relax the interior nodes through ``cwcomplex.relax`` at step STEP.

    The sheet is a one-item stack that is never degenerate; it converges at
    ``TOLERANCE`` within ``MAX_STEPS`` or the relaxation returns None.  Boundary positions are
    bitwise untouched.  ``counts["sheet_steps"]`` gains one per force
    evaluation, ``counts["sheet_gradient_rows"]`` the rows each evaluation
    sends to the density gradient, ``counts["sheet_svd_rows"]`` the tangent
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
        force, rows, svd_rows = _interior_forces(field, stack[0], interior, groups)
        counts["sheet_gradient_rows"] += rows
        counts["sheet_svd_rows"] += svd_rows
        return force[None], np.zeros(1, dtype=bool)

    (out,), _, steps, final_force = relax(sheet.positions[None], sheet.edges, interior,
                                         STEP, forces, TOLERANCE, MAX_STEPS)
    counts["sheet_steps"] += steps
    counts["sheet_final_force"] = max(counts["sheet_final_force"], final_force)
    return None if out is None else replace(sheet, positions=out)


def sheet_density(field: DensityField, sheet: WebSheet) -> float:
    return float(field.value_batch(sheet.positions).min())
