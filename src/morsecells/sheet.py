"""2-cell search: web-graph sheets relaxed under gradient and spring forces.

A candidate 2-cell is a web-shaped graph spanning a closed boundary loop of
1-cell nodes.  Interior nodes feel the density gradient projected
perpendicular to the web's tangent plane plus the sum of neighbor
differences, -(L x) with L the web's graph Laplacian.  In R^n with n <= 2
the tangent plane of a 2-cell is all of R^n, so the projected gradient is
zero and the force is the spring sum alone.  Off the plane each node's
tangent plane is the span of two chords of the web's own grid of rings and
spokes, orthonormalised in closed form for all nodes at once.  A sheet
relaxes through ``cwcomplex.relax``, the loop the elastic bands use too:
semi-implicit steps (implicit springs, explicit gradient) until the mean
interior force norm is below ``TOLERANCE``.  One Laplacian per sheet gives
both the spring sums and the implicit step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cwcomplex import laplacian, relax
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
    """Node positions plus fixed web wiring; boundary nodes never move.

    chords[alpha] holds two (tail, head) node pairs; the chords
    x[head] - x[tail] span interior node alpha's tangent plane.
    """

    positions: np.ndarray            # (V, n)
    edges: tuple[tuple[int, int], ...]
    boundary: np.ndarray             # (V,) bool, True = fixed
    chords: np.ndarray               # (V, 2, 2) int

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "boundary", np.asarray(self.boundary, dtype=bool))
        object.__setattr__(self, "chords", np.asarray(self.chords, dtype=np.intp))

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

    An interior ring node (j, k) takes the ring chord (j, k-1) -> (j, k+1)
    and the spoke chord (j-1, k) -> (j+1, k), ring 0 being the center.  The
    center takes two chords of ring 1, slot 0 -> h and q -> q + h with
    h = floor(npr/2) and q = ceil(npr/4); these are never parallel on a
    regular polygon.  Boundary nodes get zero chords (node 0 -> node 0).
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

    chords = np.zeros((n_nodes, 2, 2), dtype=np.intp)
    half, quarter = npr // 2, -(-npr // 4)
    chords[0] = [[node(1, 0), node(1, half)], [node(1, quarter), node(1, quarter + half)]]
    j, k = np.divmod(np.arange(npr, rings * npr), npr)  # interior ring j >= 1, slot k
    inner = np.where(j > 1, node(j - 1, k), 0)
    chords[node(j, k)] = np.array([[node(j, k - 1), node(j, k + 1)],
                                   [inner, node(j + 1, k)]]).transpose(2, 0, 1)

    boundary = np.zeros(n_nodes, dtype=bool)
    boundary[1 + (rings - 1) * npr:] = True
    return WebSheet(positions=positions, edges=tuple(edges), boundary=boundary,
                    chords=chords)


def _grid_bases(positions: np.ndarray, chords: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the planes spanned by r nodes' grid chords, as a
    (TANGENT_DIM, n, r) array: basis row k of node i is [k, :, i].

    chords is (r, 2, 2): two (tail, head) node pairs per node, each giving
    the chord x[head] - x[tail].  Each chord is scaled by its largest
    absolute entry, so that no square under- or overflows.  The first row is
    the first chord made unit; the second is the second chord less its part
    along the first, taken twice (Gram-Schmidt), made unit.  A zero chord
    gives a zero row, as does a second chord whose part off the first is at
    most 1e-10 of its length.  The coordinates run along the leading axis,
    so each sum over them is one pass over all nodes.
    """
    ends = np.take(np.ascontiguousarray(positions.T), chords.T, axis=1)
    d = ends[:, 1] - ends[:, 0]
    scale = np.abs(d).max(axis=0)
    d /= np.where(scale > 0, scale, 1.0)
    # a nonzero scaled chord has a largest entry of 1, so a norm of at least 1
    norms = np.sqrt(np.einsum("nkr,nkr->kr", d, d))
    first = d[:, 0] / np.maximum(norms[0], 1.0)
    second = d[:, 1] - np.einsum("nr,nr->r", first, d[:, 1]) * first
    second -= np.einsum("nr,nr->r", first, second) * first
    length = np.sqrt(np.einsum("nr,nr->r", second, second))
    length[length <= 1e-10 * norms[1]] = np.inf
    return np.stack([first, second / length])


def _interior_neighbors(sheet: WebSheet, alpha: int) -> list[int]:
    if sheet.boundary[alpha]:
        raise InvalidInputError("forces and tangent planes are defined at interior nodes only")
    neighbors = sheet.neighbor_lists()[alpha]
    if len(neighbors) < TANGENT_DIM:
        raise InvalidInputError(f"node {alpha} has fewer than {TANGENT_DIM} neighbors")
    return neighbors


def tangent_space(sheet: WebSheet, alpha: int) -> tuple[np.ndarray, bool]:
    """The span of interior node alpha's two grid chords: in R^n,
    n > TANGENT_DIM, the plane the sheet force projects off.

    Returns (basis, deficient); basis rows are orthonormal.  When the chords
    span less than a plane, the available directions are returned and the
    deficiency flag is set.  A boundary node has no chords.
    """
    _interior_neighbors(sheet, alpha)
    basis = _grid_bases(sheet.positions, sheet.chords[[alpha]])[:, :, 0]
    basis = basis[basis.any(axis=1)]
    return basis, len(basis) < TANGENT_DIM


def sheet_force(field: DensityField, sheet: WebSheet, alpha: int) -> np.ndarray:
    """Perpendicular gradient force plus the neighbor-difference spring sum
    at interior node alpha: its row of the batched force over all interior
    nodes, so it equals the solver's force bitwise."""
    _interior_neighbors(sheet, alpha)
    interior = np.flatnonzero(~sheet.boundary)
    rows = laplacian(len(sheet.positions), sheet.edges)[interior]
    forces = _interior_forces(field, sheet.positions, interior, rows, sheet.chords[interior])
    return forces[np.searchsorted(interior, alpha)]


def _interior_forces(field: DensityField, positions: np.ndarray, interior: np.ndarray,
                     rows: np.ndarray, chords: np.ndarray) -> np.ndarray:
    """Forces at the interior nodes; rows and chords hold the interior
    nodes' rows of the web's (V, V) Laplacian and of ``WebSheet.chords``.

    Each force starts as the spring sum -(L x) of its Laplacian row, one
    matmul for all nodes.  The rows sum to zero, so the positions are taken
    relative to node 0, the web's center, which keeps the sums as accurate
    as the neighbor differences far from the origin.  In R^n with
    n <= TANGENT_DIM a 2-cell's tangent plane is all of R^n, so the
    perpendicular gradient is zero and the spring sum is the force, with no
    tangent basis and no gradient call.  Off the plane all nodes take their
    grid bases at once and gain c * (g - proj) from one gradient call and
    one update.
    """
    forces = rows @ (positions[0] - positions)
    if positions.shape[1] > TANGENT_DIM:
        bases = _grid_bases(positions, chords)
        g = field.gradient_batch(positions[interior])
        along = np.einsum("knr,rn->kr", bases, g)
        forces += field.c * (g - np.einsum("kr,knr->rn", along, bases))
    return forces


def relax_sheet(field: DensityField, sheet: WebSheet,
                counts: dict | None = None) -> WebSheet | None:
    """Relax the interior nodes through ``cwcomplex.relax`` at step STEP.

    The web's Laplacian is built once: its interior rows give the spring
    sums and ``relax`` forms the implicit step from it.  The sheet is a
    one-item stack; it converges at ``TOLERANCE`` within ``MAX_STEPS``, or
    it runs out of steps or turns non-finite and the relaxation returns
    None.  Boundary positions are bitwise untouched.
    ``counts["sheet_steps"]`` gains one per force evaluation,
    ``counts["sheet_gradient_rows"]`` the rows those evaluations send to the
    density gradient (every interior node off the plane, none in R^1 and
    R^2), and ``counts["sheet_final_force"]`` keeps the largest final mean
    force norm of a converged sheet.  Off the plane each
    evaluation takes the tangent planes from the sheet's grid chords.
    """
    counts = {} if counts is None else counts
    counts.setdefault("sheet_steps", 0)
    counts.setdefault("sheet_gradient_rows", 0)
    counts.setdefault("sheet_final_force", 0.0)
    interior = np.flatnonzero(~sheet.boundary)
    lap = laplacian(len(sheet.positions), sheet.edges)
    rows, chords = lap[interior], sheet.chords[interior]

    def forces(stack):
        return _interior_forces(field, stack[0], interior, rows, chords)[None]

    (out,), _, steps, final_force = relax(sheet.positions[None], lap, interior,
                                         STEP, forces, TOLERANCE, MAX_STEPS)
    counts["sheet_steps"] += steps
    if sheet.positions.shape[1] > TANGENT_DIM:
        counts["sheet_gradient_rows"] += steps * len(interior)
    counts["sheet_final_force"] = max(counts["sheet_final_force"], final_force)
    return None if out is None else replace(sheet, positions=out)


def sheet_density(field: DensityField, sheet: WebSheet) -> float:
    return float(field.value_batch(sheet.positions).min())
