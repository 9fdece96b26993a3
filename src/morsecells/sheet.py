"""2-cell search: web-graph sheets relaxed under gradient and spring forces.

A candidate 2-cell is a web spanning a closed boundary loop of 1-cell
nodes: a centre and ``RINGS`` rings of ``NODES_PER_RING`` nodes, the
outermost ring fixed.  Every sheet has this one web, so its wiring (edges,
grid chords, the interior rows of its graph Laplacian L, the implicit step
and the harmonic extension) is built once per process, on first use, by
``_wiring``.  Interior nodes feel the density gradient projected
perpendicular to the web's tangent plane plus the spring sum -(L x), and
every web starts where its springs balance, at its loop's harmonic
extension.  In R^n with n <= 2 a 2-cell's tangent plane is all of R^n, so
the force is the spring sum alone and the start is the relaxed web.  Off
the plane each node's tangent plane is the span of two chords of the web's
own grid, orthonormalised in closed form for all nodes at once, and the
sheet relaxes through ``cwcomplex.relax`` as the elastic bands do, by
semi-implicit steps until its mean interior force norm is below TOLERANCE.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .cwcomplex import implicit_step_matrix, laplacian, relax
from .density import DensityField
from .errors import ConstructionError, InvalidInputError

TANGENT_DIM = 2  # 2-cells
STEP = 1.0  # implicit step h of relax_sheet
# off the plane a sheet converges when its mean interior force norm falls
# below this; a planar web starts at its equilibrium, with a round-off force
TOLERANCE = 1e-3
MAX_STEPS = 200_000  # force evaluations before a sheet gives up
RINGS, NODES_PER_RING = 10, 20  # the web the pipeline spans over each loop
NODES = 1 + RINGS * NODES_PER_RING
INTERIOR = slice(0, NODES - NODES_PER_RING)  # the outer ring is the last nodes


class Wiring(NamedTuple):
    """The web's read-only wiring, shared by every sheet.

    Node 0 is the centre and ring j = 1..RINGS holds nodes
    1 + (j - 1) NODES_PER_RING onward, slot k at offset k.  edges is (E, 2).
    chords[alpha] holds interior node alpha's two (tail, head) node pairs;
    the chords x[head] - x[tail] span its tangent plane.  rows holds the
    interior rows of L, step is S = STEP (I + STEP L_II)^-1, and harmonic is
    H = -L_II^-1 L_IB, whose rows sum to 1: x_I = H x_B zeroes the springs.
    """

    edges: np.ndarray     # (E, 2) int
    chords: np.ndarray    # (I, 2, 2) int
    rows: np.ndarray      # (I, NODES)
    step: np.ndarray      # (I, I)
    harmonic: np.ndarray  # (I, NODES_PER_RING)


@functools.cache
def _wiring() -> Wiring:
    """Ring nodes join their two ring neighbours and the same slot on the
    adjacent rings; the centre joins every innermost-ring node.

    An interior ring node (j, k) takes the ring chord (j, k-1) -> (j, k+1)
    and the spoke chord (j-1, k) -> (j+1, k), ring 0 being the centre.  The
    centre takes two chords of ring 1, slot 0 -> h and q -> q + h with
    h = floor(NODES_PER_RING/2) and q = ceil(NODES_PER_RING/4); these are
    not parallel on a regular ring.
    """
    npr = NODES_PER_RING
    # grid[j, k] is node (j, k); row 0 repeats the centre under every slot
    grid = np.zeros((RINGS + 1, npr), dtype=np.intp)
    grid[1:] = np.arange(1, NODES).reshape(RINGS, npr)
    after = np.roll(grid, -1, axis=1)
    edges = np.concatenate([np.stack([grid[1:], after[1:]], axis=-1).reshape(-1, 2),
                            np.stack([grid[:-1], grid[1:]], axis=-1).reshape(-1, 2)])
    half, quarter = npr // 2, -(-npr // 4)
    ring = np.stack([np.roll(grid, 1, axis=1), after], axis=-1)[1:-1]
    spoke = np.stack([grid[:-2], grid[2:]], axis=-1)
    chords = np.concatenate([grid[1, [[[0, half], [quarter, quarter + half]]]],
                             np.stack([ring, spoke], axis=2).reshape(-1, 2, 2)])
    lap = laplacian(NODES, edges)
    wiring = Wiring(edges, chords, lap[INTERIOR], implicit_step_matrix(lap, INTERIOR, STEP),
                    np.linalg.solve(lap[INTERIOR, INTERIOR], -lap[INTERIOR, INTERIOR.stop:]))
    for array in wiring:
        array.flags.writeable = False
    return wiring


@dataclass(frozen=True)
class WebSheet:
    """Node positions of the web; boundary nodes never move."""

    positions: np.ndarray  # (NODES, n)

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 2 or len(positions) != NODES:
            raise InvalidInputError(f"a web sheet has {NODES} node rows")
        object.__setattr__(self, "positions", positions)


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


def initial_sheet(boundary_loop: np.ndarray) -> WebSheet:
    """Web over a closed boundary loop: its harmonic extension.

    The outer ring x_B is the loop resampled evenly by arc length and the
    interior is H x_B (``Wiring``), taken relative to x_B[0], as H's rows
    sum to 1, to keep a far loop's precision.  A last point equal to the
    first closes the loop and is dropped before the loop is counted.
    """
    loop = np.asarray(boundary_loop, dtype=float)
    if loop.ndim == 2 and len(loop) and np.array_equal(loop[0], loop[-1]):
        loop = loop[:-1]
    if loop.ndim != 2 or loop.shape[0] < 3:
        raise ConstructionError("boundary loop needs at least 3 points besides "
                                "a closing repeat of the first")

    outer = _resample_closed_polyline(loop, NODES_PER_RING)
    return WebSheet(np.vstack([_wiring().harmonic @ (outer - outer[0]) + outer[0], outer]))


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


def _check_interior(alpha: int) -> None:
    if not 0 <= alpha < INTERIOR.stop:
        raise InvalidInputError("forces and tangent planes are defined at interior "
                                f"nodes only, 0 <= alpha < {INTERIOR.stop}")


def tangent_space(sheet: WebSheet, alpha: int) -> tuple[np.ndarray, bool]:
    """The span of interior node alpha's two grid chords: in R^n,
    n > TANGENT_DIM, the plane the sheet force projects off.

    Returns (basis, deficient); basis rows are orthonormal.  When the chords
    span less than a plane, the available directions are returned and the
    deficiency flag is set.  A boundary node has no chords.
    """
    _check_interior(alpha)
    basis = _grid_bases(sheet.positions, _wiring().chords[[alpha]])[:, :, 0]
    basis = basis[basis.any(axis=1)]
    return basis, len(basis) < TANGENT_DIM


def sheet_force(field: DensityField, sheet: WebSheet, alpha: int) -> np.ndarray:
    """Perpendicular gradient force plus the neighbor-difference spring sum
    at interior node alpha: its row of the batched force over all interior
    nodes, so it equals the solver's force bitwise."""
    _check_interior(alpha)
    wiring = _wiring()
    return _interior_forces(field, sheet.positions, wiring.rows, wiring.chords)[alpha]


def _interior_forces(field: DensityField, positions: np.ndarray, rows: np.ndarray,
                     chords: np.ndarray) -> np.ndarray:
    """Forces at the interior nodes, the first len(rows) nodes; rows and
    chords hold their rows of the web's (V, V) Laplacian and their grid
    chords, as ``Wiring`` does.

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
        g = field.gradient_batch(positions[:len(rows)])
        along = np.einsum("knr,rn->kr", bases, g)
        forces += field.c * (g - np.einsum("kr,knr->rn", along, bases))
    return forces


def relax_sheet(field: DensityField, sheet: WebSheet,
                counts: dict | None = None) -> WebSheet | None:
    """Relax the interior nodes through ``cwcomplex.relax`` at step STEP.

    The springs and the implicit step come from the shared ``_wiring``, so
    a sheet forms no Laplacian and no inverse.  The sheet is a one-item
    stack; it converges at ``TOLERANCE`` within ``MAX_STEPS``, or it runs
    out of steps or turns non-finite and the relaxation returns None.
    Boundary positions are bitwise untouched.
    ``counts["sheet_steps"]`` gains one per force evaluation,
    ``counts["sheet_gradient_rows"]`` the rows those evaluations send to the
    density gradient (every interior node off the plane, none in R^1 and
    R^2), and ``counts["sheet_final_force"]`` keeps the largest final mean
    force norm of a converged sheet.
    """
    counts = {} if counts is None else counts
    counts.setdefault("sheet_steps", 0)
    counts.setdefault("sheet_gradient_rows", 0)
    counts.setdefault("sheet_final_force", 0.0)
    wiring = _wiring()

    def forces(stack):
        return _interior_forces(field, stack[0], wiring.rows, wiring.chords)[None]

    (out,), _, steps, final_force = relax(sheet.positions[None], wiring.step, INTERIOR,
                                         forces, TOLERANCE, MAX_STEPS)
    counts["sheet_steps"] += steps
    if sheet.positions.shape[1] > TANGENT_DIM:
        counts["sheet_gradient_rows"] += steps * INTERIOR.stop
    counts["sheet_final_force"] = max(counts["sheet_final_force"], final_force)
    return None if out is None else replace(sheet, positions=out)


def sheet_density(field: DensityField, sheet: WebSheet) -> float:
    return float(field.value_batch(sheet.positions).min())
