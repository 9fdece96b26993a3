"""Density-graded cell complexes: superlevel models, Betti numbers, persistence.

Cells carry a density value; the model at threshold a is the union of cells
with density >= a.  Stored densities are clamped below the minimum face
density at construction, so every superlevel slice is closed under taking
faces.  Homology over the field with two elements comes from one
boundary-matrix column reduction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidComplexError, InvalidInputError


@dataclass(frozen=True)
class Cell:
    id: int
    dimension: int
    density: float
    boundary: tuple[int, ...]
    geometry: np.ndarray  # (m, n) coordinate rows

    def __post_init__(self):
        if self.dimension not in (0, 1, 2):
            raise InvalidInputError("cell dimension must be 0, 1 or 2")
        if self.dimension == 0 and self.boundary:
            raise InvalidInputError("0-cells have empty boundary")
        if self.dimension == 1 and len(self.boundary) != 2:
            raise InvalidInputError("1-cells have exactly two faces (equal for a self-loop)")
        if not math.isfinite(self.density):
            raise InvalidInputError("cell density must be finite")
        object.__setattr__(self, "geometry", np.asarray(self.geometry, dtype=float))
        if not np.isfinite(self.geometry).all():
            raise InvalidInputError("cell geometry must be finite")


@dataclass(frozen=True)
class MorseFiltration:
    """Cells sorted by density descending with the closure property baked in."""

    cells: tuple[Cell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))

    @staticmethod
    def build(cells: list[Cell]) -> "MorseFiltration":
        """Check closure, clamp densities below face minima, and sort."""
        if len({c.id for c in cells}) != len(cells):
            raise InvalidComplexError("duplicate cell ids")
        _check_closure(cells)
        clamped: dict[int, Cell] = {}
        for cell in sorted(cells, key=lambda c: c.dimension):
            density = min([cell.density] + [clamped[f].density for f in cell.boundary])
            clamped[cell.id] = Cell(cell.id, cell.dimension, density,
                                    cell.boundary, cell.geometry)
        ordered = sorted(clamped.values(),
                         key=lambda c: (-c.density, c.dimension, c.id))
        return MorseFiltration(cells=tuple(ordered))


def superlevel_complex(filtration: MorseFiltration, a: float) -> list[Cell]:
    """Cells with density >= a; a valid complex by the clamping invariant."""
    return [c for c in filtration.cells if c.density >= a]


def components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of the graph with symmetric (n, n) boolean
    adjacency; callers pass their own, such as distances within a threshold.

    A breadth-first search expands one whole frontier at a time.  Components
    are ordered by their smallest member and list their members ascending.
    """
    unreached = np.ones(len(adjacency), dtype=bool)
    clusters = []
    while unreached.any():
        members = np.zeros_like(unreached)
        frontier = [np.argmax(unreached)]  # the smallest vertex not yet reached
        while len(frontier):
            members[frontier] = True
            frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & ~members)
        unreached &= ~members
        clusters.append(np.flatnonzero(members).tolist())
    return clusters


def laplacian(n: int, pairs) -> np.ndarray:
    """Graph Laplacian (degree minus adjacency) of the graph on vertices
    0..n-1 with edges pairs, as a dense (n, n) float array."""
    a, b = np.array(pairs, dtype=int).reshape(-1, 2).T
    lap = np.zeros((n, n))
    np.add.at(lap, (np.r_[a, b], np.r_[b, a]), -1.0)
    lap.flat[::n + 1] -= lap.sum(axis=1)
    return lap


def implicit_step_matrix(lap: np.ndarray, interior, h: float) -> np.ndarray:
    """S = h (I + h L_II)^-1, with L a graph Laplacian from ``laplacian`` and
    L_II its block on the interior vertices, an index array or a slice.

    Where the spring force on the interior is -(L_II x_I + L_IB x_B),
    x_I += S @ force solves (I + h L_II) x_I' = x_I + h (rest - L_IB x_B):
    the springs step implicitly and the rest of the force explicitly.
    """
    m = h * lap[interior][:, interior]
    m.flat[::len(m) + 1] += 1.0
    m = np.linalg.inv(m)
    m *= h
    return m


def relax(stack: np.ndarray, implicit: np.ndarray, interior, forces,
          tolerance: float, max_steps: int):
    """Relax a (B, V, n) stack of graphs that share one implicit step.

    interior is an index array or a slice of the I vertices that move, and
    implicit is their (I, I) step matrix S from ``implicit_step_matrix``.

    ``forces(stack)`` returns the (B, I, n) forces on the interior vertices.
    Every step moves the interior by x_I += S @ F; the other vertices never
    move.  An item converges at the first step where its mean interior force
    norm is below tolerance (checked before stepping).  It leaves the stack
    when it converges or its coordinates turn non-finite, and fails after
    max_steps steps.
    Under a force that treats the items apart, each ends as it would alone.

    Returns (items, iterations, item_steps, final_force): per item its
    (V, n) coordinates or None if it failed, the number of force
    evaluations, the items summed over them, and the largest mean interior
    force norm of a converged item at its convergence (0.0 if none did).
    """
    stack = np.array(stack, dtype=float)
    out: list[np.ndarray | None] = [None] * len(stack)
    ids = np.arange(len(stack))
    iterations = item_steps = 0
    final_force = 0.0
    for step in range(max_steps + 1):
        force = forces(stack)
        iterations += 1
        item_steps += len(ids)
        norms = np.sqrt(np.einsum("bin,bin->bi", force, force))
        mean_norm = np.add.reduce(norms, axis=1) / norms.shape[1]
        done = mean_norm < tolerance
        any_done = done.any()
        if any_done:
            for k in np.flatnonzero(done):
                out[ids[k]] = stack[k].copy()
                final_force = max(final_force, float(mean_norm[k]))
        if step == max_steps:
            break
        stack[:, interior] += implicit @ force
        if any_done or not np.isfinite(stack).all():
            keep = ~done & np.isfinite(stack).all(axis=(1, 2))
            stack, ids = stack[keep], ids[keep]
            if not len(ids):
                break
    return out, iterations, item_steps, final_force


def _check_closure(cells: list[Cell]) -> None:
    """Raise InvalidComplexError unless every face of every cell is in the
    list and one dimension lower, and every 2-cell is glued along a cycle:
    its boundary edges hit each vertex an even number of times."""
    by_id = {c.id: c for c in cells}
    for cell in cells:
        for fid in cell.boundary:
            face = by_id.get(fid)
            if face is None:
                raise InvalidComplexError(f"cell {cell.id} references missing face {fid}")
            if face.dimension != cell.dimension - 1:
                raise InvalidComplexError(f"cell {cell.id} face {fid} has wrong dimension")
        hits = Counter(v for fid in cell.boundary for v in by_id[fid].boundary)
        if any(n % 2 for n in hits.values()):
            raise InvalidComplexError(f"cell {cell.id} boundary is not a cycle")


def _reduce(cells: list[Cell]) -> dict[int, int]:
    """GF(2) column reduction of the boundary matrix of a closed cell list.

    Rows and columns are positions in the list.  Each column is a bitmask of
    its faces (XOR, so repeated faces cancel); columns are reduced left to
    right against the earlier pivots.  Returns {pivot row: column} of the
    columns that do not reduce to zero.  A k-cell's column has only
    (k-1)-cell rows, so the pivots of each dimension give the rank of that
    boundary map.
    """
    _check_closure(cells)
    pos = {c.id: i for i, c in enumerate(cells)}
    pivots: dict[int, int] = {}
    reduced: dict[int, int] = {}  # pivot row -> reduced column bitmask
    for j, cell in enumerate(cells):
        col = 0
        for fid in cell.boundary:
            col ^= 1 << pos[fid]
        while col:
            low = col.bit_length() - 1
            if low not in pivots:
                pivots[low], reduced[low] = j, col
                break
            col ^= reduced[low]
    return pivots


def betti(cells: list[Cell]) -> tuple[int, int]:
    """(b0, b1) of a closed cell collection over GF(2).

    b0 = #0-cells - rank d1 and b1 = #1-cells - rank d1 - rank d2, with each
    rank the number of pivot columns of that dimension.
    """
    count = Counter(c.dimension for c in cells)
    rank = Counter(cells[j].dimension for j in _reduce(cells).values())
    return count[0] - rank[1], count[1] - rank[1] - rank[2]


def loop_persistence(filtration: MorseFiltration
                     ) -> list[tuple[float, float, float]]:
    """(birth, death, lifespan) for every 1-dimensional homology class.

    One reduction in density-descending order.  A loop is born at a 1-cell
    whose column reduces to zero and dies at the 2-cell whose pivot row is
    that 1-cell; unfilled loops die at density 0.  Lifespans are reported
    descending.
    """
    cells = list(filtration.cells)  # already density desc, dim asc on ties
    pivots = _reduce(cells)
    nonzero = set(pivots.values())
    intervals = []
    for j, cell in enumerate(cells):
        if cell.dimension != 1 or j in nonzero:
            continue
        birth = cell.density
        death = cells[pivots[j]].density if j in pivots else 0.0
        intervals.append((birth, death, birth - death))
    intervals.sort(key=lambda t: (-t[2], -t[0]))
    return intervals
