"""Density-graded cell complexes: superlevel models, Betti numbers, persistence.

Cells carry a density value; the model at threshold a is the union of cells
with density >= a.  Stored densities are clamped below the minimum face
density at construction, so every superlevel slice is closed under taking
faces.  Homology is computed over the field with two elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        object.__setattr__(self, "geometry", np.asarray(self.geometry, dtype=float))


@dataclass(frozen=True)
class MorseFiltration:
    """Cells sorted by density descending with the closure property baked in."""

    cells: tuple[Cell, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))

    @staticmethod
    def build(cells: list[Cell], metadata: dict | None = None) -> "MorseFiltration":
        """Validate faces, clamp densities below face minima, and sort."""
        by_id = {c.id: c for c in cells}
        if len(by_id) != len(cells):
            raise InvalidComplexError("duplicate cell ids")
        clamped: dict[int, Cell] = {}
        for cell in sorted(cells, key=lambda c: c.dimension):
            density = cell.density
            for fid in cell.boundary:
                face = clamped.get(fid)
                if face is None:
                    raise InvalidComplexError(
                        f"cell {cell.id} references missing face {fid}"
                    )
                if face.dimension != cell.dimension - 1:
                    raise InvalidComplexError(
                        f"cell {cell.id} face {fid} has wrong dimension"
                    )
                density = min(density, face.density)
            clamped[cell.id] = Cell(cell.id, cell.dimension, density,
                                    cell.boundary, cell.geometry)
        ordered = sorted(clamped.values(),
                         key=lambda c: (-c.density, c.dimension, c.id))
        return MorseFiltration(cells=tuple(ordered), metadata=dict(metadata or {}))


def superlevel_complex(filtration: MorseFiltration, a: float) -> list[Cell]:
    """Cells with density >= a; a valid complex by the clamping invariant."""
    return [c for c in filtration.cells if c.density >= a]


def components(n: int, pairs) -> list[list[int]]:
    """Connected components of the graph on vertices 0..n-1 with edges pairs.

    Union-find with path halving.  Components are ordered by their smallest
    member and list their members in ascending order.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def laplacian(n: int, pairs) -> np.ndarray:
    """Graph Laplacian (degree minus adjacency) of the graph on vertices
    0..n-1 with edges pairs, as a dense (n, n) float array."""
    a, b = np.array(pairs, dtype=int).reshape(-1, 2).T
    lap = np.zeros((n, n))
    np.add.at(lap, (np.r_[a, b], np.r_[b, a]), -1.0)
    lap.flat[::n + 1] -= lap.sum(axis=1)
    return lap


def _check_closure(cells: list[Cell]) -> dict[int, Cell]:
    by_id = {c.id: c for c in cells}
    for cell in cells:
        for fid in cell.boundary:
            face = by_id.get(fid)
            if face is None:
                raise InvalidComplexError(f"closure violated: face {fid} missing")
            if face.dimension != cell.dimension - 1:
                raise InvalidComplexError(f"face {fid} has wrong dimension")
    return by_id


def _gf2_rank(columns: list[int]) -> int:
    """Rank of a GF(2) matrix whose columns are bitmask ints."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


def betti(cells: list[Cell]) -> tuple[int, int]:
    """(b0, b1) of a closed cell collection over GF(2).

    b0 from the components of the 1-skeleton; b1 as the cycle rank of the
    1-skeleton minus the rank of the 2-boundary map.
    """
    by_id = _check_closure(cells)
    zeros = [c for c in cells if c.dimension == 0]
    ones = [c for c in cells if c.dimension == 1]
    twos = [c for c in cells if c.dimension == 2]

    index = {c.id: i for i, c in enumerate(zeros)}
    b0 = len(components(len(zeros), [[index[f] for f in edge.boundary]
                                     for edge in ones if len(edge.boundary) == 2]))

    one_index = {c.id: i for i, c in enumerate(ones)}
    columns = []
    for two in twos:
        col = 0
        for fid in two.boundary:
            col ^= 1 << one_index[fid]  # GF(2): repeated faces cancel
        columns.append(col)
    cycle_rank = len(ones) - len(zeros) + b0
    b1 = cycle_rank - _gf2_rank(columns)
    return b0, b1


def loop_persistence(filtration: MorseFiltration
                     ) -> list[tuple[float, float, float]]:
    """(birth, death, lifespan) for every 1-dimensional homology class.

    Standard boundary-matrix reduction in density-descending order.  A loop is
    born at the density of the 1-cell creating it and dies at the density of
    the 2-cell filling it; unfilled loops die at density 0.  Lifespans are
    reported descending.
    """
    cells = list(filtration.cells)  # already density desc, dim asc on ties
    _check_closure(cells)
    pos = {c.id: i for i, c in enumerate(cells)}

    reduced: dict[int, int] = {}       # column index -> reduced bitmask
    low_to_col: dict[int, int] = {}    # pivot row -> column index
    killer_of: dict[int, int] = {}     # creator column -> killing column

    for j, cell in enumerate(cells):
        col = 0
        for fid in cell.boundary:
            col ^= 1 << pos[fid]
        while col:
            low = col.bit_length() - 1
            if low not in low_to_col:
                break
            col ^= reduced[low_to_col[low]]
        if col:
            low = col.bit_length() - 1
            low_to_col[low] = j
            reduced[j] = col
            killer_of[low] = j

    intervals = []
    for j, cell in enumerate(cells):
        if cell.dimension != 1 or j in reduced:
            continue  # only 1-cells with zero reduced column create loops
        birth = cell.density
        death = cells[killer_of[j]].density if j in killer_of else 0.0
        intervals.append((birth, death, birth - death))
    intervals.sort(key=lambda t: (-t[2], -t[0]))
    return intervals
