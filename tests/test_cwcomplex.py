import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from morsecells import (Cell, MorseFiltration, betti, loop_persistence,
                        superlevel_complex)
from morsecells.cwcomplex import components
from morsecells.errors import InvalidComplexError, InvalidInputError


def vert(cid, density=1.0, xy=(0.0, 0.0)):
    return Cell(id=cid, dimension=0, density=density, boundary=(),
                geometry=np.array([xy], dtype=float))


def edge(cid, a, b, density=1.0):
    return Cell(id=cid, dimension=1, density=density, boundary=(a, b),
                geometry=np.zeros((2, 2)))


def face(cid, edges, density=1.0):
    return Cell(id=cid, dimension=2, density=density, boundary=tuple(edges),
                geometry=np.zeros((3, 2)))


def circle_cells(density=1.0):
    """Two vertices joined by two edges: a topological circle."""
    return [vert(0, density), vert(1, density),
            edge(2, 0, 1, density), edge(3, 0, 1, density)]


# ---------------------------------------------------------------------------
# Cell / build validation

def test_cell_rejects_bad_dimension():
    with pytest.raises(InvalidInputError):
        Cell(id=0, dimension=3, density=1.0, boundary=(), geometry=np.zeros((1, 2)))


def test_cell_rejects_zero_cell_with_boundary():
    with pytest.raises(InvalidInputError):
        Cell(id=0, dimension=0, density=1.0, boundary=(1,), geometry=np.zeros((1, 2)))


def test_build_rejects_missing_face():
    with pytest.raises(InvalidComplexError):
        MorseFiltration.build([vert(0), edge(1, 0, 7)])


def test_build_rejects_duplicate_ids():
    with pytest.raises(InvalidComplexError):
        MorseFiltration.build([vert(0), vert(0)])


def test_build_rejects_wrong_face_dimension():
    cells = [vert(0), vert(1), edge(2, 0, 1), face(3, (0, 1))]
    with pytest.raises(InvalidComplexError):
        MorseFiltration.build(cells)


def test_build_clamps_density_below_faces():
    cells = [vert(0, 0.5), vert(1, 0.9), edge(2, 0, 1, 0.8)]
    filt = MorseFiltration.build(cells)
    by_id = {c.id: c for c in filt.cells}
    assert by_id[2].density == 0.5
    assert by_id[0].density == 0.5 and by_id[1].density == 0.9


def test_build_clamp_cascades_to_higher_cells():
    cells = [vert(0, 0.3), vert(1, 1.0),
             edge(2, 0, 1, 1.0), edge(3, 0, 1, 1.0),
             face(4, (2, 3), 0.9)]
    filt = MorseFiltration.build(cells)
    by_id = {c.id: c for c in filt.cells}
    assert by_id[2].density == 0.3 and by_id[3].density == 0.3
    assert by_id[4].density == 0.3


def test_build_orders_density_descending_then_dimension():
    cells = [edge(2, 0, 1, 0.7), vert(0, 0.7), vert(1, 0.9)]
    filt = MorseFiltration.build(cells)
    keys = [(-c.density, c.dimension, c.id) for c in filt.cells]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# superlevel_complex

def test_superlevel_trivial_thresholds():
    filt = MorseFiltration.build(circle_cells())
    assert len(superlevel_complex(filt, -np.inf)) == 4
    assert superlevel_complex(filt, 2.0) == []


def test_superlevel_threshold_inclusive():
    filt = MorseFiltration.build([vert(0, 0.5)])
    assert len(superlevel_complex(filt, 0.5)) == 1


def test_superlevel_nesting_and_closure():
    cells = [vert(0, 0.9), vert(1, 0.7), edge(2, 0, 1, 0.8),
             edge(3, 0, 1, 0.4), face(4, (2, 3), 0.2)]
    filt = MorseFiltration.build(cells)
    thresholds = sorted({c.density for c in filt.cells} | {0.0, 1.0})
    prev_ids = None
    for a in reversed(thresholds):
        sub = superlevel_complex(filt, a)
        ids = {c.id for c in sub}
        if prev_ids is not None:
            assert prev_ids <= ids  # superlevel models nest as a decreases
        prev_ids = ids
        betti(sub)  # closure check inside must not raise


# ---------------------------------------------------------------------------
# betti fixtures

def test_betti_empty():
    assert betti([]) == (0, 0)


def test_betti_single_vertex():
    assert betti([vert(0)]) == (1, 0)


def test_betti_circle():
    assert betti(circle_cells()) == (1, 1)


def test_betti_disk():
    cells = circle_cells() + [face(4, (2, 3))]
    assert betti(cells) == (1, 0)


def test_betti_two_components():
    cells = [vert(0), vert(1), vert(2), vert(3), edge(4, 0, 1), edge(5, 2, 3)]
    assert betti(cells) == (2, 0)


def three_circle_complex():
    """4 vertices, 8 edges: wedge-like arrangement with cycle rank 5."""
    cells = [vert(i) for i in range(4)]
    cells += [edge(4, 0, 1), edge(5, 0, 1),
              edge(6, 1, 2), edge(7, 1, 2),
              edge(8, 2, 3), edge(9, 2, 3),
              edge(10, 3, 0), edge(11, 3, 0)]
    return cells


def test_betti_three_circle_complex():
    # 8 edges on a 4-cycle of doubled edges: b1 = E - V + b0 = 8 - 4 + 1 = 5
    cells = three_circle_complex()
    b0, b1 = betti(cells)
    assert (b0, b1) == (1, 5)
    # Euler cross-check with no 2-cells: b0 - b1 = V - E
    assert b0 - b1 == 4 - 8


def test_betti_repeated_face_cancels_over_gf2():
    # a 2-cell glued twice along the same edge contributes nothing to rank
    cells = circle_cells() + [face(4, (2, 2))]
    assert betti(cells) == (1, 1)


def test_betti_filling_one_of_two_loops():
    cells = [vert(0), vert(1),
             edge(2, 0, 1), edge(3, 0, 1), edge(4, 0, 1),
             face(5, (2, 3))]
    assert betti(cells) == (1, 1)


def test_betti_closure_violation_raises():
    with pytest.raises(InvalidComplexError):
        betti([edge(2, 0, 1)])


# ---------------------------------------------------------------------------
# loop persistence

def test_persistence_square_loop():
    a, b = 0.9, 0.4
    cells = [vert(0, a), vert(1, a), edge(2, 0, 1, a), edge(3, 0, 1, b)]
    filt = MorseFiltration.build(cells)
    intervals = loop_persistence(filt)
    assert len(intervals) == 1
    birth, death, life = intervals[0]
    assert birth == pytest.approx(b)
    assert death == 0.0
    assert life == pytest.approx(b)


def test_persistence_filled_loop_dies_at_face_density():
    cells = [vert(0, 1.0), vert(1, 1.0),
             edge(2, 0, 1, 0.9), edge(3, 0, 1, 0.7),
             face(4, (2, 3), 0.3)]
    intervals = loop_persistence(MorseFiltration.build(cells))
    assert len(intervals) == 1
    assert intervals[0] == pytest.approx((0.7, 0.3, 0.4))


def test_persistence_sorted_by_lifespan_descending():
    cells = [vert(0, 1.0), vert(1, 1.0),
             edge(2, 0, 1, 0.9), edge(3, 0, 1, 0.8), edge(4, 0, 1, 0.5),
             face(5, (2, 3), 0.6)]
    intervals = loop_persistence(MorseFiltration.build(cells))
    lifespans = [t[2] for t in intervals]
    assert lifespans == sorted(lifespans, reverse=True)
    assert len(intervals) == 2


def rank_sweep_intervals(filt):
    """Threshold-sweep oracle: b1 at each threshold from independent GF(2)
    elimination, converted to interval multiplicities.

    The multiset of persistence intervals determines b1(a) = number of
    intervals with birth >= a > death; compare those counts instead of
    reconstructing pairings.
    """
    thresholds = sorted({c.density for c in filt.cells} | {0.0})
    counts = {}
    for a in thresholds:
        counts[a] = dense_gf2_b1(superlevel_complex(filt, a))
    return counts


def dense_gf2_b1(cells):
    """b1 via full dense GF(2) row reduction of both boundary matrices."""
    zeros = [c for c in cells if c.dimension == 0]
    ones = [c for c in cells if c.dimension == 1]
    twos = [c for c in cells if c.dimension == 2]
    vidx = {c.id: i for i, c in enumerate(zeros)}
    eidx = {c.id: i for i, c in enumerate(ones)}

    def rank(matrix):
        m = [row.copy() for row in matrix]
        r = 0
        cols = len(m[0]) if m else 0
        for col in range(cols):
            pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(len(m)):
                if i != r and m[i][col]:
                    m[i] = [x ^ y for x, y in zip(m[i], m[r])]
            r += 1
        return r

    d1 = [[0] * len(ones) for _ in range(len(zeros))]
    for j, e in enumerate(ones):
        for fid in e.boundary:
            d1[vidx[fid]][j] ^= 1
    d2 = [[0] * len(twos) for _ in range(len(ones))]
    for j, f in enumerate(twos):
        for fid in f.boundary:
            d2[eidx[fid]][j] ^= 1
    r1 = rank(d1) if zeros and ones else 0
    r2 = rank(d2) if ones and twos else 0
    return (len(ones) - r1) - r2


def b1_from_intervals(intervals, a):
    # a loop is alive at threshold a when birth >= a > death; classes that
    # never die (death recorded as 0) are also alive at a = 0
    return sum(1 for birth, death, _ in intervals
               if birth >= a and (a > death or (a == 0.0 and death == 0.0)))


def random_filtration(rng):
    n_v = int(rng.integers(2, 6))
    verts = [vert(i, float(rng.uniform(0.5, 1.0)), (float(i), 0.0))
             for i in range(n_v)]
    cells = list(verts)
    next_id = n_v
    parallel = {}  # endpoint pair -> edge ids (gluable face boundaries)
    for a, b in itertools.combinations(range(n_v), 2):
        for _ in range(int(rng.integers(0, 3))):
            cells.append(edge(next_id, a, b, float(rng.uniform(0.2, 1.0))))
            parallel.setdefault((a, b), []).append(next_id)
            next_id += 1
    # faces must be glued along closed edge loops; pairs of parallel edges
    # are the simplest cycles available here
    pairs = [ids for ids in parallel.values() if len(ids) >= 2]
    for ids in pairs:
        for _ in range(int(rng.integers(0, 3))):
            pick = rng.choice(ids, size=2, replace=False)
            cells.append(face(next_id, tuple(int(x) for x in pick),
                              float(rng.uniform(0.1, 0.9))))
            next_id += 1
    return MorseFiltration.build(cells)


def test_persistence_matches_rank_sweep_on_random_filtrations(rng):
    for _ in range(20):
        filt = random_filtration(rng)
        intervals = loop_persistence(filt)
        for a, expected_b1 in rank_sweep_intervals(filt).items():
            assert b1_from_intervals(intervals, a) == expected_b1, filt


def test_betti_matches_dense_oracle_on_random_filtrations(rng):
    for _ in range(20):
        filt = random_filtration(rng)
        for a in sorted({c.density for c in filt.cells}):
            cells = superlevel_complex(filt, a)
            assert betti(cells)[1] == dense_gf2_b1(cells)


def test_persistence_interval_count_equals_loop_births(rng):
    # every unfilled loop persists to 0; total interval count equals b1 at the
    # lowest positive threshold plus the number of filled loops
    filt = MorseFiltration.build(three_circle_complex())
    intervals = loop_persistence(filt)
    assert len(intervals) == 5
    assert all(death == 0.0 for _, death, _ in intervals)


# ---------------------------------------------------------------------------
# shared union-find against scipy's connected components

@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 25))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=50))


def scipy_partition(n, pairs):
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    graph = coo_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    groups = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, []).append(v)
    return sorted(groups.values())  # by smallest member, members ascending


@settings(deadline=None)
@given(random_graphs())
def test_components_match_scipy(graph):
    n, pairs = graph
    assert components(n, pairs) == scipy_partition(n, pairs)


@settings(deadline=None)
@given(random_graphs(), st.randoms(use_true_random=False))
def test_betti_b0_matches_scipy_on_random_one_skeletons(graph, shuffle):
    n, pairs = graph
    ids = list(range(n))
    shuffle.shuffle(ids)  # vertex v gets cell id ids[v]
    cells = [vert(ids[v]) for v in range(n)]
    cells += [edge(n + k, ids[i], ids[j]) for k, (i, j) in enumerate(pairs)]
    shuffle.shuffle(cells)
    assert betti(cells)[0] == len(scipy_partition(n, pairs))
