import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from morsecells import (Cell, MorseFiltration, betti, loop_persistence,
                        superlevel_complex)
from morsecells.cwcomplex import components, implicit_step_matrix, laplacian, relax
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


@pytest.mark.parametrize("boundary", [(), (0,), (0, 1, 3)])
def test_cell_rejects_one_cell_without_two_faces(boundary):
    with pytest.raises(InvalidInputError):
        Cell(id=2, dimension=1, density=1.0, boundary=boundary,
             geometry=np.zeros((2, 2)))


@pytest.mark.parametrize("density", [np.nan, np.inf, -np.inf])
def test_cell_rejects_non_finite_density(density):
    with pytest.raises(InvalidInputError):
        vert(0, density=density)


def test_cell_accepts_self_loop():
    assert edge(1, 0, 0).boundary == (0, 0)


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


def path_complex():
    """Vertices 0-2, edges 3 = (0, 1), 4 = (1, 2), 5 = (0, 1), 6 = (0, 0)."""
    return [vert(0), vert(1), vert(2), edge(3, 0, 1), edge(4, 1, 2),
            edge(5, 0, 1), edge(6, 0, 0)]


@pytest.mark.parametrize("boundary", [(3,), (3, 4), (3, 3, 5), (3, 5, 6, 4)])
def test_face_not_glued_along_a_cycle_rejected(boundary):
    # some vertex meets the boundary edges an odd number of times
    cells = path_complex() + [face(7, boundary)]
    with pytest.raises(InvalidComplexError, match="not a cycle"):
        MorseFiltration.build(cells)
    with pytest.raises(InvalidComplexError, match="not a cycle"):
        betti(cells)


@pytest.mark.parametrize("boundary", [(3, 5), (6,), (3, 3), (3, 5, 6)])
def test_face_glued_along_a_cycle_accepted(boundary):
    cells = path_complex() + [face(7, boundary)]
    MorseFiltration.build(cells)
    betti(cells)


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


def _tree_path(tree, a, b):
    """Edge ids on the forest path from a to b, or None when not connected."""
    stack, seen = [(a, frozenset())], {a}
    while stack:
        v, path = stack.pop()
        if v == b:
            return path
        for w, eid in tree[v]:
            if w not in seen:
                seen.add(w)
                stack.append((w, path | {eid}))
    return None


@st.composite
def random_complexes(draw):
    """Cells of a random 2-complex with tied and clamped densities.

    Edges may be parallel or self-loops.  Each face is glued along a GF(2)
    sum of fundamental cycles of the 1-skeleton, so its boundary is closed.
    """
    n = draw(st.integers(1, 6))
    density = st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]) | st.floats(0.05, 1.0)
    cells = [vert(v, draw(density)) for v in range(n)]
    tree = {v: [] for v in range(n)}  # spanning forest: vertex -> [(vertex, edge)]
    cycles = []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=10))
    for eid, (a, b) in enumerate(pairs, start=n):
        cells.append(edge(eid, a, b, draw(density)))
        path = _tree_path(tree, a, b)
        if path is None:
            tree[a].append((b, eid))
            tree[b].append((a, eid))
        else:
            cycles.append(path ^ {eid})
    next_id = n + len(pairs)
    for _ in range(draw(st.integers(0, 4)) if cycles else 0):
        picks = draw(st.lists(st.sampled_from(cycles), min_size=1, max_size=3))
        boundary = frozenset()
        for cycle in picks:
            boundary ^= cycle
        if boundary:
            cells.append(face(next_id, sorted(boundary), draw(density)))
            next_id += 1
    return cells


@settings(deadline=None, max_examples=300)
@given(random_complexes())
def test_betti_matches_dense_oracle_on_hypothesis_complexes(cells):
    filt = MorseFiltration.build(cells)
    for a in sorted({c.density for c in filt.cells} | {0.0}):
        sub = superlevel_complex(filt, a)
        assert betti(sub)[1] == dense_gf2_b1(sub)


@settings(deadline=None, max_examples=300)
@given(random_complexes())
def test_persistence_matches_dense_oracle_on_hypothesis_complexes(cells):
    filt = MorseFiltration.build(cells)
    intervals = loop_persistence(filt)
    for a in sorted({c.density for c in filt.cells} | {0.0}):
        assert (b1_from_intervals(intervals, a)
                == dense_gf2_b1(superlevel_complex(filt, a)))


def test_persistence_interval_count_equals_loop_births(rng):
    # every unfilled loop persists to 0; total interval count equals b1 at the
    # lowest positive threshold plus the number of filled loops
    filt = MorseFiltration.build(three_circle_complex())
    intervals = loop_persistence(filt)
    assert len(intervals) == 5
    assert all(death == 0.0 for _, death, _ in intervals)


# ---------------------------------------------------------------------------
# shared components routine against scipy's connected components

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
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        adjacency[[i, j], [j, i]] = True
    assert components(adjacency) == scipy_partition(n, pairs)


@settings(deadline=None)
@given(random_graphs())
def test_laplacian_matches_edge_by_edge_sum(graph):
    n, pairs = graph
    expected = np.zeros((n, n))
    for i, j in pairs:
        if i != j:  # a self-loop adds to neither degree nor adjacency
            expected[[i, j], [j, i]] -= 1.0
            expected[[i, j], [i, j]] += 1.0
    assert np.array_equal(laplacian(n, pairs), expected)


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


# relax at the implicit step of a path graph of five vertices in the plane;
# item k runs from (0, 0) to (1, k), so a force callback can tell the items apart
PATH = laplacian(5, [(i, i + 1) for i in range(4)])
PATH_INTERIOR = np.arange(1, 4)
PATH_STEP = implicit_step_matrix(PATH, PATH_INTERIOR, 0.5)


def _path_stack(items: int) -> np.ndarray:
    stack = np.random.default_rng(0).uniform(-1.0, 2.0, (items, 5, 2))
    stack[:, 0] = 0.0
    stack[:, -1] = np.c_[np.ones(items), np.arange(items)]
    return stack


def _springs(stack):
    return stack[:, :-2] - 2.0 * stack[:, 1:-1] + stack[:, 2:]


def test_relax_springs_space_a_path_evenly():
    stack = _path_stack(3)
    out, iterations, item_steps, final = relax(stack, PATH_STEP, PATH_INTERIOR,
                                               _springs, 1e-8, 10_000)
    for x, start in zip(out, stack):
        assert np.allclose(x, np.linspace(start[0], start[-1], 5), atol=1e-7)
        assert np.array_equal(x[[0, -1]], start[[0, -1]])
    assert 1 < iterations <= item_steps <= 3 * iterations
    assert 0.0 < final < 1e-8


def test_relax_out_of_steps_gives_none():
    out, iterations, item_steps, final = relax(_path_stack(1), PATH_STEP, PATH_INTERIOR,
                                               _springs, 1e-8, 3)
    assert out == [None]
    assert iterations == item_steps == 4  # a force evaluation per step and one at the end
    assert final == 0.0


def test_relax_non_finite_item_leaves_its_stack_mate_alone():
    calls = []

    def forces(stack):
        calls.append(len(stack))
        force = _springs(stack)
        if len(calls) >= 3:
            force[stack[:, -1, 1] == 0.0] = np.nan
        return force

    stack = _path_stack(2)
    out, iterations, item_steps, _ = relax(stack, PATH_STEP, PATH_INTERIOR, forces,
                                           1e-8, 10_000)
    alone, *_ = relax(stack[1:], PATH_STEP, PATH_INTERIOR, _springs, 1e-8, 10_000)
    assert out[0] is None
    assert np.array_equal(out[1], alone[0])
    assert item_steps == iterations + 3  # item 0 left after its third evaluation


def test_relax_slice_interior_matches_index_array():
    stack = _path_stack(3)
    by_index = relax(stack, PATH_STEP, PATH_INTERIOR, _springs, 1e-8, 10_000)
    by_slice = relax(stack, implicit_step_matrix(PATH, slice(1, 4), 0.5), slice(1, 4),
                     _springs, 1e-8, 10_000)
    assert by_slice[1:] == by_index[1:]
    assert all(np.array_equal(a, b) for a, b in zip(by_slice[0], by_index[0]))


def test_relax_item_converges_on_the_step_another_turns_non_finite():
    seen = []

    def forces(stack):
        seen.append(stack.copy())
        force = _springs(stack)
        end = stack[:, -1, 1]
        if len(seen) == 3:
            force[end == 0.0] = np.nan  # item 0 leaves as non-finite after this step
            force[end == 1.0] = 0.0  # and item 1 converges on it
        if len(seen) == 4:
            force[end == 4.0] = np.nan  # item 4 turns non-finite on a step of its own
        if len(seen) == 5:
            force[end == 3.0] = 0.0  # and item 3 converges on one
        return force

    stack = _path_stack(5)
    out, iterations, item_steps, _ = relax(stack, PATH_STEP, PATH_INTERIOR, forces,
                                           1e-8, 10_000)
    alone, alone_iterations, *_ = relax(stack[2:3], PATH_STEP, PATH_INTERIOR, _springs,
                                        1e-8, 10_000)
    assert [len(s) for s in seen[:6]] == [5, 5, 5, 3, 2, 1]
    assert out[0] is None and out[4] is None
    assert np.array_equal(out[1], seen[2][1])
    assert np.array_equal(out[3], seen[4][1])
    assert np.array_equal(out[2], alone[0])
    assert iterations == alone_iterations
    assert item_steps == iterations + 2 * 3 + 4 + 5
