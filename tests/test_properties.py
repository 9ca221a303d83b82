"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    WIDTH,
    bitonic_merge_16,
    merge_sorted,
    parallel_mergesort,
    sequential_mergesort,
)
from repro.algorithms import Tree, tune_tree
from repro.bench.stats import boxplot_stats, linear_fit, median_ci
from repro.machine.bandwidth import smooth_min
from repro.machine.mesh import Mesh
from repro.machine.topology import GRID_COLS, GRID_ROWS
from repro.units import lines_in

int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
coords = st.tuples(
    st.integers(0, GRID_ROWS - 1), st.integers(0, GRID_COLS - 1)
)


class TestBitonicProperties:
    @given(
        a=st.lists(int32s, min_size=WIDTH, max_size=WIDTH),
        b=st.lists(int32s, min_size=WIDTH, max_size=WIDTH),
    )
    @settings(max_examples=60)
    def test_merge16_equals_sort(self, a, b):
        av = np.sort(np.array(a, dtype=np.int64))
        bv = np.sort(np.array(b, dtype=np.int64))
        lo, hi = bitonic_merge_16(av, bv)
        merged = np.concatenate([lo, hi])
        assert np.array_equal(merged, np.sort(np.concatenate([av, bv])))

    @given(
        blocks_a=st.integers(1, 6),
        blocks_b=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=30)
    def test_merge_sorted_is_permutation_and_sorted(self, blocks_a, blocks_b, data):
        a = np.sort(
            np.array(
                data.draw(
                    st.lists(int32s, min_size=blocks_a * WIDTH, max_size=blocks_a * WIDTH)
                ),
                dtype=np.int64,
            )
        )
        b = np.sort(
            np.array(
                data.draw(
                    st.lists(int32s, min_size=blocks_b * WIDTH, max_size=blocks_b * WIDTH)
                ),
                dtype=np.int64,
            )
        )
        out = merge_sorted(a, b)
        assert np.array_equal(out, np.sort(np.concatenate([a, b])))

    @given(
        n_blocks=st.integers(1, 32),
        threads=st.integers(1, 32),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_parallel_sort_equals_numpy(self, n_blocks, threads, data):
        n = n_blocks * WIDTH
        x = np.array(
            data.draw(st.lists(int32s, min_size=n, max_size=n)), dtype=np.int64
        )
        assert np.array_equal(parallel_mergesort(x, threads), np.sort(x))


@pytest.fixture(scope="module")
def cap(capability):
    return capability


class TestTunedTreeProperties:
    @given(n=st.integers(1, 48))
    @settings(max_examples=25, deadline=None)
    def test_tree_covers_and_monotone(self, cap, n):
        from repro.algorithms import tune_tree

        tuned = tune_tree(cap, n)
        tuned.tree.validate()
        assert tuned.tree.n == n
        assert tuned.model.worst_ns >= tuned.model.best_ns

    @given(n=st.integers(2, 256), m=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_barrier_rounds_constraint(self, cap, n, m):
        from repro.algorithms import rounds_for

        r = rounds_for(n, m)
        assert (m + 1) ** r >= n
        assert r == 0 or (m + 1) ** (r - 1) < n


class TestMeshProperties:
    @given(a=coords, b=coords)
    @settings(max_examples=80)
    def test_hops_symmetric_triangle(self, a, b):
        assert Mesh.hops(a, b) == Mesh.hops(b, a)
        assert Mesh.hops(a, a) == 0
        route = Mesh.route(a, b)
        assert len(route) - 1 == Mesh.hops(a, b)

    @given(a=coords, b=coords, c=coords)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert Mesh.hops(a, c) <= Mesh.hops(a, b) + Mesh.hops(b, c)


class TestStatsProperties:
    @given(
        xs=st.lists(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=200,
        )
    )
    @settings(max_examples=40)
    def test_ci_brackets_median(self, xs):
        ci = median_ci(np.array(xs), seed=1)
        assert ci.lo <= ci.median <= ci.hi

    @given(
        xs=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=40)
    def test_boxplot_invariants(self, xs):
        bp = boxplot_stats(xs)
        assert bp.q1 <= bp.median <= bp.q3
        assert bp.whisker_lo <= bp.q1 + 1e-9
        assert bp.whisker_hi >= bp.q3 - 1e-9

    @given(
        alpha=st.floats(0.0, 1e4),
        beta=st.floats(0.1, 1e3),
    )
    @settings(max_examples=40)
    def test_linear_fit_exact_recovery(self, alpha, beta):
        x = np.arange(1.0, 20.0)
        a, b = linear_fit(x, alpha + beta * x)
        assert a == pytest.approx(alpha, abs=max(1e-6, abs(alpha) * 1e-6) + 1e-4)
        assert b == pytest.approx(beta, rel=1e-6)


class TestUnitsProperties:
    @given(n=st.integers(0, 2**40))
    @settings(max_examples=60)
    def test_lines_in_covers(self, n):
        lines = lines_in(n)
        assert lines * 64 >= n
        assert (lines - 1) * 64 < n or lines == 0


class TestSmoothMinProperties:
    @given(
        d=st.floats(0.1, 1e5),
        c=st.floats(0.1, 1e5),
    )
    @settings(max_examples=60)
    def test_below_both_and_near_min(self, d, c):
        v = smooth_min(d, c)
        assert v <= min(d, c) + 1e-9
        assert v >= 0.8 * min(d, c)


def _parent_by_search(tree, rank):
    """Reference parent lookup: scan the whole tree for the node that
    lists ``rank`` as a child."""
    for nd in tree.root.walk():
        if any(c.rank == rank for c in nd.children):
            return nd.rank
    return None


class TestTreeParentsProperties:
    @staticmethod
    def _check(tree):
        parents = tree.parents()
        ranks = [nd.rank for nd in tree.root.walk()]
        assert sorted(parents) == sorted(ranks)
        for rank in ranks:
            assert parents[rank] == tree.parent_of(rank)
            assert parents[rank] == _parent_by_search(tree, rank)

    @given(data=st.data(), n=st.integers(1, 256))
    @settings(max_examples=40, deadline=None)
    def test_binomial(self, data, n):
        root = data.draw(st.integers(0, n - 1))
        self._check(Tree.binomial(n, root=root))

    @given(n=st.integers(1, 64), payload=st.sampled_from([64, 256, 4096]),
           is_reduce=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_tuned(self, capability, n, payload, is_reduce):
        self._check(tune_tree(capability, n, payload, is_reduce=is_reduce).tree)
