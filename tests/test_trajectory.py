"""Trajectory enumeration on the linear level quiver and the dimension
bookkeeping of the attached tensor modules.  A trajectory is its key: the
(source, target) pair of each move, last move first, then its source."""

import numpy as np
from hypothesis import given, strategies as st

from trihoch import TrajectoryBasis, enumerate_trajectories

from instances import chain_algebra, nilpotent_action_algebra
from test_quiver import branching_quiver
from trihoch import QQ, compute_levels, path_algebra


def target(tau):
    return tau[0][1] if len(tau) > 1 else tau[0]


def jumps(tau):
    return sum(a != b for a, b in tau[:-1])


def module_dim(t, tau):
    return TrajectoryBasis.over(t, tau).dim


class TestMoves:
    def test_visited(self):
        # chronological: stay at 1, jump 1->2, stay, stay, jump 2->4
        tau = ((2, 4), (2, 2), (2, 2), (1, 2), (1, 1), 1)
        assert tau in enumerate_trajectories(4, 5)
        assert len(tau) - 1 == 5
        assert jumps(tau) == 2
        assert tau[-1] == 1 and target(tau) == 4

    def test_empty_trajectory(self):
        tau = (3,)
        assert tau in enumerate_trajectories(4, 0)
        assert len(tau) - 1 == 0 and jumps(tau) == 0
        assert tau[-1] == target(tau) == 3

    def test_keys_are_consecutive(self):
        for n in range(1, 5):
            for l in range(0, 5):
                for tau in enumerate_trajectories(n, l):
                    moves, source = tau[:-1], tau[-1]
                    assert len(moves) == l and 1 <= source <= n
                    for a, b in moves:
                        assert a == b or a < b <= n
                    if moves:
                        assert moves[-1][0] == source
                    for s in range(len(moves) - 1):
                        assert moves[s + 1][1] == moves[s][0]


class TestEnumeration:
    def test_two_levels_degree_one(self):
        got = enumerate_trajectories(2, 1)
        assert got == [((1, 1), 1), ((1, 2), 1), ((2, 2), 2)]

    def test_three_levels_degree_one(self):
        got = enumerate_trajectories(3, 1)
        assert got == [((1, 1), 1), ((1, 2), 1), ((1, 3), 1),
                       ((2, 2), 2), ((2, 3), 2), ((3, 3), 3)]

    def test_two_levels_degree_two(self):
        got = enumerate_trajectories(2, 2)
        assert got == [((1, 1), (1, 1), 1),
                       ((1, 2), (1, 1), 1),
                       ((2, 2), (1, 2), 1),
                       ((2, 2), (2, 2), 2)]

    def test_degree_zero_convention(self):
        got = enumerate_trajectories(4, 0)
        assert got == [(i,) for i in range(1, 5)]

    def test_no_duplicates_and_valid(self):
        for n in (1, 2, 3, 4):
            for l in range(0, 4):
                ts = enumerate_trajectories(n, l)
                assert len(set(ts)) == len(ts)
                for tau in ts:
                    assert len(tau) - 1 == l
                    assert 1 <= tau[-1] <= target(tau) <= n

    @given(st.integers(1, 4), st.integers(0, 5))
    def test_count_matches_direct_recursion(self, n, l):
        def count_from(v, moves_left):
            if moves_left == 0:
                return 1
            total = count_from(v, moves_left - 1)  # stay
            for w in range(v + 1, n + 1):          # jumps
                total += count_from(w, moves_left - 1)
            return total

        expected = sum(count_from(v, l) for v in range(1, n + 1))
        assert len(enumerate_trajectories(n, l)) == expected


class TestModuleDims:
    def test_all_blocks_one_dimensional(self):
        t = chain_algebra(2, QQ)
        for tau in enumerate_trajectories(2, 2):
            assert module_dim(t, tau) == 1

    def test_branching_double_jump(self):
        q = branching_quiver()
        t = path_algebra(q, compute_levels(q), QQ)
        tau = ((2, 3), (1, 2), 1)
        assert module_dim(t, tau) == 4 * 1

    def test_zero_block_kills(self):
        t = nilpotent_action_algebra()
        # dim of the (2,1) block is 2, of the diagonals 2 and 1
        assert module_dim(t, ((1, 2), 1)) == 2
        # no (j, i) block is missing here, so fabricate one via n=2 chain
        # with the module dropped
        t2 = chain_algebra(2, QQ)
        t2.mods.clear()
        assert module_dim(t2, ((1, 2), 1)) == 0

    def test_decomposition_matches_matrix_power(self):
        """Sum of module dims over degree-l trajectories from i to j equals
        the (j, i) entry of the l-th power of the block-dimension matrix."""
        for t in (nilpotent_action_algebra(), chain_algebra(3, QQ)):
            n = t.n
            N = np.zeros((n, n), dtype=np.int64)
            for j in range(1, n + 1):
                for i in range(1, j + 1):
                    N[j - 1, i - 1] = t.block_dim(j, i)
            for l in range(0, 4):
                P = np.linalg.matrix_power(N, l)
                got = np.zeros((n, n), dtype=np.int64)
                for tau in enumerate_trajectories(n, l):
                    got[target(tau) - 1, tau[-1] - 1] += module_dim(t, tau)
                if l == 0:
                    assert np.array_equal(got, np.eye(n, dtype=np.int64))
                else:
                    assert np.array_equal(got, P)


class TestTrajectoryBasis:
    def test_indexing_roundtrip(self):
        t = nilpotent_action_algebra()
        tau = ((2, 2), (1, 2), (1, 1), (1, 1), 1)
        basis = TrajectoryBasis.over(t, tau)
        # slot dims: stay at 2 is 1, jump block 2, stays at 1 are 2 each
        assert basis.dim == 1 * 2 * 2 * 2
        seen = set()
        for tup in basis.tuples():
            k = basis.flat_index(tup)
            seen.add(k)
        assert seen == set(range(basis.dim))

    def test_first_slot_most_significant(self):
        t = nilpotent_action_algebra()
        tau = ((1, 2), (1, 1), 1)
        basis = TrajectoryBasis.over(t, tau)
        # slot dims: jump block 2, stay block 2
        assert basis.dim == 4
        assert basis.flat_index((1, 0)) == 2
        assert basis.flat_index((0, 1)) == 1
