"""Trajectory enumeration on the linear level quiver and the dimension
bookkeeping of the attached tensor modules."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trihoch import (
    InputError,
    Jump,
    Stay,
    Trajectory,
    TrajectoryBasis,
    enumerate_trajectories,
    module_dim,
)

from instances import chain_algebra, nilpotent_action_algebra
from test_quiver import branching_quiver
from trihoch import QQ, compute_levels, path_algebra


class TestMoves:
    def test_jump_must_go_up(self):
        with pytest.raises(InputError):
            Jump(2, 2)
        with pytest.raises(InputError):
            Jump(3, 1)

    def test_consecutiveness_enforced(self):
        with pytest.raises(InputError):
            Trajectory([Stay(2), Stay(1)], 1)
        with pytest.raises(InputError):
            Trajectory([Stay(1)], 2)

    def test_visited(self):
        # chronological: stay at 1, jump 1->2, stay, stay, jump 2->4
        tau = Trajectory([Jump(2, 4), Stay(2), Stay(2), Jump(1, 2), Stay(1)],
                         1)
        assert tau.degree == 5
        assert tau.length == 2
        assert tau.source == 1 and tau.target == 4
        assert tau.visited() == (1, 2, 4)

    def test_empty_trajectory(self):
        tau = Trajectory([], 3)
        assert tau.degree == 0 and tau.length == 0
        assert tau.source == tau.target == 3
        assert tau.visited() == (3,)


class TestEnumeration:
    def test_two_levels_degree_one(self):
        got = enumerate_trajectories(2, 1)
        assert got == [Trajectory([Stay(1)], 1),
                       Trajectory([Jump(1, 2)], 1),
                       Trajectory([Stay(2)], 2)]

    def test_three_levels_degree_one(self):
        got = enumerate_trajectories(3, 1)
        assert got == [Trajectory([Stay(1)], 1),
                       Trajectory([Jump(1, 2)], 1),
                       Trajectory([Jump(1, 3)], 1),
                       Trajectory([Stay(2)], 2),
                       Trajectory([Jump(2, 3)], 2),
                       Trajectory([Stay(3)], 3)]

    def test_two_levels_degree_two(self):
        got = enumerate_trajectories(2, 2)
        assert got == [Trajectory([Stay(1), Stay(1)], 1),
                       Trajectory([Jump(1, 2), Stay(1)], 1),
                       Trajectory([Stay(2), Jump(1, 2)], 1),
                       Trajectory([Stay(2), Stay(2)], 2)]

    def test_degree_zero_convention(self):
        got = enumerate_trajectories(4, 0)
        assert got == [Trajectory([], i) for i in range(1, 5)]

    def test_no_duplicates_and_valid(self):
        for n in (1, 2, 3, 4):
            for l in range(0, 4):
                ts = enumerate_trajectories(n, l)
                assert len(set(ts)) == len(ts)
                for tau in ts:
                    assert tau.degree == l
                    assert 1 <= tau.source <= tau.target <= n

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
        tau = Trajectory([Jump(2, 3), Jump(1, 2)], 1)
        assert module_dim(t, tau) == 4 * 1

    def test_zero_block_kills(self):
        t = nilpotent_action_algebra()
        # dim of the (2,1) block is 2, of the diagonals 2 and 1
        assert module_dim(t, Trajectory([Jump(1, 2)], 1)) == 2
        # no (j, i) block is missing here, so fabricate one via n=2 chain
        # with the module dropped
        t2 = chain_algebra(2, QQ)
        t2.mods.clear()
        assert module_dim(t2, Trajectory([Jump(1, 2)], 1)) == 0

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
                    got[tau.target - 1, tau.source - 1] += module_dim(t, tau)
                if l == 0:
                    assert np.array_equal(got, np.eye(n, dtype=np.int64))
                else:
                    assert np.array_equal(got, P)


class TestTrajectoryBasis:
    def test_indexing_roundtrip(self):
        t = nilpotent_action_algebra()
        tau = Trajectory([Stay(2), Jump(1, 2), Stay(1), Stay(1)], 1)
        basis = TrajectoryBasis.over(t, tau)
        assert basis.dim == module_dim(t, tau)
        seen = set()
        for tup in basis.tuples():
            k = basis.flat_index(tup)
            seen.add(k)
        assert seen == set(range(basis.dim))

    def test_first_slot_most_significant(self):
        t = nilpotent_action_algebra()
        tau = Trajectory([Jump(1, 2), Stay(1)], 1)
        basis = TrajectoryBasis.over(t, tau)
        # slot dims: jump block 2, stay block 2
        assert basis.dim == 4
        assert basis.flat_index((1, 0)) == 2
        assert basis.flat_index((0, 1)) == 1
