"""Quivers, level structures, path algebras, incidence algebras, and the
simplicial-cochain oracle."""

import pytest

from trihoch import (
    QQ,
    InputError,
    LevelAssignment,
    Quiver,
    SimplicialComplex,
    build_relative_complex,
    check_acyclic,
    cohomology_dims,
    compute_levels,
    enumerate_paths,
    incidence_algebra,
    path_algebra,
    simplicial_cohomology,
    validate_triangular,
)

from instances import FP


def branching_quiver():
    """One source, one middle vertex, two sinks fed by double arrows."""
    return Quiver(["a", "b", "c", "d"],
                  [("u", "a", "b"),
                   ("v1", "b", "c"), ("v2", "b", "c"),
                   ("w1", "b", "d"), ("w2", "b", "d")])


class TestAcyclicity:
    def test_single_arrow(self):
        assert check_acyclic(Quiver(["a", "b"], [("u", "a", "b")]))

    def test_self_loop(self):
        assert not check_acyclic(Quiver(["a"], [("u", "a", "a")]))

    def test_two_cycle(self):
        q = Quiver(["a", "b"], [("u", "a", "b"), ("v", "b", "a")])
        assert not check_acyclic(q)

    def test_branching_quiver(self):
        assert check_acyclic(branching_quiver())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            Quiver(["a", "a"], [])
        with pytest.raises(InputError):
            Quiver(["a", "b"], [("u", "a", "b"), ("u", "a", "b")])


class TestLevels:
    def test_chain(self):
        q = Quiver(["a", "b", "c"], [("u", "a", "b"), ("v", "b", "c")])
        lv = compute_levels(q)
        assert lv.level == {"a": 1, "b": 2, "c": 3} and lv.n == 3

    def test_join(self):
        q = Quiver(["a", "b", "c"], [("u", "a", "c"), ("v", "b", "c")])
        lv = compute_levels(q)
        assert lv.level == {"a": 1, "b": 1, "c": 2} and lv.n == 2

    def test_branching_quiver(self):
        lv = compute_levels(branching_quiver())
        assert lv.level == {"a": 1, "b": 2, "c": 3, "d": 3} and lv.n == 3

    def test_strict_increase_along_arrows(self):
        q = branching_quiver()
        lv = compute_levels(q)
        for (_, s, t) in q.arrows:
            assert lv.level[s] < lv.level[t]

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            compute_levels(Quiver(["a"], [("u", "a", "a")]))


class TestPathEnumeration:
    def test_single_vertex(self):
        q = Quiver(["a"], [])
        groups = enumerate_paths(q, compute_levels(q))
        assert groups == {(1, 1): [("a", ())]}

    def test_chain_has_six_paths(self):
        q = Quiver(["a", "b", "c"], [("u", "a", "b"), ("v", "b", "c")])
        groups = enumerate_paths(q, compute_levels(q))
        assert sum(len(g) for g in groups.values()) == 6
        assert groups[(1, 3)] == [("a", ("u", "v"))]

    def test_branching_has_thirteen_paths(self):
        q = branching_quiver()
        groups = enumerate_paths(q, compute_levels(q))
        assert sum(len(g) for g in groups.values()) == 13
        # 1 -> 3: u then one of the four top arrows
        assert len(groups[(1, 3)]) == 4


class TestPathAlgebra:
    def test_branching_block_layout(self):
        q = branching_quiver()
        t = path_algebra(q, compute_levels(q), QQ)
        assert t.n == 3
        assert [a.dim for a in t.diag] == [1, 1, 2]
        assert t.block_dim(2, 1) == 1
        assert t.block_dim(3, 2) == 4
        assert t.block_dim(3, 1) == 4
        assert t.total.dim == 13
        assert validate_triangular(t) == []

    def test_chain_two(self):
        q = Quiver(["a", "b"], [("u", "a", "b")])
        t = path_algebra(q, compute_levels(q), QQ)
        assert [a.dim for a in t.diag] == [1, 1]
        assert t.block_dim(2, 1) == 1
        assert t.total.dim == 3

    def test_kronecker(self):
        q = Quiver(["a", "b"], [("u", "a", "b"), ("v", "a", "b")])
        t = path_algebra(q, compute_levels(q), QQ)
        assert [a.dim for a in t.diag] == [1, 1]
        assert t.block_dim(2, 1) == 2
        assert validate_triangular(t) == []

    def test_dimension_is_path_count(self):
        for q in (branching_quiver(),
                  Quiver(["a", "b", "c"], [("u", "a", "b"), ("v", "b", "c"),
                                           ("w", "a", "c")])):
            levels = compute_levels(q)
            t = path_algebra(q, levels, FP)
            assert t.total.dim == sum(
                len(g) for g in enumerate_paths(q, levels).values())

    def test_given_levels_group_the_paths(self):
        # valid levels other than the longest-path ones: c sits on level 4
        # and level 3 is empty
        q = Quiver(["a", "b", "c"], [("u", "a", "b"), ("v", "b", "c"),
                                     ("w", "a", "c")])
        t = path_algebra(q, LevelAssignment({"a": 1, "b": 2, "c": 4}, 4), QQ)
        assert t.n == 4 and t.total.dim == 7
        assert validate_triangular(t) == []
        t0 = path_algebra(q, compute_levels(q), QQ)
        assert (cohomology_dims(build_relative_complex(t, 3))
                == cohomology_dims(build_relative_complex(t0, 3))
                == [1, 2, 0, 0])

    def test_composition_is_path_concatenation(self):
        q = Quiver(["a", "b", "c"], [("u", "a", "b"), ("v", "b", "c")])
        t = path_algebra(q, compute_levels(q), QQ)
        mu = t.mu(3, 2, 1)
        assert mu is not None
        # single generators compose to the single length-2 path
        assert mu.pair_apply(0, 0) == {0: QQ.one}


class TestIncidenceAlgebra:
    def test_single_vertex(self):
        t = incidence_algebra(SimplicialComplex([("a",)]), QQ)
        assert t.n == 1 and t.total.dim == 1

    def test_one_edge(self):
        t = incidence_algebra(SimplicialComplex([("a", "b")]), QQ)
        assert [a.dim for a in t.diag] == [2, 1]
        assert t.block_dim(2, 1) == 2
        assert validate_triangular(t) == []

    def test_triangle_boundary(self):
        s = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
        t = incidence_algebra(s, QQ)
        assert [a.dim for a in t.diag] == [3, 3]
        assert t.block_dim(2, 1) == 6
        assert validate_triangular(t) == []

    def test_empty_complex_rejected(self):
        with pytest.raises(InputError):
            SimplicialComplex([])


class TestSimplicialCohomology:
    def test_point(self):
        assert simplicial_cohomology(SimplicialComplex([("a",)]), 2) == [1, 0, 0]

    def test_circle(self):
        s = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
        assert simplicial_cohomology(s, 2) == [1, 1, 0]

    def test_sphere(self):
        s = SimplicialComplex([("a", "b", "c"), ("a", "b", "d"),
                               ("a", "c", "d"), ("b", "c", "d")])
        assert simplicial_cohomology(s, 3) == [1, 0, 1, 0]

    def test_solid_triangle_contractible(self):
        s = SimplicialComplex([("a", "b", "c")])
        assert simplicial_cohomology(s, 2) == [1, 0, 0]
