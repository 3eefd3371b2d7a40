"""Acceptance gate: one test per headline claim.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Everything is exact arithmetic; there are no tolerances to
tune.  The randomized suites come from conftest.py and are seeded, so
every run checks the same instances.
"""

import time

import numpy as np
import pytest

from instances import (assert_composes_to_zero, chain_algebra,
                       intersection_dim, kronecker_algebra)
from trihoch.algebra import center, is_separable
from trihoch.cli import parse_quiver_file
from trihoch.exactla import QQ, Subspace
from trihoch.hochcomplex import bar_oracle, cohomology_dims
from trihoch.quiver import (SimplicialComplex, compute_levels,
                            incidence_algebra, path_algebra,
                            simplicial_cohomology)
from trihoch.spectral import (build_filtered, check_degeneration_A2k,
                              compute_page, cup_d1_general)

GOLDEN_QUIVER = """\
vertex a
vertex b
vertex c
vertex d
arrow u : a -> b
arrow v1 : b -> c
arrow v2 : b -> c
arrow w1 : b -> d
arrow w2 : b -> d
"""


def split_by_cell(window, v, l):
    """Break a degree-l coordinate vector into per-trajectory pieces."""
    pieces = []
    for cell in window.cells[l]:
        lo, hi = cell.offset, cell.offset + cell.dim
        piece = {k: c for k, c in v.items() if lo <= k < hi}
        if piece:
            pieces.append((cell.key, piece))
    return pieces


def test_criterion_1_golden_quiver_pages():
    """One arrow into a branch point with two double-headed exits: the
    first page concentrates in the bottom row as (4, 17, 8), the second
    collapses to (1, 6, 0), and the limit is [1, 6, 0, 0]."""
    q = parse_quiver_file(GOLDEN_QUIVER)
    start = time.perf_counter()
    t = path_algebra(q, compute_levels(q), QQ)
    fc = build_filtered(t, L=4)
    page1 = compute_page(fc, 1)
    page2 = compute_page(fc, 2)
    hh = cohomology_dims(fc.window)
    elapsed = time.perf_counter() - start

    assert [page1.dims[(p, 0)] for p in range(3)] == [4, 17, 8]
    for (p, qq), d in page1.dims.items():
        if qq > 0:
            assert d == 0, (p, qq)
    assert [page2.dims[(p, 0)] for p in range(3)] == [1, 6, 0]
    for (p, qq), d in page2.dims.items():
        if qq > 0:
            assert d == 0, (p, qq)
    assert hh[:4] == [1, 6, 0, 0]
    assert elapsed < 1.0, f"golden run took {elapsed:.2f}s"


def test_criterion_2_oracle_equivalence(suite2, suite2_oracles):
    """22 seeded instances (8 random path algebras, 6 random tensorial
    builds, 8 hand-coded, all of total dimension at most 8) agree with
    the bar-resolution oracle in degrees 0..3, exactly."""
    assert len(suite2) >= 20
    assert sum(1 for i in suite2 if i.name.startswith("path")) == 8
    assert sum(1 for i in suite2 if i.name.startswith("tensorial")) == 6
    # the hand-coded batch includes non-semisimple diagonal algebras
    assert any(not is_separable(a)
               for inst in suite2 for a in inst.t.diag)
    for inst in suite2:
        assert inst.t.total.dim <= 8, inst.name
        assert inst.hh[:4] == suite2_oracles[inst.name][:4], inst.name


def test_criterion_3_convergence(suite2):
    """On the stable page the antidiagonal dimension sums reproduce the
    cohomology of the total complex in every reliable degree."""
    for inst in suite2:
        page = compute_page(inst.fc, inst.t.n)
        for l in range(4):
            total = sum(d for (p, qq), d in page.dims.items() if p + qq == l)
            assert total == inst.hh[l], (inst.name, l)


def test_criterion_4_d1_is_cup_product(suite2):
    """The machine first differential, column by column, equals the sum
    of displayed cup-product terms applied to each representative."""
    checked = 0
    for inst in suite2:
        if inst.t.n > 4:
            continue
        t, w = inst.t, inst.fc.window
        fld = t.field
        page1 = compute_page(inst.fc, 1)
        for (p, qq), reps in sorted(page1.reps.items()):
            if not reps or (p + 1, qq) not in page1.dims:
                continue
            dmat = page1.d.get((p, qq))
            if dmat is None:
                continue
            tgt_dim = page1.dims[(p + 1, qq)]
            for j, v in enumerate(reps):
                out = {}
                for tau, piece in split_by_cell(w, v, p + qq):
                    for k, c in cup_d1_general(t, tau, piece, w).items():
                        nv = fld.add(out.get(k, fld.zero), c)
                        if nv == fld.zero:
                            out.pop(k, None)
                        else:
                            out[k] = nv
                coords = page1.class_coords(p + 1, qq, out)
                col = [dmat.cols[j].get(i, fld.zero)
                       for i in range(tgt_dim)]
                got = [fld.zero if c == 0 else c for c in coords]
                assert got == col, (inst.name, (p, qq), j)
                checked += 1
    assert checked > 50


def test_criterion_5_degeneration(degeneration_suite):
    """Five tensorial three-level instances with a one-dimensional middle
    algebra have vanishing second-page differentials on every reliable
    cell; five with wider middles still kill the differential on the
    outer-summand classes of the leftmost column."""
    mid_one, mid_wide = degeneration_suite
    assert len(mid_one) >= 5 and len(mid_wide) >= 5
    for t in mid_one:
        rep = check_degeneration_A2k(t, build_filtered(t, 4))
        assert rep["tensorial"]
        assert rep["a2_one_dimensional"]
        assert rep["d2_zero"] is True
        assert rep["outer_classes_vanish"]
    for t in mid_wide:
        rep = check_degeneration_A2k(t, build_filtered(t, 4))
        assert rep["tensorial"]
        assert not rep["a2_one_dimensional"]
        assert rep["d2_zero"] is None
        assert rep["outer_classes_vanish"]


def test_criterion_6_small_cases():
    """Kronecker: [1, 3, 0].  Linear chains of up to five levels with
    one-dimensional connecting modules: [1, 0, 0].  Both confirmed
    against the bar oracle here, not just frozen."""
    kron = kronecker_algebra()
    hh = cohomology_dims(build_filtered(kron, L=3).window)
    assert hh[:3] == [1, 3, 0]
    assert cohomology_dims(bar_oracle(kron, L=2))[:3] == [1, 3, 0]
    for n in range(2, 6):
        t = chain_algebra(n)
        hh = cohomology_dims(build_filtered(t, L=3).window)
        assert hh[:3] == [1, 0, 0], n
        assert cohomology_dims(bar_oracle(t, L=2))[:3] == [1, 0, 0], n


def test_criterion_7_incidence_vs_simplicial():
    """Incidence algebras of a circle and a two-sphere triangulation:
    the cohomology of the algebra matches simplicial cohomology of the
    complex degree by degree across the window."""
    circle = SimplicialComplex([("1", "2"), ("2", "3"), ("1", "3")])
    t = incidence_algebra(circle, QQ)
    hh = cohomology_dims(build_filtered(t, L=3).window)
    assert hh[:4] == simplicial_cohomology(circle, 3) == [1, 1, 0, 0]

    sphere = SimplicialComplex(
        [("1", "2", "3"), ("1", "2", "4"), ("1", "3", "4"), ("2", "3", "4")])
    t = incidence_algebra(sphere, QQ)
    hh = cohomology_dims(build_filtered(t, L=3).window)
    assert hh[:4] == simplicial_cohomology(sphere, 3) == [1, 0, 1, 0]


def test_criterion_8_structural_invariants(suite2, degeneration_suite):
    """Every instance of every suite: the differential squares to zero,
    it never lowers the jump count, subspace arithmetic satisfies the
    dimension formula, degree zero is the center, and each cochain degree
    has the size its trajectory decomposition predicts."""
    mid_one, mid_wide = degeneration_suite
    stock = [(inst.name, inst.t, inst.fc) for inst in suite2]
    stock += [(f"degen{k}", t, build_filtered(t, L=3))
              for k, t in enumerate(mid_one + mid_wide)]

    for name, t, fc in stock:
        w = fc.window

        # differential squares to zero
        for l in range(w.L):
            assert_composes_to_zero(w.diffs[l + 1], w.diffs[l], (name, l))

        # the differential never lowers the jump count
        for l in range(w.L + 1):
            col_tags, row_tags = w.tags[l], w.tags[l + 1]
            for c, col in enumerate(w.diffs[l].cols):
                for r in col:
                    assert row_tags[r] >= col_tags[c], (name, l)

        # modular law for the cycle and boundary subspaces
        for l in range(min(3, w.L + 1)):
            for p in range(t.n):
                u = fc.z_space(p, 1, l)
                v = Subspace.from_vectors(w.field, w.dims[l],
                                          fc.boundaries(p, 1, l))
                uv = Subspace.from_vectors(w.field, w.dims[l],
                                           u.rows + v.rows)
                assert (u.dim + v.dim == uv.dim
                        + intersection_dim(u, v)), (name, p, l)

        # degree zero is the center of the algebra
        assert cohomology_dims(w)[0] == center(t.total).dim, name

        # counting: block-dimension matrix powers predict every degree
        n = t.n
        N = np.zeros((n, n), dtype=np.int64)
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                N[j - 1, i - 1] = t.block_dim(j, i)
        for l in range(w.L + 2):
            P = np.linalg.matrix_power(N, l)
            expect = sum(int(P[j - 1, i - 1]) * t.block_dim(j, i)
                         for j in range(1, n + 1)
                         for i in range(1, j + 1))
            assert w.dims[l] == expect, (name, l)
