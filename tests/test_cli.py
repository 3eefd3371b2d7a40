"""Round trips for the three file grammars, job validation, and frozen
end-to-end runs of the command line driver."""

import contextlib
import io
import pathlib
import weakref
from fractions import Fraction

import pytest

import trihoch.cli as cli
import trihoch.hochcomplex as hochcomplex
import trihoch.spectral as spectral
from trihoch.cli import (
    JobSpec, emit_quiver, emit_simplicial, emit_triangular, main,
    parse_field, parse_quiver_file, parse_simplicial_file,
    parse_triangular_file, run_job, sniff_kind,
)
from trihoch.errors import InputError, InternalInvariantError, OracleMismatch
from trihoch.exactla import GF, QQ
from trihoch.hochcomplex import DEFAULT_ORACLE_BUDGET
from trihoch.quiver import compute_levels, path_algebra

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def read(name):
    return (DATA / name).read_text(encoding="utf-8")


def run(args):
    """Drive main() exactly as the console entry point would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestParseField:
    def test_rationals(self):
        assert parse_field("rat") is QQ

    def test_prime_field(self):
        assert parse_field("fp:7") is GF(7)
        assert parse_field("fp:32003") is GF(32003)

    def test_unknown_spec(self):
        with pytest.raises(InputError,
                           match=r"bad field spec 'xyz'; use rat or fp:"):
            parse_field("xyz")

    def test_non_integer_prime(self):
        with pytest.raises(InputError, match=r"bad field spec 'fp:xyz'"):
            parse_field("fp:xyz")


class TestSniffKind:
    @pytest.mark.parametrize("name,kind", [
        ("branching4.quiver", "quiver"),
        ("two_by_two.tri", "triangular"),
        ("triangle_boundary.simplicial", "simplicial"),
    ])
    def test_data_files(self, name, kind):
        assert sniff_kind(read(name)) == kind

    def test_comments_and_blanks_skipped(self):
        assert sniff_kind("# comment\n\n  \nfacet 1 2\n") == "simplicial"

    def test_unknown_head(self):
        with pytest.raises(InputError, match=r"cannot determine input kind"):
            sniff_kind("poset 1 2\n")

    def test_empty(self):
        with pytest.raises(InputError, match=r"empty input"):
            sniff_kind("# nothing but comments\n")


class TestRoundTrips:
    @pytest.mark.parametrize("name", [
        "branching4.quiver", "kronecker.quiver", "chain3.quiver"])
    def test_quiver(self, name):
        q = parse_quiver_file(read(name))
        q2 = parse_quiver_file(emit_quiver(q))
        assert q2.vertices == q.vertices
        assert q2.arrows == q.arrows

    @pytest.mark.parametrize("name", ["two_by_two.tri", "branching4.tri"])
    def test_triangular(self, name):
        t = parse_triangular_file(read(name), QQ)
        assert parse_triangular_file(emit_triangular(t), QQ) == t

    @pytest.mark.parametrize("name", [
        "triangle_boundary.simplicial", "tetrahedron_boundary.simplicial"])
    def test_simplicial(self, name):
        # the emitter sorts facets, so compare as sets and require the
        # emitted form to be a fixed point
        s = parse_simplicial_file(read(name))
        text = emit_simplicial(s)
        assert sorted(parse_simplicial_file(text).facets) == sorted(s.facets)
        assert emit_simplicial(parse_simplicial_file(text)) == text

    def test_quiver_and_triangular_files_agree(self):
        # the .tri file spells out the same algebra the .quiver file
        # generates through its path basis
        q = parse_quiver_file(read("branching4.quiver"))
        from_quiver = path_algebra(q, compute_levels(q), QQ)
        from_tri = parse_triangular_file(read("branching4.tri"), QQ)
        assert from_tri == from_quiver


class TestIntegralCoefficients:
    """Integral coefficients of a QQ input are parsed to ints, so every
    window built on them is eliminated in int arithmetic."""

    @staticmethod
    def entries(window):
        return [v for m in window.diffs for col in m.cols for v in col.values()]

    def test_branching4_constants_are_ints(self):
        t = parse_triangular_file(read("branching4.tri"), QQ)
        consts = [c for vec in t.total.mul.values() for c in vec.values()]
        assert consts and all(type(c) is int for c in consts)
        for w in (hochcomplex.build_relative_complex(t, 3),
                  hochcomplex.bar_oracle(t, 3)):
            vals = self.entries(w)
            assert vals and all(type(v) is int for v in vals)

    def test_non_integral_coefficient_stays_a_fraction(self):
        # A1 on the basis vector e = 2.1: e.e = 2e and the unit is e/2
        t = parse_triangular_file(
            "algebra A1 dim 1\nunit A1 : 1/2\nmul A1 : 0 0 0 4/2\n", QQ)
        unit, square = t.diag[0].unit[0], t.diag[0].mul[(0, 0)][0]
        assert type(unit) is Fraction and unit == Fraction(1, 2)
        assert type(square) is int and square == 2
        assert emit_triangular(t).splitlines()[1:] == [
            "unit A1 : 1/2", "mul A1 : 0 0 0 2"]


class TestJobSpec:
    def test_defaults(self):
        job = JobSpec("vertex a\n")
        assert job.field is QQ
        assert job.max_degree == 4
        assert job.reports == ("pages", "hochschild")
        assert job.emit == "table"
        assert job.kind is None
        assert job.oracle_budget == DEFAULT_ORACLE_BUDGET

    def test_degree_floor(self):
        with pytest.raises(InputError, match=r"max degree must be at least 1"):
            JobSpec("vertex a\n", max_degree=0)

    def test_unknown_report(self):
        with pytest.raises(InputError, match=r"unknown report 'nope'; known:"):
            JobSpec("vertex a\n", reports=("nope",))

    def test_unknown_emit(self):
        with pytest.raises(InputError, match=r"unknown output format 'csv'"):
            JobSpec("vertex a\n", emit="csv")

    def test_unknown_kind(self):
        with pytest.raises(InputError, match=r"unknown input kind 'poset'"):
            JobSpec("vertex a\n", kind="poset")

    def test_run_job_returns_text(self):
        job = JobSpec(read("kronecker.quiver"), kind="quiver",
                      max_degree=2, reports=("hochschild",))
        assert run_job(job) == "HH: 1 3\n"


BRANCHING_TABLES = (
    "[pages] r=0\n"
    "  q\\p |     0     1     2\n"
    "  -----------------------\n"
    "    4 |    34     ?     ?\n"
    "    3 |    18   484     ?\n"
    "    2 |    10   227   176\n"
    "    1 |     6    98    64\n"
    "    0 |     4    33    16\n"
    "\n"
    "[pages] r=1\n"
    "  q\\p |     0     1     2\n"
    "  -----------------------\n"
    "    4 |     0     ?     ?\n"
    "    3 |     0     0     ?\n"
    "    2 |     0     0     0\n"
    "    1 |     0     0     0\n"
    "    0 |     4    17     8\n"
    "\n"
    "[pages] r=2\n"
    "  q\\p |     0     1     2\n"
    "  -----------------------\n"
    "    4 |     0     ?     ?\n"
    "    3 |     0     0     ?\n"
    "    2 |     0     0     0\n"
    "    1 |     0     0     0\n"
    "    0 |     1     6     0\n"
    "\n"
    "[pages] r=3\n"
    "  q\\p |     0     1     2\n"
    "  -----------------------\n"
    "    4 |     0     ?     ?\n"
    "    3 |     0     0     ?\n"
    "    2 |     0     0     0\n"
    "    1 |     0     0     0\n"
    "    0 |     1     6     0\n"
    "\n"
    "HH: 1 6 0 0\n"
)

E1_REPORT = (
    "[e1-structure] projectivity hypothesis: detected\n"
    "cell p=0 q=0: labeled 4, page 4, ok   [H(A1)=1, H(A2)=1, H(A3)=2]\n"
    "cell p=0 q=1: labeled 0, page 0, ok\n"
    "cell p=0 q=2: labeled 0, page 0, ok\n"
    "cell p=0 q=3: labeled 0, page 0, ok\n"
    "cell p=0 q=4: labeled 0, page 0, ok\n"
    "cell p=1 q=0: labeled 17, page 17, ok   "
    "[Ext(M[2,1])=1, Ext(M[3,1])=8, Ext(M[3,2])=8]\n"
    "cell p=1 q=1: labeled 0, page 0, ok\n"
    "cell p=1 q=2: labeled 0, page 0, ok\n"
    "cell p=1 q=3: labeled 0, page 0, ok\n"
    "cell p=2 q=0: labeled 8, page 8, ok   [Ext(M[3,2](x)M[2,1])=8]\n"
    "cell p=2 q=1: labeled 0, page 0, ok\n"
    "cell p=2 q=2: labeled 0, page 0, ok\n"
    "agreement: all cells\n"
)

DEGENERATION_REPORT = (
    "[degeneration-check]\n"
    "tensorial: yes\n"
    "middle algebra one-dimensional: yes\n"
    "second-page differentials vanish on all reliable cells\n"
    "outer-summand classes: 9 checked, all vanish "
    "(0 skipped as non-surviving)\n"
)

ORACLE_REPORT = (
    "HH: 1 3 0\n"
    "\n"
    "[oracle-check] window 2\n"
    "degree 0: relative 1, oracle 1\n"
    "degree 1: relative 3, oracle 3\n"
    "degree 2: relative 0, oracle 0\n"
    "oracle agreement\n"
)

TRIANGLE_TSV = (
    "hochschild\t-\t-\t0\t1\n"
    "hochschild\t-\t-\t1\t1\n"
)

KRONECKER_PAGES_TSV = (
    "pages\t0\t0\t0\t2\n"
    "pages\t0\t0\t1\t2\n"
    "pages\t0\t0\t2\t2\n"
    "pages\t0\t1\t0\t4\n"
    "pages\t0\t1\t1\t8\n"
    "pages\t0\t1\t2\t?\n"
    "pages\t1\t0\t0\t2\n"
    "pages\t1\t0\t1\t0\n"
    "pages\t1\t0\t2\t0\n"
    "pages\t1\t1\t0\t4\n"
    "pages\t1\t1\t1\t0\n"
    "pages\t1\t1\t2\t?\n"
    "pages\t2\t0\t0\t1\n"
    "pages\t2\t0\t1\t0\n"
    "pages\t2\t0\t2\t0\n"
    "pages\t2\t1\t0\t3\n"
    "pages\t2\t1\t1\t0\n"
    "pages\t2\t1\t2\t?\n"
)


class TestMainGoldens:
    def test_branching_default_run(self):
        assert run([str(DATA / "branching4.quiver")]) == \
            (0, BRANCHING_TABLES, "")

    def test_single_vertex_quiver(self, tmp_path):
        p = tmp_path / "point.quiver"
        p.write_text("vertex a\n")
        assert run([str(p), "--report", "hochschild"]) == \
            (0, "HH: 1 0 0 0\n", "")

    def test_oracle_check(self):
        args = [str(DATA / "kronecker.quiver"), "--max-degree", "3",
                "--report", "hochschild,oracle-check"]
        assert run(args) == (0, ORACLE_REPORT, "")

    def test_kronecker_over_prime_field(self):
        args = [str(DATA / "kronecker.quiver"), "--max-degree", "3",
                "--report", "hochschild", "--field", "fp:32003"]
        assert run(args) == (0, "HH: 1 3 0\n", "")

    def test_e1_structure_report(self):
        args = [str(DATA / "branching4.tri"), "--report", "e1-structure"]
        assert run(args) == (0, E1_REPORT, "")

    def test_degeneration_report(self):
        args = [str(DATA / "branching4.tri"), "--report", "degeneration-check"]
        assert run(args) == (0, DEGENERATION_REPORT, "")

    def test_tsv_hochschild(self):
        args = [str(DATA / "triangle_boundary.simplicial"),
                "--max-degree", "2", "--report", "hochschild",
                "--emit", "tsv"]
        assert run(args) == (0, TRIANGLE_TSV, "")

    def test_tsv_pages(self):
        args = [str(DATA / "kronecker.quiver"), "--max-degree", "2",
                "--report", "pages", "--emit", "tsv"]
        assert run(args) == (0, KRONECKER_PAGES_TSV, "")

    def test_tsv_runs_are_deterministic(self):
        args = [str(DATA / "branching4.quiver"), "--max-degree", "3",
                "--report", "pages,hochschild", "--emit", "tsv"]
        assert run(args) == run(args)

    def test_kind_override_matches_sniffed(self):
        path = str(DATA / "chain3.quiver")
        assert run([path, "--kind", "quiver", "--report", "hochschild"]) == \
            run([path, "--report", "hochschild"])


class TestMainErrors:
    def write(self, tmp_path, text, name="in.quiver"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_unknown_vertex(self, tmp_path):
        p = self.write(tmp_path, "arrow u : a -> b\n")
        assert run([p]) == (1, "", "error: unknown vertex a at line 1\n")

    def test_duplicate_vertex(self, tmp_path):
        p = self.write(tmp_path, "vertex a\nvertex a\n")
        assert run([p]) == (1, "", "error: duplicate vertex a at line 2\n")

    def test_duplicate_arrow(self, tmp_path):
        p = self.write(tmp_path,
                       "vertex a\nvertex b\n"
                       "arrow u : a -> b\narrow u : a -> b\n")
        assert run([p]) == (1, "", "error: duplicate arrow u at line 4\n")

    def test_malformed_line(self, tmp_path):
        p = self.write(tmp_path, "arrow u a b\n")
        assert run([p]) == (1, "", "error: malformed line 1: 'arrow u a b'\n")

    def test_missing_unit(self, tmp_path):
        p = self.write(tmp_path,
                       "algebra A1 dim 1\nunit A1 : 1\nmul A1 : 0 0 0 1\n"
                       "algebra A2 dim 1\nmul A2 : 0 0 0 1\n",
                       name="in.tri")
        assert run([p]) == (1, "", "error: missing unit for A2\n")

    def test_invalid_triangular_report_is_capped(self, tmp_path):
        # 1 acts as 2 on the left of every basis vector of a 60-dim module:
        # 120 failing unit and associativity instances, reported up to 50
        lines = ["algebra A1 dim 1", "unit A1 : 1", "mul A1 : 0 0 0 1",
                 "algebra A2 dim 1", "unit A2 : 1", "mul A2 : 0 0 0 1",
                 "module M21 dim 60"]
        for m in range(60):
            lines += [f"lact M21 : 0 {m} {m} 2", f"ract M21 : {m} 0 {m} 1"]
        p = self.write(tmp_path, "\n".join(lines) + "\n", name="in.tri")
        code, out, err = run([p])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid triangular data:")
        assert len(err.splitlines()) <= 51

    def test_out_of_memory(self, monkeypatch):
        """The failed job's locals are released before the message is
        written: at a hard memory limit the message needs that memory."""
        class Window:
            pass

        held = []

        def exhaust(job):
            window = Window()
            held.append(weakref.ref(window))
            raise MemoryError

        released = []

        class Stderr(io.StringIO):
            def write(self, s):
                released.append(all(ref() is None for ref in held))
                return super().write(s)

        monkeypatch.setattr(cli, "run_job", exhaust)
        out, err = io.StringIO(), Stderr()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(DATA / "chain3.quiver")])
        out, err = out.getvalue(), err.getvalue()
        assert (code, out) == (1, "")
        assert err.startswith("error: out of memory")
        assert "--max-degree" in err and len(err.splitlines()) == 1
        assert held and released and all(released)

    def test_unknown_report(self):
        code, out, err = run([str(DATA / "chain3.quiver"),
                              "--report", "nope"])
        assert (code, out) == (1, "")
        assert err == ("error: unknown report 'nope'; known: pages, "
                       "hochschild, e1-structure, oracle-check, "
                       "degeneration-check\n")

    def test_bad_field_flag(self):
        code, out, err = run([str(DATA / "chain3.quiver"),
                              "--field", "xyz"])
        assert (code, out) == (1, "")
        assert err == "error: bad field spec 'xyz'; use rat or fp:<prime>\n"

    def test_unreadable_file(self):
        code, out, err = run(["/nonexistent/file.quiver"])
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read /nonexistent/file.quiver:")

    def test_oracle_window_floor(self):
        code, out, err = run([str(DATA / "triangle_boundary.simplicial"),
                              "--max-degree", "1",
                              "--report", "oracle-check"])
        assert (code, out) == (1, "")
        assert err == "error: oracle check needs --max-degree at least 2\n"

    @pytest.mark.parametrize("line", [
        "algebra A\u00b2 dim 1", "algebra A1 dim \u00b2",
        "mu \u00b2 2 1 : 0 0 0 1"], ids=["name", "dim", "mu_level"])
    def test_non_ascii_digit(self, tmp_path, line):
        # str.isdigit accepts a superscript two, which int() refuses
        p = self.write(tmp_path, line + "\n", name="in.tri")
        code, out, err = run([p])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(" at line 1\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,unit,bad", [
        ("fp:٣", "1", "fp:٣"), ("fp:1_1", "1", "fp:1_1"),
        ("fp: 11", "1", "fp: 11"), ("fp:+11", "1", "fp:+11"),
        ("rat", "١", "١"), ("rat", "0_1", "0_1"),
    ], ids=["field_arabic_indic", "field_underscore", "field_space",
            "field_plus", "coeff_arabic_indic", "coeff_underscore"])
    def test_numbers_read_as_ascii(self, tmp_path, field, unit, bad):
        # int() and Fraction() read each token as a number: the field as
        # GF(3) or GF(11) and the unit as 1, which makes a valid algebra
        p = self.write(tmp_path, "algebra A1 dim 1\nunit A1 : " + unit
                       + "\nmul A1 : 0 0 0 1\n", name="in.tri")
        code, out, err = run([p, "--field", field])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(bad) in err

    def test_bad_flag_value(self):
        code, out, err = run([str(DATA / "chain3.quiver"),
                              "--emit", "bogus"])
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --emit: invalid choice")


class TestExitCodes:
    def test_internal_invariant_maps_to_2(self, monkeypatch, tmp_path):
        p = tmp_path / "point.quiver"
        p.write_text("vertex a\n")

        def boom(job):
            raise InternalInvariantError("differential square is nonzero")
        monkeypatch.setattr(cli, "run_job", boom)
        assert run([str(p)]) == \
            (2, "", "error: differential square is nonzero\n")

    def test_oracle_mismatch_maps_to_3(self, monkeypatch, tmp_path):
        p = tmp_path / "point.quiver"
        p.write_text("vertex a\n")

        def boom(job):
            raise OracleMismatch("relative and bar answers differ")
        monkeypatch.setattr(cli, "run_job", boom)
        assert run([str(p)]) == \
            (3, "", "error: relative and bar answers differ\n")


ALL_REPORTS = ("pages", "hochschild", "oracle-check", "e1-structure",
               "degeneration-check")


class TestSharedWindow:
    """Every report of a job reads one filtered window and its caches."""

    # the tetrahedron is left out: its pages alone take over 10 s at L=3
    @pytest.mark.parametrize("field", ["rat", "fp:32003"])
    @pytest.mark.parametrize("name", [
        "branching4.quiver", "branching4.tri", "chain3.quiver",
        "kronecker.quiver", "triangle_boundary.simplicial",
        "two_by_two.tri"])
    def test_report_set_changes_no_report(self, name, field):
        """Each report's section is the same alone and inside the list of
        every report the input accepts, whatever the others left cached."""
        def job(reports):
            return run_job(JobSpec(read(name), field=parse_field(field),
                                   max_degree=3, reports=reports))

        alone = {}
        for rep in ALL_REPORTS:
            try:
                alone[rep] = job((rep,))
            except InputError:
                assert rep == "degeneration-check", (name, rep)
        assert len(alone) >= 4
        # table sections end in a blank line, which only the last drops
        assert job(tuple(alone)) == "\n".join(alone.values())

    def test_pages_report_drops_each_page(self, monkeypatch):
        """No page is alive while the pages report computes the next."""
        class Page(spectral.SpectralPage):
            __slots__ = ("__weakref__",)

        compute = cli.compute_page
        held, alive = [], []

        def spy(fc, r):
            alive.append(sum(ref() is not None for ref in held))
            page = compute(fc, r)
            mine = Page(page.r, page.n, page.L)
            mine.dims = page.dims
            held.append(weakref.ref(mine))
            return mine

        monkeypatch.setattr(cli, "compute_page", spy)
        code, out, _ = run([str(DATA / "branching4.tri"), "--max-degree", "3",
                            "--report", "pages"])
        assert code == 0 and out.startswith("[pages] r=0")
        assert alive == [0] * len(held) and len(held) == 4

    @staticmethod
    def spy(monkeypatch):
        """Record the relative complexes built and the (window, degree) of
        every rank taken."""
        built, ranked = [], []
        build = hochcomplex.build_relative_complex
        rank = hochcomplex.CochainWindow.rank_of_delta

        def counted_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def counted_rank(w, l, *clearing):
            ranked.append((w, l))
            return rank(w, l, *clearing)

        for mod in (hochcomplex, spectral):
            monkeypatch.setattr(mod, "build_relative_complex", counted_build)
        monkeypatch.setattr(hochcomplex.CochainWindow, "rank_of_delta",
                            counted_rank)
        return built, ranked

    def test_all_reports_build_one_window(self, monkeypatch):
        built, ranked = self.spy(monkeypatch)
        code, out, _ = run([str(DATA / "branching4.tri"), "--max-degree", "3",
                            "--report", ",".join(ALL_REPORTS)])
        assert code == 0 and "HH: 1 6 0" in out
        assert len(built) == 1
        assert sorted(l for w, l in ranked if w is built[0]) == [0, 1, 2]

    def test_refused_degeneration_check_builds_no_window(self, monkeypatch):
        built, ranked = self.spy(monkeypatch)
        code, out, err = run([str(DATA / "tetrahedron_boundary.simplicial"),
                              "--max-degree", "3",
                              "--report", "degeneration-check"])
        assert code == 1 and out == ""
        assert "requires a tensorial algebra" in err
        assert built == [] and ranked == []

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_hochschild_ranks_below_top_degree(self, monkeypatch, L):
        built, ranked = self.spy(monkeypatch)
        code, out, _ = run([str(DATA / "branching4.tri"),
                            "--max-degree", str(L), "--report", "hochschild"])
        assert code == 0 and out.startswith("HH: ")
        assert len(built) == 1
        assert [(w is built[0], l) for w, l in ranked] == \
            [(True, l) for l in range(L)]

    @pytest.mark.parametrize("field", ["rat", "fp:32003"])
    @pytest.mark.parametrize("name", [
        "branching4.tri", "kronecker.quiver", "triangle_boundary.simplicial"])
    def test_e1_structure_makes_no_page(self, monkeypatch, name, field):
        """``e1-structure`` reads page 1 from the graded pieces: alone it
        computes no page and no cycle space, and next to ``pages`` it
        prints what the two reports print alone."""
        def job(reports):
            return run_job(JobSpec(read(name), field=parse_field(field),
                                   max_degree=3, reports=reports))

        calls = []
        page, z_space = spectral.compute_page, spectral.FilteredComplex.z_space

        def counted_page(*args):
            calls.append("compute_page")
            return page(*args)

        def counted_z_space(*args):
            calls.append("z_space")
            return z_space(*args)

        for mod in (cli, spectral):
            monkeypatch.setattr(mod, "compute_page", counted_page)
        monkeypatch.setattr(spectral.FilteredComplex, "z_space",
                            counted_z_space)
        e1 = job(("e1-structure",))
        assert calls == [] and "agreement: all cells" in e1
        pages = job(("pages",))
        assert calls
        assert job(("pages", "e1-structure")) == "\n".join([pages, e1])
        assert job(("e1-structure", "pages")) == "\n".join([e1, pages])

    @pytest.mark.parametrize("report", [
        "pages", "e1-structure", "degeneration-check"])
    def test_reports_without_hh_rank_nothing(self, monkeypatch, report):
        built, ranked = self.spy(monkeypatch)
        code, _, _ = run([str(DATA / "branching4.tri"), "--max-degree", "3",
                          "--report", report])
        assert code == 0 and len(built) == 1
        assert [l for w, l in ranked if w is built[0]] == []
