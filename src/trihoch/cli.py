"""Command-line front end: input-file parsing, job orchestration, and
table/TSV report emission.

Three line-oriented input formats are accepted, sniffed from the first
keyword when --kind is not given:

quiver files
    vertex <label>
    arrow <label> : <src> -> <dst>

triangular files (levels are single digits, so at most 9 of them)
    algebra A<i> dim <d>
    unit A<i> : <d coefficients>
    mul A<i> : <a> <b> <c> <coeff>          (basis_a * basis_b has coeff on basis_c)
    module M<j><i> dim <d>
    lact M<j><i> : <a> <m> <m'> <coeff>     (A_j basis_a acting on the left)
    ract M<j><i> : <m> <a> <m'> <coeff>     (A_i basis_a acting on the right)
    mu <l> <j> <i> : <y> <x> <z> <coeff>    (M[l,j] (x) M[j,i] -> M[l,i])

simplicial files
    facet <v1> <v2> ...

Coefficients are integers or fractions p/q; '#' starts a comment.  Exit
codes: 0 success, 1 input or validation error, 2 internal invariant
failure, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import (Bimodule, BimoduleMap, FiniteDimAlgebra,
                      TriangularAlgebra, validate_triangular)
from .errors import (InputError, InternalInvariantError, OracleMismatch,
                     TrihochError)
from .exactla import GF, QQ
from .hochcomplex import (DEFAULT_ORACLE_BUDGET, bar_budget_estimate,
                          bar_oracle, cohomology_dims)
from .quiver import (Quiver, SimplicialComplex, compute_levels, incidence_algebra,
                     path_algebra)
from .spectral import (build_filtered, check_degeneration_A2k, compute_page,
                       e1_structure_report, require_degeneration_hypotheses)

KNOWN_REPORTS = ("pages", "hochschild", "e1-structure", "oracle-check",
                 "degeneration-check")


# ---------------------------------------------------------------------------
# parsing


def _lines(text):
    """(line number, token list) for every nonempty non-comment line."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def parse_quiver_file(text):
    vertices, arrows = [], []
    vseen, aseen = set(), set()
    for ln, toks in _lines(text):
        if toks[0] == "vertex" and len(toks) == 2:
            v = toks[1]
            if v in vseen:
                raise InputError(f"duplicate vertex {v} at line {ln}")
            vseen.add(v)
            vertices.append(v)
        elif (toks[0] == "arrow" and len(toks) == 6 and toks[2] == ":"
              and toks[4] == "->"):
            lab, src, dst = toks[1], toks[3], toks[5]
            if lab in aseen:
                raise InputError(f"duplicate arrow {lab} at line {ln}")
            for v in (src, dst):
                if v not in vseen:
                    raise InputError(f"unknown vertex {v} at line {ln}")
            aseen.add(lab)
            arrows.append((lab, src, dst))
        else:
            raise InputError(f"malformed line {ln}: {' '.join(toks)!r}")
    return Quiver(vertices, arrows)


def emit_quiver(q):
    out = [f"vertex {v}" for v in q.vertices]
    out += [f"arrow {lab} : {s} -> {t}" for (lab, s, t) in q.arrows]
    return "\n".join(out) + "\n"


def _coeff(field, tok, ln):
    """``tok`` as a field element, read by ``Fraction`` from ASCII without
    underscores, which ``Fraction`` alone would accept."""
    try:
        if tok.isascii() and "_" not in tok:
            return field.of(tok)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"bad coefficient {tok!r} at line {ln}")


def _int(tok, bad, ln=None):
    """``tok`` as an integer: ASCII digits after an optional minus sign.
    Any other token is the input error ``bad``, at line ``ln`` if given."""
    digits = tok[1:] if tok[:1] == "-" else tok
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(bad if ln is None else f"{bad} at line {ln}")
    return int(tok)


def _alg_index(tok, ln):
    bad = f"bad algebra name {tok!r}"
    if len(tok) == 2 and tok[0] == "A" and tok[1] != "0":
        return _int(tok[1], bad, ln)
    raise InputError(f"{bad} at line {ln}")


def _mod_index(tok, ln):
    bad = f"bad module name {tok!r}"
    if len(tok) == 3 and tok[0] == "M" and "0" not in tok:
        j, i = _int(tok[1], bad, ln), _int(tok[2], bad, ln)
        if j > i:
            return j, i
    raise InputError(f"{bad} at line {ln}")


def _int_in(tok, bound, ln, what):
    v = _int(tok, f"bad index {tok!r}", ln)
    if not (0 <= v < bound):
        raise InputError(f"{what} index {v} out of range at line {ln}")
    return v


def _accum(field, table, key, pos, c):
    vec = table.setdefault(key, {})
    nv = field.add(vec.get(pos, field.zero), c)
    if nv == field.zero:
        vec.pop(pos, None)
        if not vec:
            table.pop(key, None)
    else:
        vec[pos] = nv


def parse_triangular_file(text, field=None):
    field = field or QQ
    adim = {}       # i -> dim
    units = {}      # i -> sparse vector
    muls = {}       # i -> {(a,b): vec}
    mdim = {}       # (j,i) -> dim
    lacts = {}      # (j,i) -> {(a,m): vec}
    racts = {}      # (j,i) -> {(m,a): vec}
    mus = {}        # (l,j,i) -> {(y,x): vec}

    for ln, toks in _lines(text):
        head = toks[0]
        if head == "algebra" and len(toks) == 4 and toks[2] == "dim":
            i = _alg_index(toks[1], ln)
            if i in adim:
                raise InputError(f"algebra A{i} declared twice at line {ln}")
            adim[i] = _int_in(toks[3], 10**6, ln, "dimension")
        elif head == "unit" and len(toks) >= 3 and toks[2] == ":":
            i = _alg_index(toks[1], ln)
            if i not in adim:
                raise InputError(f"unit before algebra A{i} at line {ln}")
            coeffs = toks[3:]
            if len(coeffs) != adim[i]:
                raise InputError(
                    f"unit for A{i} needs {adim[i]} coefficients at line {ln}")
            vec = {}
            for k, tok in enumerate(coeffs):
                c = _coeff(field, tok, ln)
                if c != field.zero:
                    vec[k] = c
            units[i] = vec
        elif head == "mul" and len(toks) == 7 and toks[2] == ":":
            i = _alg_index(toks[1], ln)
            if i not in adim:
                raise InputError(f"mul before algebra A{i} at line {ln}")
            d = adim[i]
            a = _int_in(toks[3], d, ln, "basis")
            b = _int_in(toks[4], d, ln, "basis")
            c = _int_in(toks[5], d, ln, "basis")
            _accum(field, muls.setdefault(i, {}), (a, b), c,
                   _coeff(field, toks[6], ln))
        elif head == "module" and len(toks) == 4 and toks[2] == "dim":
            j, i = _mod_index(toks[1], ln)
            if (j, i) in mdim:
                raise InputError(f"module M{j}{i} declared twice at line {ln}")
            mdim[(j, i)] = _int_in(toks[3], 10**6, ln, "dimension")
        elif head in ("lact", "ract") and len(toks) == 7 and toks[2] == ":":
            j, i = _mod_index(toks[1], ln)
            if (j, i) not in mdim:
                raise InputError(
                    f"{head} before module M{j}{i} at line {ln}")
            lvl = j if head == "lact" else i
            if lvl not in adim:
                raise InputError(f"{head} before algebra A{lvl} at line {ln}")
            d = mdim[(j, i)]
            da = adim[lvl]
            if head == "lact":
                a = _int_in(toks[3], da, ln, "basis")
                m = _int_in(toks[4], d, ln, "basis")
                key = (a, m)
                table = lacts.setdefault((j, i), {})
            else:
                m = _int_in(toks[3], d, ln, "basis")
                a = _int_in(toks[4], da, ln, "basis")
                key = (m, a)
                table = racts.setdefault((j, i), {})
            mp = _int_in(toks[5], d, ln, "basis")
            _accum(field, table, key, mp, _coeff(field, toks[6], ln))
        elif head == "mu" and len(toks) == 9 and toks[4] == ":":
            bad = "mu levels must strictly descend"
            l, j, i = (_int(tok, bad, ln) for tok in toks[1:4])
            if not (l > j > i >= 1):
                raise InputError(f"{bad} at line {ln}")
            for pair in ((l, j), (j, i), (l, i)):
                if pair not in mdim:
                    raise InputError(
                        f"mu before module M{pair[0]}{pair[1]} at line {ln}")
            y = _int_in(toks[5], mdim[(l, j)], ln, "basis")
            x = _int_in(toks[6], mdim[(j, i)], ln, "basis")
            z = _int_in(toks[7], mdim[(l, i)], ln, "basis")
            _accum(field, mus.setdefault((l, j, i), {}), (y, x), z,
                   _coeff(field, toks[8], ln))
        else:
            raise InputError(f"malformed line {ln}: {' '.join(toks)!r}")

    if not adim:
        raise InputError("no algebra declarations found")
    n = max(max(adim), max((j for (j, _) in mdim), default=1))
    for i in range(1, n + 1):
        if i not in adim:
            raise InputError(f"missing algebra A{i}")
        if i not in units:
            raise InputError(f"missing unit for A{i}")

    diag = [FiniteDimAlgebra(field, adim[i], muls.get(i, {}), units[i],
                             label=f"A{i}")
            for i in range(1, n + 1)]
    mods = {}
    for (j, i), d in sorted(mdim.items()):
        mods[(j, i)] = Bimodule(field, d, diag[j - 1], diag[i - 1],
                                lacts.get((j, i), {}), racts.get((j, i), {}),
                                label=f"M{j}{i}")
    maps = {}
    for (l, j, i), pair in sorted(mus.items()):
        maps[(l, j, i)] = BimoduleMap(mods[(l, j)], mods[(j, i)],
                                      mods[(l, i)], pair)
    t = TriangularAlgebra(field, n, diag, mods, maps)
    bad = validate_triangular(t)
    if bad:
        raise InputError("invalid triangular data:\n  " + "\n  ".join(bad))
    return t


def emit_triangular(t):
    out = []
    for i in range(1, t.n + 1):
        a = t.diag[i - 1]
        out.append(f"algebra A{i} dim {a.dim}")
        unit = " ".join(str(a.unit.get(k, 0)) for k in range(a.dim))
        out.append(f"unit A{i} : {unit}")
        for (x, y) in sorted(a.mul):
            for z, c in sorted(a.mul[(x, y)].items()):
                out.append(f"mul A{i} : {x} {y} {z} {c}")
    for (j, i) in sorted(t.mods):
        m = t.mods[(j, i)]
        out.append(f"module M{j}{i} dim {m.dim}")
        for (a, x) in sorted(m.lact):
            for z, c in sorted(m.lact[(a, x)].items()):
                out.append(f"lact M{j}{i} : {a} {x} {z} {c}")
        for (x, a) in sorted(m.ract):
            for z, c in sorted(m.ract[(x, a)].items()):
                out.append(f"ract M{j}{i} : {x} {a} {z} {c}")
    for (l, j, i) in sorted(t.mus):
        mu = t.mus[(l, j, i)]
        for (y, x) in sorted(mu.pair):
            for z, c in sorted(mu.pair[(y, x)].items()):
                out.append(f"mu {l} {j} {i} : {y} {x} {z} {c}")
    return "\n".join(out) + "\n"


def parse_simplicial_file(text):
    facets = []
    for ln, toks in _lines(text):
        if toks[0] == "facet" and len(toks) >= 2:
            facets.append(tuple(toks[1:]))
        else:
            raise InputError(f"malformed line {ln}: {' '.join(toks)!r}")
    if not facets:
        raise InputError("no facets found")
    return SimplicialComplex(facets)


def emit_simplicial(s):
    return "\n".join("facet " + " ".join(fac)
                     for fac in sorted(s.facets)) + "\n"


def sniff_kind(text):
    for _, toks in _lines(text):
        head = toks[0]
        if head in ("vertex", "arrow"):
            return "quiver"
        if head == "facet":
            return "simplicial"
        if head in ("algebra", "unit", "mul", "module", "lact", "ract", "mu"):
            return "triangular"
        raise InputError(f"cannot determine input kind from {head!r}")
    raise InputError("empty input")


# ---------------------------------------------------------------------------
# jobs


class JobSpec:
    """One orchestrated run: what to read, over which field, how deep,
    and which reports to emit in which format."""

    __slots__ = ("kind", "field", "max_degree", "reports", "emit", "source",
                 "oracle_budget")

    def __init__(self, source, kind=None, field=None, max_degree=4,
                 reports=("pages", "hochschild"), emit="table",
                 oracle_budget=DEFAULT_ORACLE_BUDGET):
        if max_degree < 1:
            raise InputError("max degree must be at least 1")
        for r in reports:
            if r not in KNOWN_REPORTS:
                raise InputError(
                    f"unknown report {r!r}; known: {', '.join(KNOWN_REPORTS)}")
        if emit not in ("table", "tsv"):
            raise InputError(f"unknown output format {emit!r}")
        if kind not in (None, "quiver", "triangular", "simplicial"):
            raise InputError(f"unknown input kind {kind!r}")
        self.source = source
        self.kind = kind
        self.field = field or QQ
        self.max_degree = max_degree
        self.reports = tuple(reports)
        self.emit = emit
        self.oracle_budget = oracle_budget


def _build_algebra(job):
    kind = job.kind or sniff_kind(job.source)
    if kind == "quiver":
        q = parse_quiver_file(job.source)
        return path_algebra(q, compute_levels(q), job.field)
    if kind == "triangular":
        return parse_triangular_file(job.source, job.field)
    s = parse_simplicial_file(job.source)
    return incidence_algebra(s, job.field)


def _pages_section(t, fc, L, emit):
    lines = []
    for r in range(t.n + 1):
        # only the dims are kept, so a page is gone before the next starts
        dims = compute_page(fc, r).dims
        if emit == "tsv":
            for p in range(t.n):
                for q in range(L + 1):
                    val = dims.get((p, q), "?") if p + q <= L else "?"
                    lines.append(f"pages\t{r}\t{p}\t{q}\t{val}")
            continue
        lines.append(f"[pages] r={r}")
        header = "  q\\p |" + "".join(f"{p:>6}" for p in range(t.n))
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for q in range(L, -1, -1):
            row = f"{q:>5} |"
            for p in range(t.n):
                val = dims.get((p, q), "?") if p + q <= L else "?"
                row += f"{val:>6}"
            lines.append(row)
        lines.append("")
    return lines


def _hochschild_section(hh, emit):
    if emit == "tsv":
        return [f"hochschild\t-\t-\t{l}\t{v}" for l, v in enumerate(hh)]
    return ["HH: " + " ".join(str(v) for v in hh), ""]


def _e1_section(t, fc, emit):
    rep = e1_structure_report(t, fc)
    hyp = "detected" if rep["projective_hypothesis"] else "not-detected"
    lines = []
    if emit == "tsv":
        lines.append(f"e1-structure\t-\t-\t-\thypothesis:{hyp}")
        for (p, q), cell in sorted(rep["cells"].items()):
            verdict = "ok" if cell["agree"] else "mismatch"
            lines.append(
                f"e1-structure\t1\t{p}\t{q}\t"
                f"{cell['labeled_total']}:{cell['page_dim']}:{verdict}")
        return lines
    lines.append(f"[e1-structure] projectivity hypothesis: {hyp}")
    for (p, q), cell in sorted(rep["cells"].items()):
        verdict = "ok" if cell["agree"] else "MISMATCH"
        parts = ", ".join(f"{lab}={d}" for lab, d in cell["summands"] if d)
        tail = f"   [{parts}]" if parts else ""
        lines.append(
            f"cell p={p} q={q}: labeled {cell['labeled_total']}, "
            f"page {cell['page_dim']}, {verdict}{tail}")
    lines.append("agreement: " + ("all cells" if rep["all_agree"]
                                  else "MISMATCHES PRESENT"))
    lines.append("")
    return lines


def _oracle_section(t, hh, L, budget, emit):
    if L < 2:
        raise InputError("oracle check needs --max-degree at least 2")
    d = t.total.dim
    lw = None
    need = None
    for cand in range(min(3, L - 1), 0, -1):
        need = bar_budget_estimate(d, d, cand)
        if need <= budget:
            lw = cand
            break
    if lw is None:
        raise InputError(
            f"oracle check needs at least {need} matrix entries even at "
            f"window 1, which exceeds the budget of {budget}")
    wb = bar_oracle(t, L=lw, budget=budget)
    oh = cohomology_dims(wb)
    for l in range(lw + 1):
        if oh[l] != hh[l]:
            raise OracleMismatch(
                f"Hochschild dimension mismatch at degree {l}: "
                f"relative complex {hh[l]}, oracle {oh[l]}")
    if emit == "tsv":
        lines = [f"oracle-check\t-\t-\t{l}\t{oh[l]}" for l in range(lw + 1)]
        lines.append(f"oracle-check\t-\t-\t-\tok:window={lw}")
        return lines
    lines = [f"[oracle-check] window {lw}"]
    for l in range(lw + 1):
        lines.append(f"degree {l}: relative {hh[l]}, oracle {oh[l]}")
    lines.append("oracle agreement")
    lines.append("")
    return lines


def _degeneration_section(t, fc, emit):
    rep = check_degeneration_A2k(t, fc)
    if rep["a2_one_dimensional"] and not rep["d2_zero"]:
        raise InternalInvariantError(
            "second-page differential did not vanish for a tensorial "
            "algebra with one-dimensional middle algebra")
    if not rep["outer_classes_vanish"]:
        raise InternalInvariantError(
            "an outer-summand class has a nonvanishing second-page "
            "differential on a tensorial algebra")
    if emit == "tsv":
        return [f"degeneration-check\t-\t-\t-\t{k}={rep[k]}"
                for k in sorted(rep)]
    a2 = "yes" if rep["a2_one_dimensional"] else "no"
    lines = ["[degeneration-check]", "tensorial: yes",
             f"middle algebra one-dimensional: {a2}"]
    if rep["a2_one_dimensional"]:
        lines.append("second-page differentials vanish on all reliable cells")
    else:
        lines.append("restricted check only; no global degeneration claim")
    lines.append(
        f"outer-summand classes: {rep['outer_classes_checked']} checked, "
        f"all vanish ({rep['nonsurviving_skipped']} skipped as "
        "non-surviving)")
    lines.append("")
    return lines


def run_job(job):
    """Execute one job and return the full report text; raises on any
    input, invariant, or oracle failure without emitting partial output.
    Every report reads one filtered window, built through degree L+1;
    ``pages`` and ``degeneration-check`` share its cycle-space cache, and
    ``e1-structure`` ranks its graded pieces instead.  delta_0..delta_{L-1}
    are ranked for HH^0..HH^{L-1} only.
    A degeneration check the algebra does not satisfy is refused before
    the window is built."""
    t = _build_algebra(job)
    if "degeneration-check" in job.reports:
        require_degeneration_hypotheses(t)
    L = job.max_degree
    fc = build_filtered(t, L)
    hh = (cohomology_dims(fc.window, top=L - 1)
          if {"hochschild", "oracle-check"} & set(job.reports) else None)

    sections = []
    for rep in job.reports:
        if rep == "pages":
            sections += _pages_section(t, fc, L, job.emit)
        elif rep == "hochschild":
            sections += _hochschild_section(hh, job.emit)
        elif rep == "e1-structure":
            sections += _e1_section(t, fc, job.emit)
        elif rep == "oracle-check":
            sections += _oracle_section(t, hh, L, job.oracle_budget, job.emit)
        elif rep == "degeneration-check":
            sections += _degeneration_section(t, fc, job.emit)
    while sections and sections[-1] == "":
        sections.pop()
    return "\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def parse_field(spec):
    if spec == "rat":
        return QQ
    if spec.startswith("fp:"):
        return GF(_int(spec[3:], f"bad field spec {spec!r}"))
    raise InputError(f"bad field spec {spec!r}; use rat or fp:<prime>")


@functools.cache
def _parser():
    """The command line's parser, built on first use and then reused."""
    ap = _ArgumentParser(
        prog="trihoch",
        description="Hochschild cohomology of triangular algebras via the "
                    "filtered relative complex and its spectral sequence.")
    ap.add_argument("input", help="input file (quiver, triangular, or "
                                  "simplicial; kind sniffed unless --kind)")
    ap.add_argument("--kind", choices=("quiver", "triangular", "simplicial"),
                    default=None)
    ap.add_argument("--field", default="rat", metavar="rat|fp:<p>")
    ap.add_argument("--max-degree", type=int, default=4, metavar="L")
    ap.add_argument("--report", default="pages,hochschild",
                    metavar="csv list of " + ",".join(KNOWN_REPORTS))
    ap.add_argument("--emit", choices=("table", "tsv"), default="table")
    ap.add_argument("--oracle-budget", type=int,
                    default=DEFAULT_ORACLE_BUDGET, metavar="entries")
    return ap


def main(argv=None):
    oom = False
    try:
        ns = _parser().parse_args(argv)
        try:
            with open(ns.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {ns.input}: {e}") from None
        job = JobSpec(
            text,
            kind=ns.kind,
            field=parse_field(ns.field),
            max_degree=ns.max_degree,
            reports=tuple(s.strip() for s in ns.report.split(",") if s.strip()),
            emit=ns.emit,
            oracle_budget=ns.oracle_budget,
        )
        out = run_job(job)
    except OracleMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InternalInvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrihochError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        # the message is written after the except block has ended: until
        # then the traceback, whose frames hold the half-built window, is
        # alive, and at a hard memory limit the message would find no memory
        oom = True
    if oom:
        print("error: out of memory; the cochain window grows steeply with "
              "the degree, so try a lower --max-degree", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
