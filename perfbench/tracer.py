"""Span tracing of trihoch from outside the package.

``install`` wraps every public function of the trihoch modules and a
few methods, and rebinds each wrapped name in every trihoch module that
holds it, so calls through ``from .exactla import kernel`` style imports
are seen too.  Each call records one span (name, start, end, parent,
job, value) in memory; ``value`` is a per-call count where one is
defined (rows scanned, input nnz, cells produced, ...).  Nothing is
written until the caller dumps ``Tracer.spans``.

``per_name`` and ``layer_metrics`` turn a span list into per-layer
metrics: ``*.s`` entries are self time (span time minus the time covered
by child spans).
"""

import functools
import importlib
import inspect
import time

MODULES = ("exactla", "algebra", "quiver", "trajectory", "hochcomplex",
           "spectral", "cli")

# methods traced on their classes: (module, class, method)
METHODS = (
    ("exactla", "Matrix", "apply"),
    ("exactla", "EchelonSolver", "add"),
    ("exactla", "EchelonSolver", "express"),
    ("exactla", "Subspace", "from_vectors"),
    ("hochcomplex", "CochainWindow", "rank_of_delta"),
    ("spectral", "FilteredComplex", "z_space"),
    ("trajectory", "TrajectoryBasis", "over"),
)


def _window_nnz(w):
    return sum(m.nnz() for m in w.diffs)


# per-call counts: name -> (before(args), after(args, result)); either
# may be None.  "before" runs ahead of the timed call.
def _seen_value(tracer):
    def after(args, result):
        key = id(result)
        if key in tracer.seen:
            return 1
        tracer.seen[key] = result   # keep it alive so the id stays unique
        return 0
    return after


def _value_hooks(tracer):
    return {
        "exactla.Matrix.apply": (lambda a: a[0].nrows, None),
        "exactla.matrix_rank": (lambda a: a[0].nnz(), None),
        "exactla.graded_rank": (lambda a: a[0].nnz(), None),
        "exactla.EchelonSolver.add": (None, lambda a, r: 1 if r else 0),
        "trajectory.enumerate_trajectories": (None, lambda a, r: len(r)),
        "hochcomplex.build_relative_complex":
            (None, lambda a, r: [sum(r.dims), _window_nnz(r)]),
        "hochcomplex.build_bar_complex": (None, lambda a, r: _window_nnz(r)),
        "spectral.compute_page": (None, lambda a, r: len(r.dims)),
        "spectral.FilteredComplex.z_space": (None, _seen_value(tracer)),
    }


class Tracer:
    """Owns the span list and the stack of open spans."""

    def __init__(self):
        self.names = []
        self.spans = []     # [name index, start, end, parent, job, value]
        self.stack = []
        self.job = -1
        self.seen = {}

    def wrap(self, name, fn, before=None, after=None):
        idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = before(args) if before is not None else None
            parent = stack[-1] if stack else -1
            me = len(spans)
            rec = [idx, 0.0, 0.0, parent, self.job, value]
            spans.append(rec)
            stack.append(me)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                rec[5] = after(args, result)
            return result

        return traced


def install(tracer):
    """Patch trihoch in this process."""
    mods = {m: importlib.import_module(f"trihoch.{m}") for m in MODULES}
    every = list(mods.values()) + [importlib.import_module("trihoch")]
    hooks = _value_hooks(tracer)

    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            wrapped = tracer.wrap(name, obj, *hooks.get(name, (None, None)))
            for holder in every:
                for hname, hval in list(vars(holder).items()):
                    if hval is obj:
                        setattr(holder, hname, wrapped)

    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        raw = cls.__dict__[meth]
        name = f"{short}.{cls_name}.{meth}"
        hook = hooks.get(name, (None, None))
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, *hook)))
        else:
            setattr(cls, meth, tracer.wrap(name, raw, *hook))


# ---------------------------------------------------------------------------
# aggregation

# layer metric -> the traced names whose self time it sums
SELF_TIME = {
    "cli.parse.s": ("cli.parse_quiver_file", "cli.parse_triangular_file",
                    "cli.parse_simplicial_file", "cli.sniff_kind",
                    "cli.parse_field"),
    "cli.job.self_s": ("cli.main", "cli.run_job"),
    "quiver.assemble.s": ("quiver.check_acyclic", "quiver.compute_levels",
                          "quiver.enumerate_paths", "quiver.path_algebra",
                          "quiver.incidence_algebra",
                          "algebra.assemble_total"),
    "algebra.validate.s": ("algebra.validate_triangular",),
    "algebra.tensor.s": ("algebra.tensor_over", "algebra.build_tensorial"),
    "trajectory.enumerate.s": ("trajectory.enumerate_trajectories",),
    "trajectory.basis.s": ("trajectory.TrajectoryBasis.over",
                           "trajectory.slot_dims", "trajectory.module_dim"),
    "hochcomplex.relative.s": ("hochcomplex.build_relative_complex",),
    "hochcomplex.bar.s": ("hochcomplex.build_bar_complex",
                          "hochcomplex.bar_oracle"),
    "hochcomplex.ext.s": ("hochcomplex.build_ext_complex",
                          "hochcomplex.build_tor_complex"),
    "exactla.rank.s": ("exactla.matrix_rank", "exactla.graded_rank"),
    "exactla.kernel.s": ("exactla.kernel",),
    "exactla.apply.s": ("exactla.Matrix.apply",),
    "exactla.solver.s": ("exactla.EchelonSolver.add",
                         "exactla.EchelonSolver.express"),
    "exactla.subspace.s": ("exactla.Subspace.from_vectors", "exactla.image",
                           "exactla.subspace_sum",
                           "exactla.subspace_intersect", "exactla.preimage",
                           "exactla.quotient_dim", "exactla.rref"),
    "spectral.page.self_s": ("spectral.compute_page",),
    "spectral.zspace.s": ("spectral.FilteredComplex.z_space",),
    "spectral.e1.s": ("spectral.e1_structure_report",),
    "spectral.degeneration.s": ("spectral.check_degeneration_A2k",),
}

CALLS = {
    "algebra.tensor.calls": "algebra.tensor_over",
    "exactla.rank.calls": ("exactla.matrix_rank", "exactla.graded_rank"),
    "exactla.kernel.calls": "exactla.kernel",
    "exactla.apply.calls": "exactla.Matrix.apply",
    "exactla.solver.adds": "exactla.EchelonSolver.add",
    "spectral.zspace.calls": "spectral.FilteredComplex.z_space",
}

# metric -> (traced name, which part of the recorded value)
VALUE_SUMS = {
    "trajectory.count": ("trajectory.enumerate_trajectories", None),
    "hochcomplex.window.dim": ("hochcomplex.build_relative_complex", 0),
    "hochcomplex.window.nnz": ("hochcomplex.build_relative_complex", 1),
    "hochcomplex.bar.nnz": ("hochcomplex.build_bar_complex", None),
    "exactla.rank.nnz_in": (("exactla.matrix_rank", "exactla.graded_rank"),
                            None),
    "exactla.apply.rows_scanned": ("exactla.Matrix.apply", None),
    "spectral.page.cells": ("spectral.compute_page", None),
}

# metric -> (numerator value sum, denominator call count) over one name
RATIOS = {
    "exactla.solver.accept_ratio": "exactla.EchelonSolver.add",
    "spectral.zspace.hit_ratio": "spectral.FilteredComplex.z_space",
}

LAYER_METRICS = (sorted(SELF_TIME) + sorted(CALLS) + sorted(VALUE_SUMS)
                 + sorted(RATIOS))


def _as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


def per_name(names, spans, job=None):
    """{name: [calls, total_s, self_s, value_sum]} for the spans of one job
    (all jobs when ``job`` is None)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    table = {}
    for k, (idx, start, end, _parent, sjob, value) in enumerate(spans):
        if job is not None and sjob != job:
            continue
        row = table.setdefault(names[idx], [0, 0.0, 0.0, None])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[k]
        if isinstance(value, list):
            row[3] = (value if row[3] is None
                      else [a + b for a, b in zip(row[3], value)])
        elif value is not None:
            row[3] = (row[3] or 0) + value
    return table


def layer_metrics(table):
    """The named per-layer metrics from a ``per_name`` table."""
    def rows(names):
        return [table[n] for n in _as_tuple(names) if n in table]

    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(r[2] for r in rows(names))
    for metric, names in CALLS.items():
        out[metric] = sum(r[0] for r in rows(names))
    for metric, (names, part) in VALUE_SUMS.items():
        total = 0
        for r in rows(names):
            if r[3] is not None:
                total += r[3] if part is None else r[3][part]
        out[metric] = total
    for metric, name in RATIOS.items():
        r = table.get(name)
        out[metric] = (r[3] / r[0]) if r and r[0] else 0.0
    return out
