"""Seeded generator of the small algebras the ``checks`` workload runs.

The workload has 30 positions.  Positions k = 2, 5, 8, ... hold random
three-level tensorial algebras, the others path algebras of random
leveled quivers; fields alternate between QQ (even k) and GF(32003) (odd
k); each position has a fixed target total dimension (path: 4..8 in
turn, tensorial: 7, 7, 8, 8 in turn).  Only the structure is random, so
every seed runs the same mix of kinds, fields and sizes.

Each position has VARIANTS random variants, each drawn from its own
fixed seed, and the workload seed picks one variant per position.  The
goldens cover every variant, so every seed's output is checked byte for
byte.  Algebras are written as triangular input files through
``trihoch.cli.emit_triangular``, so the program under test reads only
files.  Run as a script to write the files and print a manifest:

    python3 perfbench/checks_gen.py --seed 1 --out DIR
    python3 perfbench/checks_gen.py --all --out DIR     # every variant
"""

import argparse
import hashlib
import json
import os
import random
import sys

from trihoch import (GF, QQ, Bimodule, FiniteDimAlgebra, Quiver,
                     build_tensorial, compute_levels, path_algebra)
from trihoch.cli import emit_triangular

COUNT = 30
VARIANTS = 8
VARIANT_SEED = 20261017
PATH_DIMS = (4, 5, 6, 7, 8)
TENSORIAL_DIMS = (7, 8)
FIELDS = (("rat", QQ), ("fp:32003", GF(32003)))
BASE_REPORTS = "hochschild,oracle-check,e1-structure"


def _diag_algebra(rng, f):
    pick = rng.randrange(3)
    if pick == 0:
        return FiniteDimAlgebra.field_algebra(f)
    if pick == 1:
        return FiniteDimAlgebra.product_of_fields(f, 2)
    return FiniteDimAlgebra.dual_numbers(f)


def _free(f, outer, inner):
    """outer (x) inner over the ground field, basis (b, a) -> b*inner.dim + a."""
    lact, ract = {}, {}
    for c in range(outer.dim):
        for b in range(outer.dim):
            for bb, v in outer.basis_product(c, b).items():
                for a in range(inner.dim):
                    lact.setdefault((c, b * inner.dim + a), {})[
                        bb * inner.dim + a] = v
    for c in range(inner.dim):
        for a in range(inner.dim):
            for aa, v in inner.basis_product(a, c).items():
                for b in range(outer.dim):
                    ract.setdefault((b * inner.dim + a, c), {})[
                        b * inner.dim + aa] = v
    return Bimodule(f, outer.dim * inner.dim, outer, inner, lact, ract)


def _thin(f, outer, inner):
    """One-dimensional bimodule through the first-coordinate character of
    each side (it kills the nilpotent of the dual numbers and the second
    idempotent of k x k)."""
    return Bimodule(f, 1, outer, inner,
                    {(0, 0): {0: f.one}}, {(0, 0): {0: f.one}})


def random_path(rng, f, dim):
    """Path algebra of a random leveled quiver of total dimension ``dim``:
    2 to 4 layers of 1 or 2 vertices, arrows between consecutive layers
    with multiplicity 0-2, and no isolated vertex.  (Isolated vertices
    pile up in level 1 and make a few variants several times slower
    than the others at the same dimension.)"""
    while True:
        names = iter("abcdefgh")
        layers = [[next(names) for _ in range(rng.randint(1, 2))]
                  for _ in range(rng.randint(2, 4))]
        arrows = []
        for lo, hi in zip(layers, layers[1:]):
            for s in lo:
                for t in hi:
                    for k in range(rng.choice((0, 1, 1, 2))):
                        arrows.append((f"{s}{t}{k}", s, t))
        touched = {v for _, s, t in arrows for v in (s, t)}
        if len(touched) < sum(map(len, layers)):
            continue
        q = Quiver([v for lay in layers for v in lay], arrows)
        t = path_algebra(q, compute_levels(q), f)
        if t.total.dim == dim:
            return t


def random_tensorial(rng, f, dim):
    """Three diagonal algebras from {k, k x k, k[x]/(x^2)} with thin or
    free adjacent bimodules, of total dimension ``dim``; the wide block is
    their balanced tensor product."""
    while True:
        a1, a2, a3 = (_diag_algebra(rng, f) for _ in range(3))
        adj = [(_thin if rng.random() < 0.6 else _free)(f, hi, lo)
               for lo, hi in ((a1, a2), (a2, a3))]
        t = build_tensorial([a1, a2, a3], adj)
        if t.total.dim == dim:
            return t


def position(k):
    """(kind, field name, field, target dim) of position k."""
    fname, f = FIELDS[k % 2]
    if k % 3 == 2:
        return "tensorial", fname, f, TENSORIAL_DIMS[(k // 6) % 2]
    return "path", fname, f, PATH_DIMS[(k - k // 3) % 5]


def instance(k, v):
    """Variant v of position k, as a manifest entry with its file text."""
    kind, fname, f, dim = position(k)
    rng = random.Random(VARIANT_SEED + 1000 * k + v)
    if kind == "tensorial":
        t = random_tensorial(rng, f, dim)
        reports = BASE_REPORTS + ",degeneration-check"
    else:
        t = random_path(rng, f, dim)
        reports = BASE_REPORTS
    text = emit_triangular(t)
    return {
        "name": f"c{k:02d}v{v}",
        "kind": kind,
        "field": fname,
        "dim": t.total.dim,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "reports": reports,
        "text": text,
    }


def generate(seed):
    """The instance list a workload seed runs, in position order."""
    pick = random.Random(seed)
    return [instance(k, pick.randrange(VARIANTS)) for k in range(COUNT)]


def every_variant():
    return [instance(k, v) for k in range(COUNT) for v in range(VARIANTS)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--seed", type=int)
    which.add_argument("--all", action="store_true")
    ap.add_argument("--out", required=True)
    ns = ap.parse_args(argv)
    os.makedirs(ns.out, exist_ok=True)
    manifest = []
    for inst in every_variant() if ns.all else generate(ns.seed):
        inst["path"] = os.path.join(ns.out, inst["name"] + ".tri")
        with open(inst["path"], "w", encoding="utf-8") as fh:
            fh.write(inst.pop("text"))
        manifest.append(inst)
    json.dump(manifest, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
