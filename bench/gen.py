"""Seeded input generator for the benchmark workloads.

Everything here is stdlib-only and deterministic in the seed: the same seed
writes byte-identical group, sigma and problem files.  parhox never sees the
seed, only the files.

Twists:

  * a coboundary  (delta f)(g, h) = f(g) f(h) / f(gh)  with f(1) = 1 and
    every value nonzero (small rationals over Q, nonzero residues over F_p);
  * the idempotent twist of the S3 action on {0, 1, 2} restricted to a
    2-point subset Y: with D_g = Y n gY, sigma(g, h) = 1 when D_g n D_gh is
    nonempty and 0 otherwise;
  * the partial twist: the idempotent twist times delta f, pointwise.

Equivalent twists give isomorphic algebras, so the dimensions and homology
the workloads check do not depend on the seed.
"""

import itertools
import json
import os
import random
import shutil
from fractions import Fraction

# small nonzero rationals for f over Q: +-a/b with a, b in 1..3
_Q_VALUES = sorted({Fraction(s * a, b) for s in (1, -1)
                    for a in (1, 2, 3) for b in (1, 2, 3)})

SMALL_FIXTURES = ["z2_dual_f2", "z2_dual_q", "z2_trivial_f2", "z2_trivial_q",
                  "z2_twist2_q", "z2_twist4_f7", "z2_twist_third_q",
                  "z3_kappa2_f3", "z3_kappa2_q", "z3_unnormalized_q"]
V4_FIXTURE = "v4_partial_q"

FIELD_Q = {"kind": "Q"}
KPAR_P = 7              # the F_p of kpar-rewrite
HOCHSCHILD_P = 3        # the F_p of hochschild-kpar


def field_fp(p):
    return {"kind": "Fp", "p": p}


# -- groups -----------------------------------------------------------------

def s3_elements():
    """The permutations of {0, 1, 2}, identity first."""
    return sorted(itertools.permutations(range(3)))


def s3_cayley():
    els = s3_elements()
    index = {p: i for i, p in enumerate(els)}
    return [[index[tuple(a[b[t]] for t in range(3))] for b in els]
            for a in els]


def z3_cayley():
    return [[(i + j) % 3 for j in range(3)] for i in range(3)]


# -- scalars ----------------------------------------------------------------

def _dump(field, x):
    if field["kind"] == "Q":
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else \
            f"{x.numerator}/{x.denominator}"
    return int(x) % field["p"]


def _mul(field, a, b):
    return a * b if field["kind"] == "Q" else a * b % field["p"]


def _div(field, a, b):
    if field["kind"] == "Q":
        return Fraction(a) / b
    p = field["p"]
    return a * pow(b, p - 2, p) % p


def coboundary_values(rng, n, field):
    """f: G -> k^x with f(1) = 1."""
    if field["kind"] == "Q":
        rest = [rng.choice(_Q_VALUES) for _ in range(n - 1)]
        return [Fraction(1)] + rest
    return [1] + [rng.randrange(1, field["p"]) for _ in range(n - 1)]


def coboundary(cayley, f, field):
    n = len(cayley)
    return [[_div(field, _mul(field, f[g], f[h]), f[cayley[g][h]])
             for h in range(n)] for g in range(n)]


def restricted_idempotent_twist(subset):
    """The {0,1} twist of S3 acting on {0,1,2}, restricted to `subset`."""
    els = s3_elements()
    cayley = s3_cayley()
    Y = set(subset)
    dom = [Y & {p[y] for y in Y} for p in els]          # D_g = Y n gY
    n = len(els)
    return [[1 if dom[g] & dom[cayley[g][h]] else 0 for h in range(n)]
            for g in range(n)]


def pointwise(field, a, b):
    return [[_mul(field, x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def dump_table(field, table):
    return [[_dump(field, x) for x in row] for row in table]


# -- files ------------------------------------------------------------------

def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def battery_inputs(rng, out_dir, fixture_dir, names):
    """Copies of bundled fixtures, in a seeded order."""
    names = list(names)
    rng.shuffle(names)
    items = []
    for name in names:
        dst = os.path.join(out_dir, name + ".json")
        shutil.copyfile(os.path.join(fixture_dir, name + ".json"), dst)
        items.append({"kind": "spectral", "name": name, "path": dst,
                      "field": "Fp" if not name.endswith("_q") else "Q"})
    return items


def kpar_rewrite_inputs(rng, out_dir):
    """S3 group file plus, per field, a global coboundary twist, the
    restricted idempotent twist and their product (the partial twist)."""
    group_path = _write(os.path.join(out_dir, "s3.json"),
                        {"name": "S3", "order": 6, "cayley": s3_cayley()})
    subset = rng.choice([(0, 1), (0, 2), (1, 2)])
    idem = restricted_idempotent_twist(subset)
    items = []
    for field in (FIELD_Q, field_fp(KPAR_P)):
        tag = "q" if field["kind"] == "Q" else f"f{KPAR_P}"
        delta = coboundary(s3_cayley(), coboundary_values(rng, 6, field),
                           field)
        for twist, table in (("global", delta), ("idempotent", idem),
                             ("partial", pointwise(field, idem, delta))):
            path = _write(os.path.join(out_dir, f"sigma_{twist}_{tag}.json"),
                          dump_table(field, table))
            items.append({"kind": "build-kpar", "name": f"{twist}_{tag}",
                          "twist": twist, "group": group_path, "sigma": path,
                          "field": field["kind"], "field_json": field})
    return items


def hochschild_inputs(rng, out_dir):
    """Universal Z3 problems (Lambda = kpar^sigma Z3, dim 8) with a seeded
    coboundary twist, over Q and over F_3."""
    items = []
    for field in (FIELD_Q, field_fp(HOCHSCHILD_P)):
        tag = "q" if field["kind"] == "Q" else f"f{HOCHSCHILD_P}"
        sigma = coboundary(z3_cayley(), coboundary_values(rng, 3, field),
                           field)
        name = f"z3_coboundary_{tag}"
        path = _write(os.path.join(out_dir, name + ".json"), {
            "name": name, "field": field,
            "group": {"name": "Z3", "order": 3, "cayley": z3_cayley()},
            "sigma": dump_table(field, sigma), "module": "regular"})
        items.append({"kind": "hochschild", "name": name, "path": path,
                      "field": field["kind"]})
    return items


def generate(workload, seed, out_dir, fixture_dir):
    """Write the inputs of `workload` into out_dir; return its item list."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    if workload == "battery-v4":
        return battery_inputs(rng, out_dir, fixture_dir, [V4_FIXTURE])
    if workload == "battery-small":
        return battery_inputs(rng, out_dir, fixture_dir, SMALL_FIXTURES)
    if workload == "kpar-rewrite":
        return kpar_rewrite_inputs(rng, out_dir)
    if workload == "hochschild-kpar":
        return hochschild_inputs(rng, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
