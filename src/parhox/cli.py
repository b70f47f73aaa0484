"""The parhox command line: declarative problem files in, reports out.

Subcommands: validate, validate-action, build-kpar, build-crossed,
hochschild, partial-homology, spectral, selfcheck.  Reports are JSON with
stable key order; given the same input file and flags the report is
byte-identical up to the timing field.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import ParhoxError, SchemaError
from .fields import field_from_json
from .factor_sets import PartialFactorSet
from .groups import FiniteGroup, enumerate_exel
from .instance import DEFAULT_MONOID_LIMIT
from .partial_actions import validate_twisted
from .partial_algebras import build_kpar, build_kpar_sigma
from .problems import build_instance, parse_spec_file
from .spectral import (lam_hochschild_bar, lam_hochschild_resolution,
                       module_tower, partial_dims, run_all_checks)


def _canonical_digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _report(command, input_obj, result, ok, t0):
    return {
        "tool": "parhox",
        "version": __version__,
        "command": command,
        "input_digest": _canonical_digest(input_obj),
        "ok": ok,
        "result": result,
        "timing_seconds": round(time.monotonic() - t0, 3),
    }


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _format(report):
    """`json.dumps(report, indent=1, sort_keys=True)`, byte for byte.

    Dicts with str keys and lists are laid out here, and strs and ints are
    written directly; a flat list of scalars is one call of the C encoder
    with the item separator of its depth, and so is a list of nonempty flat
    lists, whose inner joints are then re-indented by one replace.  That is
    safe because the encoder escapes every newline inside a string, so each
    newline it writes is a separator.  Any other value (a tuple, a dict with
    non-str keys, an empty container) goes through `json.dumps` and is
    re-indented."""
    encoders = {}                 # depth -> C encoder, one item per line

    def encode(x, depth):
        enc = encoders.get(depth)
        if enc is None:
            enc = encoders[depth] = json.JSONEncoder(
                separators=(",\n" + " " * depth, ": "))
        return enc.encode(x)

    def write(x, depth):
        t = type(x)
        if t is str:
            return encode_basestring_ascii(x)
        if t is int:
            return repr(x)
        outer = "\n" + " " * depth
        pad = outer + " "
        if t is dict and x and set(map(type, x)) == {str}:
            return "{" + pad + ("," + pad).join(
                encode_basestring_ascii(k) + ": " + write(x[k], depth + 1)
                for k in sorted(x)) + outer + "}"
        if t is list and x:
            kinds = set(map(type, x))
            if kinds <= _SCALARS:
                return "[" + pad + encode(x, depth + 1)[1:-1] + outer + "]"
            if kinds == {list} and all(x) and set(
                    map(type, chain.from_iterable(x))) <= _SCALARS:
                inner = pad + " "
                text = encode(x, depth + 2)[2:-2].replace(
                    "],\n" + inner[1:] + "[", pad + "]," + pad + "[" + inner)
                return ("[" + pad + "[" + inner + text + pad + "]" + outer
                        + "]")
            return "[" + pad + ("," + pad).join(
                write(v, depth + 1) for v in x) + outer + "]"
        if t in _SCALARS:
            return encode(x, 0)
        return json.dumps(x, indent=1, sort_keys=True).replace("\n", outer)

    return write(report, 0)


def _emit(report, args):
    text = _format(report)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["ok"] else 1


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cap(args, default):
    """Cap priority: PARHOX_CAP env > explicit flag > default (for a
    problem file, its `cap` option, which build_instance applies)."""
    env = os.environ.get("PARHOX_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SchemaError(f"PARHOX_CAP must be an integer: {env!r}") \
                from None
    flag = getattr(args, "cap", None)
    return default if flag is None else flag


def cmd_validate(args):
    t0 = time.monotonic()
    raw = _load_json(args.spec)
    spec = parse_spec_file(args.spec)
    stages = {"schema": "ok"}
    ok = True
    if spec.action is not None:
        rep = validate_twisted(spec.action, spec.group)
        stages["action"] = rep.to_json()
        ok = ok and rep.ok
    inst = build_instance(spec)
    stages["twisted_group_algebra"] = {"dim": inst.ks.dim,
                                       "vanished": len(inst.ks.vanished)}
    stages["crossed_product"] = {"dim": inst.lam.algebra.dim}
    stages["module"] = {"dim": inst.M.dim}
    return _emit(_report("validate", raw, stages, ok, t0), args)


def cmd_build_kpar(args):
    t0 = time.monotonic()
    raw = _load_json(args.spec)
    if isinstance(raw, dict) and "group" in raw:   # a full problem file
        spec = parse_spec_file(args.spec)
        group, field, sigma = spec.group, spec.field, spec.sigma
    else:                                          # a bare group file
        group = FiniteGroup.from_json(raw)
        if args.field:
            try:
                fobj = json.loads(args.field)
            except json.JSONDecodeError:
                fobj = _load_json(args.field)
            field = field_from_json(fobj)
        else:
            field = field_from_json({"kind": "Q"})
        sigma = None
    if args.sigma:
        sigma = PartialFactorSet.from_json(group, field,
                                           _load_json(args.sigma))
    monoid = enumerate_exel(group,
                            size_limit=_cap(args, DEFAULT_MONOID_LIMIT))
    if sigma is None:
        ktw = build_kpar(group, field, monoid=monoid)
    else:
        ktw = build_kpar_sigma(sigma, monoid=monoid)
    result = {
        "dim": ktw.dim,
        "basis": [ktw.monomial_label(p) for p in range(ktw.dim)],
        "sc": ktw.algebra.to_json()["sc"],
        "vanished": sorted(ktw.monoid.label(m) for m in ktw.vanished),
        "completion_log": [list(map(str, entry))
                           for entry in ktw.completion_log],
    }
    return _emit(_report("build-kpar", raw, result, True, t0), args)


def cmd_build_crossed(args):
    t0 = time.monotonic()
    raw = _load_json(args.spec)
    spec = parse_spec_file(args.spec)
    inst = build_instance(spec)
    lam = inst.lam
    result = {
        "dim": lam.algebra.dim,
        "basis": lam.algebra.labels,
        "sc": lam.algebra.to_json()["sc"],
        "ideal_dims": [len(b) for b in lam.dg_bases],
        "universal_base": inst.universal,
    }
    return _emit(_report("build-crossed", raw, result, True, t0), args)


def cmd_hochschild(args):
    t0 = time.monotonic()
    raw = _load_json(args.spec)
    spec = parse_spec_file(args.spec)
    inst = build_instance(spec)
    inst.chain_cap = _cap(args, inst.chain_cap)
    n = args.max_n
    bar = lam_hochschild_bar(inst, n)
    agree = bar == lam_hochschild_resolution(inst, n)
    result = {"dims": {f"H{q}": bar[q] for q in range(n + 1)},
              "truncation": n}
    if args.cohomology:
        barc = lam_hochschild_bar(inst, n, dual=True)
        agree = agree and barc == lam_hochschild_resolution(inst, n,
                                                            dual=True)
        result["cohomology_dims"] = {f"H^{q}": barc[q] for q in range(n + 1)}
    result["oracle_agreement"] = agree
    return _emit(_report("hochschild", raw, result, agree, t0), args)


def cmd_partial_homology(args):
    t0 = time.monotonic()
    raw = _load_json(args.spec)
    spec = parse_spec_file(args.spec)
    inst = build_instance(spec)
    inst.chain_cap = _cap(args, inst.chain_cap)
    n = args.max_n
    # coefficients: H_0(A, M) = M/[A, M] with its kappa_par G-structure
    _, tower = module_tower(inst, 0)
    hd0, mod0, _ = tower[0]
    dims = partial_dims(inst, mod0, n)
    result = {
        "coefficients": "H_0(A, M) = M/[A,M]",
        "coefficient_dim": hd0.dim,
        "dims": {f"H{q}": dims[q] for q in range(n + 1)},
        "truncation": n,
    }
    return _emit(_report("partial-homology", raw, result, True, t0), args)


def _page_table(page, max_p, max_q):
    lines = ["q\\p " + " ".join(f"{p:>4}" for p in range(max_p + 1))]
    for q in range(max_q, -1, -1):
        row = [f"{q:>3} "]
        for p in range(max_p + 1):
            e = page.entry(p, q)
            row.append("   ." if e is None else f"{e:>4}")
        lines.append(" ".join(row))
    return lines


def cmd_spectral(args):
    t0 = time.monotonic()
    raw = _load_json(args.spec)
    spec = parse_spec_file(args.spec)
    inst = build_instance(spec)
    inst.chain_cap = _cap(args, inst.chain_cap)
    max_p = args.max_p if args.max_p is not None else spec.options["max_p"]
    max_q = args.max_q if args.max_q is not None else spec.options["max_q"]
    max_n = min(max_p, max_q)
    report, page, pagec = run_all_checks(inst, max_p=max_p, max_q=max_q,
                                         max_n=max_n)
    shown = pagec if args.cohomology else page
    result = {
        "E2": shown.to_json(),
        "E2_other_orientation": (page if args.cohomology else pagec).to_json(),
        "checks": report.to_json(),
    }
    doc = _report("spectral", raw, result, report.ok, t0)
    code = _emit(doc, args)
    for line in _page_table(shown, max_p, max_q):
        print(line)
    return code


def cmd_selfcheck(args):
    t0 = time.monotonic()
    from .problems import bundled_fixtures, fixture_dir
    from .selfcheck import run_selfcheck
    inputs = {f: _load_json(os.path.join(fixture_dir(), f))
              for f in bundled_fixtures()}
    doc, ok = run_selfcheck(verbose=True)
    return _emit(_report("selfcheck", inputs, doc, ok, t0), args)


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on first use and kept for the process:
    `main` may be called many times in one process."""
    parser = argparse.ArgumentParser(
        prog="parhox",
        description="exact verification toolkit for twisted partial group "
                    "algebras and partial crossed products")
    parser.add_argument("--json-out", help="also write the report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a problem file end to end")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_validate)
    p2 = sub.add_parser("validate-action",
                        help="alias of validate for action-bearing files")
    p2.add_argument("spec")
    p2.set_defaults(fn=cmd_validate)

    p = sub.add_parser("build-kpar",
                       help="build kappa_par G or kappa_par^sigma G")
    p.add_argument("spec", help="a group file or a problem file")
    p.add_argument("--sigma", help="JSON file with a sigma table")
    p.add_argument("--field",
                   help='field for bare group files: JSON text like '
                        '{"kind":"Fp","p":7} or a path to one')
    p.add_argument("--cap", type=int, default=DEFAULT_MONOID_LIMIT,
                   help="monoid size limit (PARHOX_CAP overrides)")
    p.set_defaults(fn=cmd_build_kpar)

    p = sub.add_parser("build-crossed", help="build the crossed product")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_build_crossed)

    p = sub.add_parser("hochschild", help="Hochschild homology of Lambda")
    p.add_argument("spec")
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--cohomology", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=cmd_hochschild)

    p = sub.add_parser("partial-homology",
                       help="partial homology of G with coefficients M/[A,M]")
    p.add_argument("spec")
    p.add_argument("--max-n", type=int, default=2)
    p.set_defaults(fn=cmd_partial_homology)

    p = sub.add_parser("spectral", help="E2 pages plus the verdict battery")
    p.add_argument("spec")
    p.add_argument("--max-p", type=int, default=None)
    p.add_argument("--max-q", type=int, default=None)
    p.add_argument("--cohomology", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("selfcheck",
                       help="run the full battery on all bundled fixtures")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParhoxError as exc:
        report = {
            "tool": "parhox", "version": __version__,
            "command": args.command, "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(_format(report))
        return 2
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(_format({"tool": "parhox", "ok": False,
                       "error": {"type": "IOError", "message": str(exc)}}))
        return 2
    except Exception as exc:
        # a fault of parhox itself, kept apart from exit 1 (a verdict
        # failed); the traceback goes to stderr, the report to stdout.
        # traceback is imported here to keep it out of start-up.
        import traceback
        traceback.print_exc()
        print(_format({"tool": "parhox", "ok": False,
                       "error": {"type": "InternalError",
                                 "message": f"{type(exc).__name__}: {exc}"}}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
