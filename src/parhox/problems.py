"""Declarative problem files: parsing, schema validation, and assembly of a
fully validated Instance.  This is the only module that touches the disk.
"""

import json
import os

from .errors import SchemaError
from .fields import field_from_json
from .algebras import (ModuleData, StructureAlgebra,
                       module_from_generator_actions)
from .factor_sets import PartialFactorSet
from .groups import FiniteGroup
from .homology import DEFAULT_CHAIN_CAP
from .instance import DEFAULT_MONOID_LIMIT, Instance
from .linalg import _sparse, _sparse_matrix
from .partial_actions import TwistedPartialAction, UnitalPartialAction

__all__ = ["ProblemSpec", "load_json", "parse_spec", "parse_spec_file",
           "build_instance", "fixture_dir", "bundled_fixtures",
           "load_fixture"]

DEFAULT_OPTIONS = {"max_p": 2, "max_q": 2, "max_n": 2,
                   "cap": DEFAULT_CHAIN_CAP,
                   "monoid_limit": DEFAULT_MONOID_LIMIT}
POSITIVE_OPTIONS = {"cap", "monoid_limit"}


class ProblemSpec:
    def __init__(self, name, field, group, sigma, action, module, options):
        self.name = name
        self.field = field
        self.group = group
        self.sigma = sigma
        self.action = action          # TwistedPartialAction or None
        self.module = module          # "regular" or dict
        self.options = options


def _require(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def parse_spec(obj, path=None):
    """The ProblemSpec of a problem document; its name is the document's
    `name`, else the stem of `path`, the file it was read from, else
    "problem"."""
    _require(isinstance(obj, dict), "$", "problem spec must be an object")
    _require("field" in obj, "$.field", "missing")
    field = field_from_json(obj["field"])
    _require("group" in obj, "$.group", "missing")
    try:
        group = FiniteGroup.from_json(obj["group"])
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"$.group: {exc}")
    sigma = None
    if "sigma" in obj and obj["sigma"] is not None:
        tab = obj["sigma"]
        _require(isinstance(tab, list) and len(tab) == group.n,
                 "$.sigma", f"must be a {group.n} x {group.n} table")
        for i, row in enumerate(tab):
            _require(isinstance(row, list) and len(row) == group.n,
                     f"$.sigma[{i}]", f"must have {group.n} entries")
        sigma = PartialFactorSet.from_json(group, field, tab)
    action = None
    if "action" in obj and obj["action"] is not None:
        act = obj["action"]
        _require(isinstance(act, dict), "$.action", "must be an object")
        for key in ("algebra", "one_g", "theta"):
            _require(key in act, f"$.action.{key}", "missing")
        try:
            A = StructureAlgebra.from_json(field, act["algebra"], name="A")
        except Exception as exc:
            raise SchemaError(f"$.action.algebra: {exc}")
        rep = A.validate()
        _require(rep.ok, "$.action.algebra", f"not associative: {rep.violations[:2]}")
        one, theta = act["one_g"], act["theta"]
        _require(isinstance(one, list) and len(one) == group.n,
                 "$.action.one_g", f"need {group.n} idempotents")
        for g, v in enumerate(one):
            _require(isinstance(v, list) and len(v) == A.dim,
                     f"$.action.one_g[{g}]", f"must have {A.dim} coordinates")
        _require(isinstance(theta, list) and len(theta) == group.n,
                 "$.action.theta", f"need {group.n} maps")
        for g, m in enumerate(theta):
            _require(isinstance(m, list) and len(m) == A.dim
                     and all(isinstance(r, list) and len(r) == A.dim
                             for r in m),
                     f"$.action.theta[{g}]", f"must be {A.dim} x {A.dim}")
        upa = UnitalPartialAction(
            A, [_sparse(field, [field.parse(c) for c in v]) for v in one],
            [_sparse_matrix(field, [[field.parse(c) for c in row]
                                    for row in m]) for m in theta])
        _require(sigma is not None, "$.sigma",
                 "an explicit sigma is required with an action")
        action = TwistedPartialAction(upa, sigma)
    module = obj.get("module", "regular")
    if module != "regular":
        _check_module(module)
    options = dict(DEFAULT_OPTIONS)
    options.update(_parse_options(obj.get("options", {})))
    stem = os.path.splitext(os.path.basename(path))[0] if path else "problem"
    spec_name = obj.get("name", stem)
    return ProblemSpec(spec_name, field, group, sigma, action, module,
                       options)


def _check_module(module):
    """The shape of a module block: a natural `dim` and at least one of
    `left` / `right`, each an object from basis labels to dim x dim
    matrices.  Labels and entries are checked when the module is built."""
    _require(isinstance(module, dict) and "dim" in module, "$.module",
             "must be 'regular' or an object with 'dim'")
    dim = module["dim"]
    _require(type(dim) is int and dim >= 0, "$.module.dim",
             f"must be a natural number, got {dim!r}")
    _require("left" in module or "right" in module, "$.module",
             "needs a 'left' or a 'right' action")
    for side in ("left", "right"):
        if side not in module:
            continue
        given = module[side]
        _require(isinstance(given, dict), f"$.module.{side}",
                 "must be an object from basis labels to matrices")
        for label, mat in given.items():
            _require(isinstance(mat, list) and len(mat) == dim
                     and all(isinstance(row, list) and len(row) == dim
                             for row in mat),
                     f"$.module.{side}.{label}", f"must be {dim} x {dim}")


def _parse_options(opts):
    """The problem options: an object over DEFAULT_OPTIONS' keys whose
    values are non-negative ints (positive for POSITIVE_OPTIONS)."""
    _require(isinstance(opts, dict), "$.options", "must be an object")
    for key, value in opts.items():
        _require(key in DEFAULT_OPTIONS, f"$.options.{key}",
                 f"unknown option (allowed: {sorted(DEFAULT_OPTIONS)})")
        least = 1 if key in POSITIVE_OPTIONS else 0
        _require(type(value) is int and value >= least, f"$.options.{key}",
                 f"must be an integer >= {least}, got {value!r}")
    return opts


def load_json(path):
    """The JSON document in the file at path; a file that is not UTF-8 or
    not JSON raises an OSError that names the path (an IOError report)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise OSError(f"{path}: {exc}") from None


def parse_spec_file(path):
    return parse_spec(load_json(path), path)


def _parse_module(spec, lam):
    """The problem's bimodule over Lambda, its matrices converted to kernel
    rows here, once; each side is verified as it is built
    (`module_from_generator_actions`), and the Instance validates the
    two together."""
    K = spec.field
    obj = spec.module
    dim = obj["dim"]
    labels = lam.algebra.labels

    def actions_from(dct, side):
        given = {}
        for label, mat in dct.items():
            if label not in labels:
                raise SchemaError(f"$.module.{side}: unknown basis label "
                                  f"{label!r} (have {labels})")
            given[labels.index(label)] = _sparse_matrix(
                K, [[K.parse(c) for c in row] for row in mat])
        return module_from_generator_actions(lam.algebra, dim, given,
                                             side=side, name="M")

    left = right = None
    if "left" in obj:
        left = actions_from(obj["left"], "left").left
    if "right" in obj:
        right = actions_from(obj["right"], "right").right
    return ModuleData(lam.algebra, dim, left=left, right=right, name="M")


def build_instance(spec):
    """A fully validated Instance from a parsed ProblemSpec."""
    module = None if spec.module == "regular" \
        else (lambda lam: _parse_module(spec, lam))
    return Instance(spec.name, spec.field, spec.group, sigma=spec.sigma,
                    theta=spec.action, module=module,
                    monoid_limit=spec.options["monoid_limit"],
                    chain_cap=spec.options["cap"])


def fixture_dir():
    return os.path.join(os.path.dirname(__file__), "fixtures")


def bundled_fixtures():
    d = fixture_dir()
    return sorted(f for f in os.listdir(d) if f.endswith(".json"))


def load_fixture(name):
    path = os.path.join(fixture_dir(), name)
    return parse_spec_file(path)
