import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parhox import cli
from parhox.cli import main
from parhox.errors import SchemaError, SizeLimit
from parhox.groups import FiniteGroup
from parhox.instance import DEFAULT_MONOID_LIMIT
from parhox.problems import (bundled_fixtures, build_instance, fixture_dir,
                             load_fixture, parse_spec)
from parhox.spectral import run_all_checks


def fixture_path(name):
    return os.path.join(fixture_dir(), name)


def group_path(name):
    return os.path.join(fixture_dir(), "groups", name)


def test_all_bundled_fixtures_parse_and_build():
    names = bundled_fixtures()
    assert len(names) == 11
    for name in names:
        spec = load_fixture(name)
        inst = build_instance(spec)
        assert inst.lam.algebra.dim >= 1


def test_parse_spec_minimal():
    spec = parse_spec({"field": {"kind": "Q"},
                       "group": {"order": 2, "cayley": [[0, 1], [1, 0]]}})
    assert spec.group.n == 2
    assert spec.sigma is None
    assert spec.module == "regular"


def test_parse_spec_rejects_bad_prime():
    with pytest.raises(SchemaError):
        parse_spec({"field": {"kind": "Fp", "p": 4},
                    "group": {"cayley": [[0]]}})


def test_parse_spec_rejects_bad_sigma_shape():
    with pytest.raises(SchemaError):
        parse_spec({"field": {"kind": "Q"},
                    "group": {"cayley": [[0, 1], [1, 0]]},
                    "sigma": [["1", "1"]]})


def test_parse_spec_action_requires_sigma():
    with pytest.raises(SchemaError):
        parse_spec({"field": {"kind": "Q"},
                    "group": {"cayley": [[0, 1], [1, 0]]},
                    "action": {"algebra": {"dim": 1, "unit": ["1"],
                                           "sc": [[0, 0, 0, "1"]]},
                               "one_g": [["1"], ["1"]],
                               "theta": [[["1"]], [["1"]]]}})


def test_cli_build_kpar_z2(capsys):
    code = main(["build-kpar", group_path("z2.json")])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dim"] == 3


def test_cli_build_kpar_with_sigma(tmp_path, capsys):
    sig = tmp_path / "sigma.json"
    sig.write_text(json.dumps([["1", "1"], ["1", "2"]]))
    code = main(["build-kpar", group_path("z2.json"), "--sigma", str(sig)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dim"] == 3


def test_cli_validate(capsys):
    code = main(["validate", fixture_path("z3_kappa2_q.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["ok"]
    assert doc["result"]["crossed_product"]["dim"] == 4


def test_cli_validate_universal_s3(tmp_path, capsys):
    # Lambda = k_par S3 of dim 112: the module axioms are decided over the
    # algebra generators
    with open(group_path("s3.json")) as fh:
        group = json.load(fh)
    spec = tmp_path / "universal_s3.json"
    spec.write_text(json.dumps({"field": {"kind": "Q"}, "group": group,
                                "sigma": [["1"] * 6 for _ in range(6)],
                                "module": "regular"}))
    code = main(["validate", str(spec)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["ok"] is True


def test_cli_build_crossed(capsys):
    code = main(["build-crossed", fixture_path("z2_twist2_q.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["dim"] == 3
    assert doc["result"]["universal_base"]


def test_cli_hochschild(capsys):
    code = main(["hochschild", fixture_path("z2_trivial_f2.json"),
                 "--max-n", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["oracle_agreement"]
    assert doc["result"]["dims"]["H0"] == 3
    assert doc["result"]["dims"]["H1"] == 2      # F2[u]/(u^3 - u) pattern


def test_cli_hochschild_checks_cohomology_on_both_routes(monkeypatch,
                                                         capsys):
    # a bar route that is off on cohomology only must fail the oracle
    bar = cli.lam_hochschild_bar

    def off_on_cohomology(inst, n, dual=False):
        dims = bar(inst, n, dual=dual)
        return [d + 1 for d in dims] if dual else dims

    monkeypatch.setattr(cli, "lam_hochschild_bar", off_on_cohomology)
    argv = ["hochschild", fixture_path("z2_trivial_q.json"), "--max-n", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    code = main(argv + ["--cohomology"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["result"]["oracle_agreement"] is False


def test_cli_partial_homology(capsys):
    code = main(["partial-homology", fixture_path("z2_trivial_q.json"),
                 "--max-n", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["dims"]["H1"] == 0      # semisimple over Q


def test_cli_spectral(capsys):
    code = main(["spectral", fixture_path("z3_kappa2_q.json"),
                 "--max-p", "2", "--max-q", "2"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out[:out.rindex("}") + 1])
    assert doc["result"]["checks"]["ok"]


@pytest.mark.parametrize("orientation", [[], ["--cohomology"]],
                         ids=["homology", "cohomology"])
def test_cli_spectral_past_the_oracle_degree(orientation, capsys):
    # the battery runs to n = min(max_p, max_q) = 4, past the oracle's
    # degree 3
    code = main(["spectral", fixture_path("z2_trivial_q.json"),
                 "--max-p", "4", "--max-q", "4", *orientation])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out[:out.rindex("}") + 1])
    assert doc["ok"] and doc["result"]["checks"]["ok"]


def test_cli_error_is_machine_readable(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"kind": "Fp", "p": 9},
                               "group": {"cayley": [[0]]}}))
    code = main(["validate", str(bad)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"]["type"] == "SchemaError"


def test_cli_missing_file(capsys):
    code = main(["validate", "/nonexistent/problem.json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert not doc["ok"]


def test_report_byte_identical_modulo_timing(capsys):
    main(["hochschild", fixture_path("z2_trivial_q.json"), "--max-n", "1"])
    out1 = capsys.readouterr().out
    main(["hochschild", fixture_path("z2_trivial_q.json"), "--max-n", "1"])
    out2 = capsys.readouterr().out
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing_seconds")
    d2.pop("timing_seconds")
    assert d1 == d2


def test_json_out_flag(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["--json-out", str(dest), "build-kpar", group_path("z3.json")])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["result"]["dim"] == 8


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # one parser serves every call of main in a process; an option given
    # to one call is not seen by the next
    dest = tmp_path / "report.json"
    assert main(["--json-out", str(dest), "build-kpar",
                 group_path("z2.json")]) == 0
    dest.unlink()
    assert main(["build-kpar", group_path("z3.json")]) == 0
    assert not dest.exists()
    with pytest.raises(SystemExit) as exc:
        main(["build-kpar"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli._parser() is cli._parser()


def test_env_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("PARHOX_CAP", "2")
    code = main(["build-kpar", group_path("z3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"]["type"] == "SizeLimit"


def test_cli_malformed_json_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["validate", str(bad)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"]["type"] == "IOError"


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    # a fault that is neither bad input nor a failed verdict; the parser,
    # built once per process, holds the command functions themselves, so
    # the fault goes into a function that the command calls
    def broken(spec):
        raise RuntimeError("broken invariant")
    monkeypatch.setattr(cli, "build_instance", broken)
    code = main(["validate", fixture_path("z2_trivial_q.json")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3 and doc["ok"] is False
    assert doc["error"] == {"type": "InternalError",
                            "message": "RuntimeError: broken invariant"}


@pytest.mark.parametrize("command", ["hochschild", "partial-homology"])
def test_problem_file_cap_is_honored(command, tmp_path, capsys):
    # a tiny chain cap in the problem options must trip SizeLimit
    src = json.loads(open(fixture_path("z2_dual_q.json")).read())
    src["options"]["cap"] = 4
    p = tmp_path / "capped.json"
    p.write_text(json.dumps(src))
    code = main([command, str(p), "--max-n", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"]["type"] == "SizeLimit"


def test_spectral_cap_bounds_the_oracle_complexes(capsys):
    # the battery's bar complex of Lambda at n = 4 has dims up to 324; the
    # chain-action towers stay below 40, so only the oracle can trip here
    code = main(["spectral", fixture_path("z2_dual_q.json"), "--cap", "40"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"] == {
        "type": "SizeLimit",
        "message": "relative bar complex of A*Z2 with A*Z2 regular over 1 "
                   "idempotents: dims [4, 12, 36, 108, 324] exceed cap 40"}


@pytest.mark.parametrize("command", [["spectral"],
                                     ["hochschild", "--max-n", "3"]],
                         ids=lambda argv: argv[0])
def test_cap_bounds_the_free_resolutions(command, capsys):
    # Lambda = F_2 x F_2[x]/(x^2) has no separability idempotent, so the
    # resolution route takes a free resolution of Lambda over Lambda^e
    # (dim 9), with ranks [1, 2, 4, 7, 11]; the bar complexes stay below 70
    # (dims up to 48), so only its degree 4 can trip here
    code = main([command[0], fixture_path("z2_trivial_f2.json"),
                 *command[1:], "--cap", "70"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"] == {
        "type": "SizeLimit",
        "message": "free resolution degree 4: 11 generators x dim 9 = "
                   "99 exceeds cap 70"}


def test_report_carries_scope_note(capsys):
    code = main(["spectral", fixture_path("z2_trivial_q.json"),
                 "--max-p", "1", "--max-q", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "differentials d_r are not constructed" in out


def _set_field_p(doc):
    doc["field"] = {"kind": "Fp", "p": "3"}


def _set_sigma(value):
    def mutate(doc):
        doc["sigma"][1][1] = value
    return mutate


def _set_sc_index(doc):
    doc["action"]["algebra"]["sc"][0][2] = 7


def _keep(doc):
    pass


def _set_action(key, value):
    def mutate(doc):
        if key is None:
            doc["action"] = value
        else:
            doc["action"][key] = value
    return mutate


def _set_options(value):
    def mutate(doc):
        doc["options"] = value
    return mutate


@pytest.mark.parametrize("mutate, command, env", [
    (_set_field_p, "validate", {}),          # "3" instead of 3: was a TypeError
    (_set_sigma("abc"), "validate", {}),     # was a ValueError
    (_set_sigma("1/0"), "validate", {}),     # was a ZeroDivisionError
    (_set_sc_index, "validate", {}),         # k = 7 in dim 2: was an IndexError
    (_keep, "build-kpar", {"PARHOX_CAP": "abc"}),    # was a ValueError
    (_set_options({"max_p": "2"}), "spectral", {}),  # was a TypeError
    (_set_options(5), "spectral", {}),               # was a TypeError
    (_set_options({"cap": "x"}), "spectral", {}),    # was a TypeError
    (_set_options({"max_q": -1}), "spectral", {}),   # was an IndexError
    # each of these was a TypeError, exit 1
    (_set_action("one_g", 5), "validate", {}),
    (_set_action("one_g", [5, 5, 5]), "validate", {}),
    (_set_action("theta", 5), "validate", {}),
    (_set_action("theta", [5, 5, 5]), "validate", {}),
    (_set_action("theta", [[5, 5], [5, 5], [5, 5]]), "validate", {}),
    (_set_action(None, 5), "validate", {}),
], ids=["p-string", "sigma-abc", "sigma-1/0", "sc-index", "env-cap-abc",
        "options-max-p-string", "options-not-object", "options-cap-string",
        "options-max-q-negative", "one-g-int", "one-g-int-entries",
        "theta-int", "theta-int-entries", "theta-int-rows", "action-int"])
def test_malformed_input_is_a_schema_error(mutate, command, env, tmp_path,
                                           capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    doc = json.loads(open(fixture_path("z3_kappa2_q.json")).read())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main([command, str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("command", ["validate", "spectral"])
@pytest.mark.parametrize("key, value, message", [
    ("group", {"cayley": [], "order": 0}, "Cayley table is empty"),
    ("field", {"kind": "Fp", "p": 10 ** 30 + 57}, "below 2^64"),
], ids=["empty-group", "huge-p"])
def test_degenerate_group_and_field_are_schema_errors(command, key, value,
                                                      message, tmp_path,
                                                      capsys):
    # the empty table was an AssertionError in enumerate_exel (exit 3), and
    # p = 10^30 + 57 ran trial division for minutes
    doc = {"field": {"kind": "Q"}, "module": "regular",
           "group": {"cayley": [[0, 1], [1, 0]], "order": 2}, key: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main([command, str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "SchemaError"
    assert message in out["error"]["message"]


@pytest.mark.parametrize("command", ["validate", "spectral", "build-kpar"])
@pytest.mark.parametrize("value", [[1, 2], 3, "x", None],
                         ids=["list", "int", "string", "null"])
def test_top_level_non_object_is_a_schema_error(value, command, tmp_path,
                                                capsys):
    # a top-level list was an AttributeError and exit 1 in parse_spec_file
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(value))
    code = main([command, str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("argv", [
    ["build-kpar", group_path("z3.json"), "--seed", "0"],
    ["spectral", fixture_path("z2_trivial_q.json"), "--seed", "0"],
    ["build-crossed", fixture_path("z2_trivial_q.json"), "--cap", "9"],
    ["partial-homology", fixture_path("z2_trivial_q.json"), "--cap", "9"],
    ["selfcheck", "--cap", "9"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    {"seed": 0},                 # the unread option is gone
    {"max_n": True},
    {"cap": 0},
    {"monoid_limit": 0},
    {"max_p": 1.5},
], ids=["seed", "bool", "cap-zero", "monoid-limit-zero", "float"])
def test_parse_spec_rejects_bad_options(options):
    doc = json.loads(open(fixture_path("z2_trivial_q.json")).read())
    doc["options"] = options
    with pytest.raises(SchemaError):
        parse_spec(doc)


def test_parse_spec_accepts_zero_degrees():
    doc = json.loads(open(fixture_path("z2_trivial_q.json")).read())
    doc["options"] = {"max_p": 0, "max_q": 0, "max_n": 0, "cap": 1,
                      "monoid_limit": 1}
    assert parse_spec(doc).options == doc["options"]


def test_build_instance_reads_the_monoid_limit_option():
    doc = json.loads(open(fixture_path("z3_kappa2_q.json")).read())
    doc["options"] = {"monoid_limit": 7}        # |S(Z3)| = 8
    with pytest.raises(SizeLimit, match="exceeds limit 7"):
        build_instance(parse_spec(doc))
    doc["options"] = {}
    assert parse_spec(doc).options["monoid_limit"] == DEFAULT_MONOID_LIMIT


def test_build_instance_reads_the_cap_option():
    # the problem's cap bounds the battery through the Python API too
    doc = json.loads(open(fixture_path("z2_dual_q.json")).read())
    doc["options"]["cap"] = 4
    inst = build_instance(parse_spec(doc))
    assert inst.chain_cap == 4
    with pytest.raises(SizeLimit, match="exceed cap 4"):
        run_all_checks(inst)


@pytest.mark.parametrize("module, path", [
    ({"dim": "2", "left": {"d0[0]": [["1", "0"], ["0", "1"]]}},
     "$.module.dim"),
    ({"dim": -1, "left": {}}, "$.module.dim"),
    ({"dim": 2}, "$.module"),
    ({"dim": 2, "left": []}, "$.module.left"),
    ({"dim": 2, "right": None}, "$.module.right"),
    ({"dim": 2, "left": {"d1[0]": [1, 2]}}, "$.module.left.d1[0]"),
    ({"dim": 2, "left": {"d1[0]": [["1"]]}}, "$.module.left.d1[0]"),
    ({"dim": 2, "left": {"d1[0]": [["1", "0", "0"], ["0", "1", "0"]]}},
     "$.module.left.d1[0]"),
    ({"dim": 2, "right": {"d1[0]": [["1", "0"], ["0", "1"], ["0", "0"]]}},
     "$.module.right.d1[0]"),
], ids=["dim string", "dim negative", "no action", "left list",
        "right null", "flat matrix", "1x1", "2x3", "3x2"])
def test_cli_rejects_a_malformed_module_block(module, path, tmp_path,
                                              capsys):
    # a module block of the wrong shape ends in a SchemaError that names
    # the offending path (exit 2), not in a traceback or a misleading
    # "generators do not generate" verdict
    with open(fixture_path("z2_dual_q.json")) as fh:
        doc = json.load(fh)
    doc["module"] = module
    bad = tmp_path / "module.json"
    bad.write_text(json.dumps(doc))
    code = main(["validate", str(bad)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert err["type"] == "SchemaError"
    assert err["message"].startswith(path + ":")


# -- the report layout -------------------------------------------------------

def stdlib_layout(x):
    return json.dumps(x, indent=1, sort_keys=True)


json_text = st.text(alphabet=st.sampled_from(
    ["a", " ", "[", "]", ",", "\n", '"', "\\", "\u00e9", "\u2202", "\t"])) | \
    st.sampled_from(["],\n [", "],\n  [", "],\n   [", "]", "[", ""])
json_scalars = (st.none() | st.booleans() | st.integers() |
                st.floats() | json_text)
json_trees = st.recursive(
    json_scalars,
    lambda kids: (st.lists(kids, max_size=4) |
                  st.lists(st.lists(json_scalars, min_size=1, max_size=3),
                           max_size=4) |
                  st.lists(st.lists(kids, min_size=1, max_size=3),
                           max_size=4) |
                  st.tuples(kids, kids) |
                  st.dictionaries(json_text, kids, max_size=4) |
                  st.dictionaries(st.integers(), kids, max_size=3)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(json_trees)
def test_report_writer_matches_the_stdlib_layout(tree):
    # lists of flat lists take the encoder-plus-replace path; strings with
    # "],\n [" inside must survive it
    assert cli._format(tree) == stdlib_layout(tree)


def coboundary_sigma(path, cayley, f, dump):
    """sigma(g, h) = f(g) f(h) / f(gh) as a sigma file."""
    n = len(cayley)
    path.write_text(json.dumps([[dump(f[g] * f[h] / f[cayley[g][h]])
                                 for h in range(n)] for g in range(n)]))
    return str(path)


def report_cases(tmp_path):
    with open(group_path("s3.json")) as fh:
        s3 = FiniteGroup.from_json(json.load(fh)).table
    q_sigma = coboundary_sigma(
        tmp_path / "global_q.json", s3,
        [Fraction(v) for v in ("1", "2", "-3", "1/2", "5/3", "7")], str)
    f7_sigma = coboundary_sigma(
        tmp_path / "global_f7.json", s3,
        [Fraction(v) for v in (1, 3, 5, 2, 6, 4)],
        lambda x: x.numerator * pow(x.denominator, -1, 7) % 7)
    return {
        "universal S3": ["build-kpar", group_path("s3.json")],
        "global Q": ["build-kpar", group_path("s3.json"), "--sigma", q_sigma],
        "global F7": ["build-kpar", group_path("s3.json"), "--sigma",
                      f7_sigma, "--field", '{"kind":"Fp","p":7}'],
        "spectral": ["spectral", fixture_path("z2_trivial_q.json")],
        "exit 2": ["build-kpar", group_path("s3.json"),
                   "--field", '{"kind":"Fp","p":9}'],
    }


@pytest.mark.parametrize("case", ["universal S3", "global Q", "global F7",
                                  "spectral", "exit 2"])
def test_reports_have_the_stdlib_layout(case, tmp_path, capsys):
    code = main(report_cases(tmp_path)[case])
    out = capsys.readouterr().out
    doc, end = json.JSONDecoder().raw_decode(out)
    assert out[:end] == stdlib_layout(doc)
    assert code == (2 if case == "exit 2" else 0)
    if case.startswith("global"):
        assert doc["result"]["dim"] == 112


def test_universal_z4_runs_on_relative_complexes(capsys):
    # Lambda = kappa_par Z4 over F_3 (dim 20): its absolute d_3 would be
    # 7 220 x 137 180; relative to the atoms of the 1_g its chain spaces
    # have dims [12, 22, 52, 136], so a cap of 400 (Lambda's separability
    # equations have 20 x 20 unknowns) bounds the whole battery
    path = os.path.join(os.path.dirname(__file__), "data",
                        "universal_z4_f3.json")
    assert main(["hochschild", path, "--max-n", "3", "--cohomology"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["dims"] == {"H0": 9, "H1": 0, "H2": 0, "H3": 0}
    assert res["cohomology_dims"] == {"H^0": 9, "H^1": 0, "H^2": 0, "H^3": 0}
    assert res["oracle_agreement"] is True
    assert main(["spectral", path, "--cap", "400"]) == 0
    doc, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["result"]["E2"]["entries"]["0,0"] == 9
