"""CLI contract: document schemas, exit codes, worked examples."""

import ast
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from _cases import ALGEBRAS, IDS, minus_i_eps
import maslov_kit
from maslov_kit import algebra as al
from maslov_kit import boundary as bd
from maslov_kit import cli
from maslov_kit import dynamics as dy
from maslov_kit import selftest as st
from maslov_kit._serialize import dumps
from maslov_kit.cli import GEN_KINDS, main
from maslov_kit.schemas import (
    parse_element,
    parse_word,
    serialize_element,
    serialize_word,
)

runner = CliRunner()


def invoke(*args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def write_doc(path, doc):
    path.write_text(dumps(doc))
    return str(path)


def lift_doc(point, theta):
    doc = serialize_element(point)
    doc["theta"] = theta
    return doc


def unit_doc(alg, sign=1.0, theta=None):
    pt = bd.ShilovPoint(sign * bd.complexify(al.unit(alg)))
    return serialize_element(pt) if theta is None else lift_doc(pt, theta)


# ------------------------------------------------------------------ compute

def test_compute_mu_on_generated_points(tmp_path):
    p1 = str(tmp_path / "p1.json")
    p2 = str(tmp_path / "p2.json")
    assert invoke("gen", "--kind", "element", "--algebra", "sym-r",
                  "--param", "2", "--seed", "1", "--out", p1).exit_code == 0
    assert invoke("gen", "--kind", "element", "--algebra", "sym-r",
                  "--param", "2", "--seed", "2", "--out", p2).exit_code == 0
    res = invoke("compute", "--op", "mu", p1, p2)
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["op"] == "mu"
    assert doc["value"] == 0
    assert doc["tolerances"]["transverse"] == pytest.approx(1e-7)


def test_compute_mu_self_is_rank(tmp_path):
    alg = al.algebra(al.SPIN, 5)
    f = write_doc(tmp_path / "p.json", unit_doc(alg))
    res = invoke("compute", "--op", "mu", f, f)
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == alg.rank


def test_compute_souriau_orbit_value(tmp_path):
    alg = al.algebra(al.SYM_R, 2)
    f1 = write_doc(tmp_path / "l1.json", unit_doc(alg, theta=0.0))
    f2 = write_doc(tmp_path / "l2.json", unit_doc(alg, -1.0, theta=math.pi))
    res = invoke("compute", "--op", "souriau", f1, f2)
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["value"] == alg.rank
    assert abs(doc["raw"] - doc["value"]) < 1e-6
    assert "witnesses" not in doc


def test_compute_iota_orbit_value(tmp_path):
    alg = al.algebra(al.SYM_R, 2)
    files = [
        write_doc(tmp_path / "a.json", unit_doc(alg)),
        write_doc(tmp_path / "b.json", unit_doc(alg, -1.0)),
        write_doc(tmp_path / "c.json", serialize_element(minus_i_eps(alg, 1))),
    ]
    res = invoke("compute", "--op", "iota", *files)
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == 0  # 2k - r with k=1, r=2


def test_compute_witnesses_reported_for_coincident_pair(tmp_path):
    alg = al.algebra(al.SYM_R, 2)
    frame = al.standard_frame(alg)
    a1 = np.array([0.3, -1.2])
    a2 = np.array([0.3, 1.9])  # strand 0 coincides
    l1 = lift_doc(bd.from_unit_spectrum(alg, a1, frame), float(np.sum(a1)) / 2)
    l2 = lift_doc(bd.from_unit_spectrum(alg, a2, frame), float(np.sum(a2)) / 2)
    res = invoke("compute", "--op", "souriau",
                 write_doc(tmp_path / "l1.json", l1),
                 write_doc(tmp_path / "l2.json", l2))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert len(doc["witnesses"]) == 1
    witness = parse_element(doc["witnesses"][0])
    assert witness.value.alg == alg


def test_compute_reads_stdin(tmp_path):
    alg = al.algebra(al.HERM_C, 2)
    f2 = write_doc(tmp_path / "p2.json", unit_doc(alg, -1.0))
    res = invoke("compute", "--op", "mu", "-", f2,
                 input=dumps(unit_doc(alg)))
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == 0


# --------------------------------------------------------------- exit codes

def test_malformed_coords_exit_2_names_field(tmp_path):
    doc = unit_doc(al.algebra(al.SYM_R, 2))
    doc["coords_re"] = doc["coords_re"][:-1]
    bad = write_doc(tmp_path / "bad.json", doc)
    good = write_doc(tmp_path / "good.json", unit_doc(al.algebra(al.SYM_R, 2)))
    res = invoke("compute", "--op", "mu", bad, good)
    assert res.exit_code == 2
    assert "coords_re" in res.output
    assert "expected 3" in res.output


def test_missing_theta_exit_2(tmp_path):
    alg = al.algebra(al.SYM_R, 2)
    f = write_doc(tmp_path / "p.json", unit_doc(alg))
    res = invoke("compute", "--op", "souriau", f, f)
    assert res.exit_code == 2
    assert "theta" in res.output


def test_wrong_arity_exit_2(tmp_path):
    alg = al.algebra(al.SYM_R, 2)
    f = write_doc(tmp_path / "p.json", unit_doc(alg))
    res = invoke("compute", "--op", "iota", f, f)
    assert res.exit_code == 2


def test_algebra_mismatch_exit_2(tmp_path):
    f1 = write_doc(tmp_path / "a.json", unit_doc(al.algebra(al.SYM_R, 2)))
    f2 = write_doc(tmp_path / "b.json", unit_doc(al.algebra(al.SPIN, 3)))
    res = invoke("compute", "--op", "mu", f1, f2)
    assert res.exit_code == 2
    assert "algebra" in res.output


def test_invalid_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = write_doc(tmp_path / "good.json", unit_doc(al.algebra(al.SYM_R, 2)))
    res = invoke("compute", "--op", "mu", str(bad), good)
    assert res.exit_code == 2
    assert "invalid JSON" in res.output


def test_missing_file_exit_2(tmp_path):
    good = write_doc(tmp_path / "good.json", unit_doc(al.algebra(al.SYM_R, 2)))
    res = invoke("compute", "--op", "mu", str(tmp_path / "nope.json"), good)
    assert res.exit_code == 2


def test_gray_zone_strict_exit_3_permissive_0(tmp_path):
    alg = al.algebra(al.SYM_R, 2)
    frame = al.standard_frame(alg)
    base = np.linspace(-2.0, 2.0, alg.rank)
    near = base + 1.0
    near[0] = base[0] + 3e-7  # inside the strict-refusal gray band
    f1 = write_doc(tmp_path / "a.json",
                   serialize_element(bd.from_unit_spectrum(alg, near, frame)))
    f2 = write_doc(tmp_path / "b.json",
                   serialize_element(bd.from_unit_spectrum(alg, base, frame)))
    strict = invoke("compute", "--op", "mu", f1, f2)
    assert strict.exit_code == 3
    loose = invoke("compute", "--op", "mu", "--mode", "permissive", f1, f2)
    assert loose.exit_code == 0
    assert json.loads(loose.output)["value"] == 0


# ----------------------------------------------------------------- rotation

def phase_word_doc(alg, phi):
    v = phi * al.unit(alg)
    return {
        "algebra": {"kind": alg.kind, "param": alg.param},
        "mode": "unitary",
        "generators": [{"type": "exp-iL",
                        "v": [float(c) for c in v.coords]}],
    }


def test_rotation_scalar_phase_example(tmp_path):
    # phase pi/3 on a rank-2 algebra at K=8: estimate 3/8, bound 1/8,
    # true rotation number 1/3
    alg = al.algebra(al.SYM_R, 2)
    f = write_doc(tmp_path / "w.json", phase_word_doc(alg, math.pi / 3))
    res = invoke("rotation", f, "--k", "8")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rho_mod1"] == pytest.approx(0.375, abs=1e-12)
    assert doc["error_bound"] == pytest.approx(0.125, abs=1e-15)
    assert doc["tau_estimate"] == pytest.approx(-0.75, abs=1e-12)
    assert abs(doc["rho_mod1"] - 1.0 / 3.0) <= doc["error_bound"]


def test_rotation_fixing_word_rho_zero(tmp_path):
    alg = al.algebra(al.HERM_C, 2)
    rng = np.random.default_rng(17)
    b = al.random_element(alg, rng, 0.5)
    word = bd.GroupWord(alg, [bd.LinearGen([("lmul", 0.3 * al.unit(alg))]),
                              bd.TranslateGen(b)])
    zstar = (1.0 / (1.0 - math.exp(0.3))) * b
    sigma_star = bd.as_shilov(bd.cayley_p(bd.complexify(zstar)))
    wf = write_doc(tmp_path / "w.json", serialize_word(word))
    bf = write_doc(tmp_path / "b.json",
                   serialize_element(bd.lift(sigma_star)))
    res = invoke("rotation", wf, "--k", "8", "--base", bf)
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert min(doc["rho_mod1"], 1.0 - doc["rho_mod1"]) < 1e-9


def test_rotation_walks_one_orbit_per_command(tmp_path, monkeypatch):
    """tau, rho and the bound come from one orbit walk per command and are
    the floats translation_tau and rotation_rho return."""
    walks = []
    power_lift = dy._power_lift

    def counting(word, lifted, power, tol):
        walks.append(power)
        return power_lift(word, lifted, power, tol)

    monkeypatch.setattr(dy, "_power_lift", counting)
    cases = [(al.algebra(al.SYM_R, 2), "mixed"), (al.algebra(al.HERM_C, 2), "tube"),
             (al.algebra(al.SPIN, 5), "unitary")]
    for n, (alg, mode) in enumerate(cases):
        wf = write_doc(tmp_path / f"w{n}.json", serialize_word(
            bd.random_word(alg, np.random.default_rng(n), mode)))
        bf = write_doc(tmp_path / f"b{n}.json", serialize_element(
            bd.lift(bd.random_shilov(alg, np.random.default_rng(n)), 1)))
        word = parse_word(json.loads(Path(wf).read_text()))
        base = parse_element(json.loads(Path(bf).read_text()))
        for extra, lifted in [((), None), (("--base", bf), base)]:
            before = len(walks)
            res = invoke("rotation", wf, "--k", "16", *extra)
            assert res.exit_code == 0
            assert walks[before:] == [16]
            doc = json.loads(res.output)
            tau, _ = dy.translation_tau(word, 16, lifted)
            rho, bound = dy.rotation_rho(word, 16, lifted)
            assert (doc["tau_estimate"], doc["rho_mod1"], doc["error_bound"]) == (
                tau, rho, bound)


# --------------------------------------------------------------------- path

def test_path_arnold_loop_with_csv(tmp_path):
    loop = str(tmp_path / "loop.json")
    ref = str(tmp_path / "ref.json")
    csv_out = tmp_path / "strands.csv"
    invoke("gen", "--kind", "loop", "--algebra", "spin", "--param", "3",
           "--seed", "5", "--out", loop)
    invoke("gen", "--kind", "element", "--algebra", "spin", "--param", "3",
           "--seed", "6", "--out", ref)
    res = invoke("path", "--op", "arnold", loop, ref,
                 "--csv", str(csv_out))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    rank = 2
    assert doc["value"] == rank
    assert len(doc["crossings"]) == rank
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "t,strand_id,angle,crossing_flag,sign"
    assert len(lines) == 1 + 65 * rank + rank
    assert sum(line.split(",")[3] == "1" for line in lines[1:]) == rank


def test_path_tangent_strict_exit_3_permissive_0(tmp_path):
    tangent = str(tmp_path / "tangent.json")
    invoke("gen", "--kind", "tangent", "--algebra", "sym-r", "--param", "2",
           "--seed", "7", "--out", tangent)
    ref = write_doc(tmp_path / "ref.json", unit_doc(al.algebra(al.SYM_R, 2)))
    strict = invoke("path", "--op", "arnold", tangent, ref)
    assert strict.exit_code == 3
    assert "tangent" in strict.output
    loose = invoke("path", "--op", "arnold", "--mode", "permissive",
                   tangent, ref)
    assert loose.exit_code == 0
    assert json.loads(loose.output)["value"] == 0


def test_path_pair_constant_against_loop(tmp_path):
    const = str(tmp_path / "const.json")
    loop = str(tmp_path / "loop.json")
    invoke("gen", "--kind", "constant", "--algebra", "sym-r", "--param", "2",
           "--seed", "8", "--out", const)
    invoke("gen", "--kind", "loop", "--algebra", "sym-r", "--param", "2",
           "--seed", "9", "--out", loop)
    res = invoke("path", "--op", "pair", const, loop)
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == 2


@pytest.mark.parametrize("op", ["arnold", "pair"])
def test_path_builds_one_flow(tmp_path, monkeypatch, op):
    first = str(tmp_path / "first.json")
    loop = str(tmp_path / "loop.json")
    kind = "element" if op == "arnold" else "constant"
    invoke("gen", "--kind", kind, "--algebra", "sym-r", "--param", "2",
           "--seed", "8", "--out", first)
    invoke("gen", "--kind", "loop", "--algebra", "sym-r", "--param", "2",
           "--seed", "9", "--out", loop)
    calls = []
    flow = dy.eigenangle_flow

    def counted(*args, **kwargs):
        calls.append(args)
        return flow(*args, **kwargs)

    monkeypatch.setattr(dy, "eigenangle_flow", counted)
    files = (loop, first) if op == "arnold" else (first, loop)
    res = invoke("path", "--op", op, *files, "--csv", str(tmp_path / "s.csv"))
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == 2
    assert len(calls) == 1


def test_path_algebra_mismatch_exit_2(tmp_path):
    p1 = str(tmp_path / "p1.json")
    p2 = str(tmp_path / "p2.json")
    invoke("gen", "--kind", "constant", "--algebra", "sym-r", "--param", "2",
           "--seed", "1", "--out", p1)
    invoke("gen", "--kind", "constant", "--algebra", "spin", "--param", "3",
           "--seed", "1", "--out", p2)
    res = invoke("path", "--op", "pair", p1, p2)
    assert res.exit_code == 2


# ------------------------------------------------------- documents and gen

def test_word_document_round_trip(tmp_path):
    f = str(tmp_path / "w.json")
    invoke("gen", "--kind", "word", "--algebra", "herm-c", "--param", "2",
           "--seed", "11", "--family", "mixed", "--out", f)
    doc = json.loads(open(f).read())
    assert doc == serialize_word(parse_word(doc))


def test_linear_word_document_round_trip():
    alg = al.algebra(al.SYM_R, 2)
    rng = np.random.default_rng(3)
    word = bd.GroupWord(alg, [
        bd.LinearGen([("lmul", al.random_element(alg, rng, 0.4)),
                      ("derivation", al.random_element(alg, rng, 0.4),
                       al.random_element(alg, rng, 0.4))]),
        bd.InversionGen(),
        bd.TranslateGen(al.random_element(alg, rng, 0.4)),
    ], base_arg=0.0)
    doc = serialize_word(word)
    assert doc == serialize_word(parse_word(doc))
    assert doc["generators"][0]["type"] == "linear"
    assert len(doc["generators"][0]["exponents"]) == 2


def test_gen_is_seed_deterministic(tmp_path):
    out = []
    for name in ("a.json", "b.json"):
        f = str(tmp_path / name)
        invoke("gen", "--kind", "element", "--algebra", "spin", "--param",
               "5", "--seed", "42", "--out", f)
        out.append(open(f).read())
    assert out[0] == out[1]
    f3 = str(tmp_path / "c.json")
    invoke("gen", "--kind", "element", "--algebra", "spin", "--param", "5",
           "--seed", "43", "--out", f3)
    assert open(f3).read() != out[0]


def assert_floats_round_trip(doc):
    """json.loads(dumps(doc)) gives back the layout of doc and every float
    in it with the same bits, sign of zero included, and as a float."""
    def walk(want, got):
        if isinstance(want, dict):
            assert list(got) == list(want)
            for key in want:
                walk(want[key], got[key])
        elif isinstance(want, (list, tuple)):
            assert len(got) == len(want)
            for a, b in zip(want, got):
                walk(a, b)
        elif isinstance(want, float):
            assert type(got) is float, (want, got)
            assert got.hex() == want.hex()
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
        else:
            assert type(got) is type(want) and got == want

    walk(doc, json.loads(dumps(doc)))


@pytest.fixture
def written(monkeypatch):
    """The documents the CLI writes, in order, recorded at its writer."""
    docs = []

    def recording(doc):
        docs.append(doc)
        return dumps(doc)

    monkeypatch.setattr(cli, "dumps", recording)
    return docs


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_unit_documents_keep_their_floats(alg):
    for sign in (1.0, -1.0):
        point = bd.ShilovPoint(sign * bd.complexify(al.unit(alg)))
        assert_floats_round_trip(serialize_element(point))
        assert_floats_round_trip(serialize_element(bd.lift(point)))
    minus = json.loads(dumps(serialize_element(
        bd.ShilovPoint(-bd.complexify(al.unit(alg))))))
    assert all(math.copysign(1.0, v) == -1.0 for v in minus["coords_im"])


GEN_ALGEBRAS = [("sym-r", 2), ("herm-c", 2), ("spin", 5)]


@pytest.mark.parametrize("kind,param", GEN_ALGEBRAS,
                         ids=[f"{k}-{p}" for k, p in GEN_ALGEBRAS])
def test_gen_documents_keep_their_floats(written, kind, param):
    for gen_kind in GEN_KINDS:
        res = invoke("gen", "--kind", gen_kind, "--algebra", kind,
                     "--param", str(param), "--seed", "3", "--n", "9")
        assert res.exit_code == 0
        assert res.output == dumps(written[-1])
        assert_floats_round_trip(written[-1])
    assert len(written) == len(GEN_KINDS)


@pytest.mark.parametrize("kind,param", GEN_ALGEBRAS,
                         ids=[f"{k}-{p}" for k, p in GEN_ALGEBRAS])
def test_command_documents_keep_their_floats(tmp_path, written, kind, param):
    """compute (every op, a coincident pair with its witness included),
    path and rotation documents."""
    def gen(name, gen_kind, seed):
        out = str(tmp_path / f"{name}.json")
        res = invoke("gen", "--kind", gen_kind, "--algebra", kind,
                     "--param", str(param), "--seed", str(seed), "--n", "17",
                     "--out", out)
        assert res.exit_code == 0
        return out

    points = [gen(f"p{k}", "element", k) for k in range(3)]
    lifts = [gen(f"l{k}", "lift", k) for k in range(2)]
    loop, const = gen("loop", "loop", 5), gen("const", "constant", 6)
    word = gen("w", "word", 7)
    commands = [("compute", "--op", "mu", *points[:2]),
                ("compute", "--op", "mu", points[0], points[0]),
                ("compute", "--op", "iota", *points),
                ("compute", "--op", "inertia", *points)]
    for op in ("souriau", "arnold", "alm"):
        commands += [("compute", "--op", op, *lifts),
                     ("compute", "--op", op, lifts[0], lifts[0])]
    commands += [("path", "--op", "arnold", loop, points[1]),
                 ("path", "--op", "pair", const, loop),
                 ("rotation", word, "--k", "8")]
    for args in commands:
        before = len(written)
        res = invoke(*args)
        assert res.exit_code == 0, args
        assert len(written) == before + 1
        assert res.output == dumps(written[-1])
    assert any("witnesses" in doc for doc in written)
    for doc in written:
        assert_floats_round_trip(doc)


def test_unknown_generator_type_exit_2(tmp_path):
    doc = {"algebra": {"kind": "sym-r", "param": 2}, "mode": "tube",
           "generators": [{"type": "twist"}]}
    wf = write_doc(tmp_path / "w.json", doc)
    res = invoke("rotation", wf, "--k", "4")
    assert res.exit_code == 2
    assert "generators[0]" in res.output


# ----------------------------------------------------------------- selftest

def test_selftest_report_is_deterministic():
    reports = []
    for _ in range(2):
        out = io.StringIO()
        code = st.run(level="quick", seed=5, out=out, err=io.StringIO())
        assert code == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    assert reports[0].splitlines()[-1] == "13/13 suites passed"
    assert len(reports[0].splitlines()) == 15


QUICK_REPORT_SEED_0 = """\
maslov-kit selftest  level=quick  seed=0
  1 orbit-values           PASS     20 checks
  2 leray-sum              PASS     40 checks
  3 cocycle-relation       PASS     40 checks
  4 pair-integrality       PASS     80 checks
  5 witness-independence   PASS     64 checks
  6 word-invariance        PASS     56 checks
  7 shared-frame-oracles   PASS     40 checks
  8 corank-inversion       PASS     40 checks
  9 coordinate-family      PASS    130 checks
 10 rotation-number        PASS     12 checks
 11 quasimorphism-bound    PASS     20 checks
 12 path-additivity        PASS     24 checks
 13 kernel-health          PASS    140 checks
13/13 suites passed
"""


def test_selftest_quick_report_is_pinned():
    """The quick report at seed 0 holds counts only, no timings, so a change
    that keeps the behaviour keeps it byte for byte."""
    out = io.StringIO()
    assert st.run(level="quick", seed=0, out=out, err=io.StringIO()) == 0
    assert out.getvalue() == QUICK_REPORT_SEED_0


def test_every_public_name_resolves():
    for name in maslov_kit.__all__:
        assert getattr(maslov_kit, name) is not None, name


def unreferenced_definitions(src):
    """The definitions in the modules of `src` that no name or attribute in
    them refers to: the module-level functions and classes outside
    maslov_kit.__all__ and the non-dunder methods of those classes, plus the
    methods of Tolerances.  Click commands are left out; click calls them."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)

    def is_command(node):
        return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                   and d.func.attr in ("command", "group")
                   for d in node.decorator_list)

    found = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or is_command(node):
                continue
            exported = node.name in maslov_kit.__all__
            if not exported and node.name not in used:
                found.append(node.name)
            if isinstance(node, ast.ClassDef) and (not exported
                                                   or node.name == "Tolerances"):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not (item.name.startswith("__")
                                   and item.name.endswith("__"))
                          and item.name not in used]
    return found


def test_src_holds_no_definition_only_tests_reach():
    """Helpers that only tests call live in tests/_oracles.py, not in src/."""
    assert unreferenced_definitions(Path(maslov_kit.__file__).parent) == []


def unread_imports(src):
    """The names that a module of `src` imports and never reads, as
    "module.name".  A name listed in the module's __all__ counts as read."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.stem}.{name}")
    return found


def test_src_imports_only_names_it_reads():
    assert unread_imports(Path(maslov_kit.__file__).parent) == []


def test_version_flag():
    res = invoke("--version")
    assert res.exit_code == 0
    assert res.output == f"maslov-kit, version {maslov_kit.__version__}\n"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert maslov_kit.__version__ == project["version"]
