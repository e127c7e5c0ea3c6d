"""CLI contract: document schemas, exit codes, worked examples."""

import ast
import csv
import io
import json
import math
from dataclasses import fields, replace
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
from maslov_kit import schemas as sc
from maslov_kit import selftest as st
from maslov_kit._serialize import dumps
from maslov_kit.cli import GEN_KINDS, main
from maslov_kit.config import DEFAULT, Tolerances
from maslov_kit.errors import DomainError
from maslov_kit.schemas import (
    parse_algebra,
    parse_element,
    parse_path,
    parse_word,
    serialize_element,
    serialize_path,
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


def test_unwritable_output_exit_2(tmp_path):
    """An output file that cannot be written exits 2 with an error line, as
    an input file that cannot be read does, not with a traceback."""
    loop, ref = str(tmp_path / "loop.json"), str(tmp_path / "ref.json")
    assert invoke("gen", "--kind", "loop", "--n", "33", "--seed", "3",
                  "--out", loop).exit_code == 0
    assert invoke("gen", "--kind", "element", "--seed", "9", "--out", ref).exit_code == 0
    missing = tmp_path / "missing"
    for target, args in ((missing / "x.json", ("gen", "--kind", "element", "--out")),
                         (missing / "x.csv", ("path", "--op", "arnold", loop, ref,
                                              "--csv"))):
        res = invoke(*args, str(target))
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {target}: ")
        assert "Traceback" not in res.output


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


@pytest.mark.parametrize("flag,value,field", [
    ("--tol-transverse", "nan", "transverse"),
    ("--tol-transverse", "-1", "transverse"),
    ("--tol-transverse", "inf", "transverse"),
    ("--tol-transverse", "4", "transverse"),
    ("--tol-transverse", "0.4", "transverse"),
    ("--tol-int", "nan", "integer"),
    ("--tol-int", "0.5", "integer"),
    ("--mode", "lenient", "mode"),
])
def test_tolerance_flag_outside_its_range_exit_2(tmp_path, flag, value, field):
    """mu(sigma, sigma) is the rank; a NaN or negative gate used to print 0,
    and a NaN integer bound turned the integrality guard off.  A gate whose
    gray zone reached pi made every angle a coincidence: mu of the transverse
    sym-r 2 points of seeds 1 and 2 printed 2.  A mode is checked as the
    numbers are."""
    p = str(tmp_path / "p.json")
    assert invoke("gen", "--kind", "element", "--seed", "5", "--out", p).exit_code == 0
    res = invoke("compute", "--op", "mu", flag, value, p, p)
    assert res.exit_code == 2
    assert f"tolerance {field}" in res.output
    with pytest.raises(DomainError, match=f"tolerance {field}"):
        replace(DEFAULT, **{field: value if field == "mode" else float(value)})


def test_flags_build_at_most_one_tolerances(tmp_path, monkeypatch):
    """Tolerances holds one field per flag.  The flags at their defaults give
    DEFAULT itself; any others give one replace of it."""
    assert {field.name for field in fields(Tolerances)} == {
        "transverse", "integer", "mode"}
    p = str(tmp_path / "p.json")
    assert invoke("gen", "--kind", "element", "--seed", "5", "--out", p).exit_code == 0
    built = []

    def recording(tol, **changes):
        built.append(changes)
        return replace(tol, **changes)

    monkeypatch.setattr(cli, "replace", recording)
    seen = []
    monkeypatch.setattr(cli.ix, "mu", lambda s, t, tol: seen.append(tol) or 0)
    for flags, changes in [
            ((), None),
            (("--mode", "strict"), None),
            (("--mode", "permissive", "--tol-transverse", "1e-8", "--tol-int", "1e-5"),
             {"transverse": 1e-8, "integer": 1e-5, "mode": "permissive"})]:
        built.clear()
        res = invoke("compute", "--op", "mu", *flags, p, p)
        assert res.exit_code == 0, res.output
        if changes is None:
            assert built == [] and seen[-1] is DEFAULT
        else:
            assert built == [changes] and seen[-1] == replace(DEFAULT, **changes)
        assert json.loads(res.output)["mode"] == seen[-1].mode


def test_non_finite_path_time_exit_2(tmp_path):
    loop, ref = str(tmp_path / "loop.json"), str(tmp_path / "ref.json")
    assert invoke("gen", "--kind", "loop", "--n", "33", "--seed", "3",
                  "--out", loop).exit_code == 0
    assert invoke("gen", "--kind", "element", "--seed", "9", "--out", ref).exit_code == 0
    doc = json.loads(Path(loop).read_text())
    doc["samples"][25]["t"] = math.nan
    Path(loop).write_text(json.dumps(doc))
    res = invoke("path", "--op", "arnold", loop, ref)
    assert res.exit_code == 2
    assert "samples[25].t" in res.output
    point = bd.ShilovPoint(bd.complexify(al.unit(al.algebra(al.SYM_R, 2))))
    with pytest.raises(DomainError, match="finite"):
        dy.BoundaryPath([(0.0, point), (math.nan, point), (1.0, point)])


def test_non_finite_base_arg_exit_2(tmp_path):
    word = str(tmp_path / "w.json")
    assert invoke("gen", "--kind", "word", "--seed", "3", "--out", word).exit_code == 0
    doc = json.loads(Path(word).read_text())
    doc["base_arg"] = math.nan
    Path(word).write_text(json.dumps(doc))
    res = invoke("rotation", word)
    assert res.exit_code == 2
    assert "base_arg" in res.output
    with pytest.raises(DomainError, match="base_arg"):
        bd.GroupWord(al.algebra(al.SYM_R, 2), (), base_arg=math.inf)


@pytest.mark.parametrize("command", ["gen --kind element", "selftest"])
def test_negative_seed_exit_2(command):
    res = invoke(*command.split(), "--seed", "-1")
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("kind", ["loop", "tangent", "constant", "element"])
@pytest.mark.parametrize("n", ["-1", "0", "1"])
def test_sample_count_below_2_exit_2(kind, n):
    """A path needs two samples, so --n below 2 is refused by its option,
    for every kind, before anything is drawn: no numpy error, no exit 0."""
    res = invoke("gen", "--kind", kind, "--n", n)
    assert res.exit_code == 2
    assert "--n" in res.output
    assert "Traceback" not in res.output
    assert invoke("gen", "--kind", kind, "--n", "2").exit_code == 0


@pytest.mark.parametrize("turns", ["nan", "inf", "-inf"])
def test_non_finite_turns_exit_2(turns):
    """A non-finite --turns is refused by its option, which the message
    names, before any point is built."""
    res = invoke("gen", "--kind", "loop", "--turns", turns)
    assert res.exit_code == 2
    assert "'--turns'" in res.stderr
    assert "coordinates must be finite" not in res.stderr
    assert invoke("gen", "--kind", "loop", "--turns", "2.5").exit_code == 0


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
    power_lift = bd._power_lift

    def counting(word, lifted, power):
        walks.append(power)
        return power_lift(word, lifted, power)

    monkeypatch.setattr(bd, "_power_lift", counting)
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


def test_rotation_base_must_be_a_lift_on_the_word_algebra(tmp_path):
    """--base takes a lifted point; one on another algebra is refused naming
    its file's algebra field, as path refuses its reference."""
    wf = str(tmp_path / "w.json")
    invoke("gen", "--kind", "word", "--seed", "4", "--out", wf)
    point = write_doc(tmp_path / "point.json", unit_doc(al.algebra(al.SYM_R, 2)))
    res = invoke("rotation", wf, "--base", point)
    assert res.exit_code == 2
    assert res.stderr == f"error: {point}.theta: base must be a lifted point\n"
    spin = al.algebra(al.SPIN, 3)
    other = write_doc(tmp_path / "other.json", unit_doc(spin, theta=0.0))
    res = invoke("rotation", wf, "--base", other)
    assert res.exit_code == 2
    assert res.stderr == f"error: {other}.algebra: does not match the word\n"


@pytest.mark.parametrize("k", ["0", "-3"])
def test_rotation_power_below_1_exit_2(tmp_path, k):
    """--k below 1 is refused by its option, which the message names."""
    wf = str(tmp_path / "w.json")
    invoke("gen", "--kind", "word", "--seed", "4", "--out", wf)
    res = invoke("rotation", wf, "--k", k)
    assert res.exit_code == 2
    assert "'--k'" in res.stderr
    assert "power must be" not in res.stderr
    assert invoke("rotation", wf, "--k", "1").exit_code == 0


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


def pair_sharing_a_direction(alg, seed):
    """A constant path and a path turning one of its eigenangles by
    0.6 + 2 pi t on the same frame.  The endpoints share the other
    directions, so the pair is counted at pi - theta, not at pi."""
    rng = np.random.default_rng(seed)
    frame = al.random_frame(alg, rng)
    ang = rng.uniform(-math.pi, math.pi, alg.rank)

    def turned(t):
        moved = ang.copy()
        moved[1] += 0.6 + 2 * math.pi * t
        return bd.from_unit_spectrum(alg, moved, frame)

    return (dy.constant_path(bd.from_unit_spectrum(alg, ang, frame), n=33),
            dy.BoundaryPath.from_function(turned, n=33))


def listed_pair_crossings(tmp_path, path1, path2):
    """(value, crossings in the JSON, crossing rows of the CSV) of
    `path --op pair` on the two paths."""
    files = [write_doc(tmp_path / f"p{k}.json", serialize_path(p))
             for k, p in enumerate((path1, path2))]
    csv_out = tmp_path / "s.csv"
    res = invoke("path", "--op", "pair", *files, "--csv", str(csv_out))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    rows = [row for row in csv.reader(csv_out.read_text().splitlines()[1:])
            if row[3] == "1"]
    return doc["value"], doc["crossings"], rows


def test_path_lists_the_crossings_it_counts(tmp_path, monkeypatch):
    """On herm-c 2, seed 4, the pair is counted at pi - theta: value 1.  The
    JSON and the CSV list that crossing, the CSV at the counting level, from
    the one crossing_records call of the count."""
    calls = []
    records = dy.crossing_records

    def counted(flow, level=math.pi):
        calls.append(level)
        return records(flow, level)

    monkeypatch.setattr(dy, "crossing_records", counted)
    path1, path2 = pair_sharing_a_direction(al.algebra(al.HERM_C, 2), 4)
    value, crossings, rows = listed_pair_crossings(tmp_path, path1, path2)
    assert value == 1
    assert [c["sign"] for c in crossings] == [1]
    assert len(calls) == 1 and calls[0] < math.pi
    assert [(int(row[1]), float(row[2]), int(row[4])) for row in rows] == [
        (crossings[0]["strand"], float(f"{calls[0]:.12g}"), 1)]


@pytest.mark.parametrize("kind,m", [(al.SYM_R, 2), (al.SYM_R, 3), (al.HERM_C, 2),
                                    (al.SPIN, 5)], ids=lambda x: str(x))
def test_path_crossings_sum_to_the_value(tmp_path, kind, m):
    """Over 60 pairs sharing a direction at their endpoints, the signs of
    the listed crossings sum to the printed value, in the JSON and the CSV."""
    alg = al.algebra(kind, m)
    for seed in range(60):
        value, crossings, rows = listed_pair_crossings(
            tmp_path, *pair_sharing_a_direction(alg, seed))
        assert sum(c["sign"] for c in crossings) == value, seed
        assert sum(int(row[4]) for row in rows) == value, seed


def test_path_algebra_mismatch_exit_2(tmp_path):
    p1 = str(tmp_path / "p1.json")
    p2 = str(tmp_path / "p2.json")
    invoke("gen", "--kind", "constant", "--algebra", "sym-r", "--param", "2",
           "--seed", "1", "--out", p1)
    invoke("gen", "--kind", "constant", "--algebra", "spin", "--param", "3",
           "--seed", "1", "--out", p2)
    res = invoke("path", "--op", "pair", p1, p2)
    assert res.exit_code == 2


def test_path_arnold_drops_the_lift_of_its_reference(tmp_path):
    """A lifted reference is read as its point: the same document as the
    unlifted one."""
    loop, lifted = str(tmp_path / "loop.json"), str(tmp_path / "lifted.json")
    invoke("gen", "--kind", "loop", "--n", "33", "--seed", "3", "--out", loop)
    invoke("gen", "--kind", "lift", "--seed", "9", "--out", lifted)
    doc = json.loads(Path(lifted).read_text())
    assert "theta" in doc
    del doc["theta"]
    point = write_doc(tmp_path / "point.json", doc)
    res = invoke("path", "--op", "arnold", loop, lifted)
    assert res.exit_code == 0
    assert res.output == invoke("path", "--op", "arnold", loop, point).output


def test_path_arnold_reference_on_another_algebra_exit_2(tmp_path):
    loop = str(tmp_path / "loop.json")
    invoke("gen", "--kind", "loop", "--seed", "3", "--out", loop)
    ref = write_doc(tmp_path / "ref.json", unit_doc(al.algebra(al.SPIN, 3)))
    res = invoke("path", "--op", "arnold", loop, ref)
    assert res.exit_code == 2
    assert res.stderr == f"error: {ref}.algebra: does not match the path\n"


def loop_doc(alg, seed, n):
    """The document of a one-turn phase loop on alg, n samples, read back
    from its JSON text."""
    sigma = bd.random_shilov(alg, np.random.default_rng(seed))
    loop = dy.BoundaryPath.from_function(
        lambda t: bd.ShilovPoint(np.exp(2j * math.pi * t) * sigma.value), n=n)
    return json.loads(dumps(serialize_path(loop)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_parse_path_makes_one_boundary_pass(monkeypatch, alg):
    """A valid 33-sample document is tested for S in one boundary_refusals
    call, and each sample is the point ShilovPoint(celement(...)) of its
    fields, bit for bit, on a read-only array of its own."""
    doc = loop_doc(alg, 31, 33)
    calls = []
    refusals = bd.boundary_refusals

    def counted(alg, coords, thetas=None):
        calls.append(len(coords))
        return refusals(alg, coords, thetas)

    monkeypatch.setattr(bd, "boundary_refusals", counted)
    path = parse_path(doc)
    assert calls == [33]
    monkeypatch.undo()
    arrays = []
    for (t, point), entry in zip(path.samples, doc["samples"]):
        expected = bd.ShilovPoint(bd.celement(alg, entry["coords_re"], entry["coords_im"]))
        coords = point.value.coords
        assert t == entry["t"] and point.alg == alg
        assert coords.dtype == expected.value.coords.dtype
        assert coords.tobytes() == expected.value.coords.tobytes()
        assert not coords.flags.writeable
        assert not any(np.shares_memory(coords, other) for other in arrays)
        arrays.append(coords)


def per_sample_error(doc, where):
    """The message of the sample-by-sample parse of a path document's
    samples: each sample's t, then its coordinates and their ShilovPoint
    test, in turn; None when every sample passes."""
    alg = parse_algebra(doc["algebra"])
    for i, entry in enumerate(doc["samples"]):
        spot = f"{where}.samples[{i}]"
        try:
            sc._finite_number(sc._require(entry, "t", spot), f"{spot}.t")
            sc._point(entry, alg, spot)
        except DomainError as exc:
            return str(exc)
    return None


def drop_t(entry):
    del entry["t"]


def nan_coordinate(entry):
    entry["coords_im"][0] = math.nan


def short_coordinates(entry):
    entry["coords_re"].pop()


def true_coordinate(entry):
    entry["coords_re"][-1] = True


def big_coordinate(entry):
    entry["coords_re"][0] = 10**400


SAMPLE_FAULTS = [drop_t, nan_coordinate, short_coordinates, true_coordinate,
                 big_coordinate]


def faulty_path_doc(alg, n, off, fault, at):
    """A loop document whose sample `off` is scaled off S by 1 + 1e-5 and
    whose sample `at` has the schema fault `fault` (None: no such sample)."""
    doc = loop_doc(alg, 32, n)
    if off is not None:
        entry = doc["samples"][off]
        for field in ("coords_re", "coords_im"):
            entry[field] = [(1.0 + 1e-5) * v for v in entry[field]]
    if at is not None:
        fault(doc["samples"][at])
    return doc


@pytest.mark.parametrize("alg", [al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                                 al.algebra(al.SPIN, 3)], ids=lambda a: f"{a.kind}-{a.param}")
def test_parse_path_raises_the_first_sample_error(alg):
    """With a sample off S at i and a schema fault at j, i and j in {0, 1,
    last, none}, the batched parse raises the sample-by-sample parse's
    error: that of sample min(i, j), the schema fault where i = j, since a
    sample's fields are checked before its point is tested."""
    n, where = 7, "doc.json"
    positions = [0, 1, n - 1, None]
    for fault in SAMPLE_FAULTS:
        for off in positions:
            for at in positions:
                doc = faulty_path_doc(alg, n, off, fault, at)
                expected = per_sample_error(doc, where)
                first = min((k for k in (off, at) if k is not None), default=None)
                if first is None:
                    assert expected is None
                    assert len(parse_path(doc, where).samples) == n
                    continue
                with pytest.raises(DomainError) as err:
                    parse_path(doc, where)
                assert str(err.value) == expected, (fault.__name__, off, at)
                assert expected.startswith(f"{where}.samples[{first}]")
                boundary = "not on the Shilov boundary (residual"
                assert (boundary in expected) == (off == first and at != first)


def test_path_command_names_the_first_bad_sample(tmp_path):
    """On the command line, a sample off S before a schema fault and a
    schema fault before a sample off S each give one error line naming the
    earlier sample, exit 2."""
    alg = al.algebra(al.SYM_R, 2)
    ref = write_doc(tmp_path / "ref.json", unit_doc(alg, -1.0))
    f = tmp_path / "doc.json"
    for off, at, message in [(1, 4, "samples[1]: not on the Shilov boundary (residual "),
                             (4, 1, "samples[1].coords_im: coordinates must be finite")]:
        f.write_text(json.dumps(faulty_path_doc(alg, 7, off, nan_coordinate, at)))
        res = invoke("path", "--op", "arnold", str(f), ref)
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {f}.{message}")
        assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("op", ["arnold", "pair"])
def test_path_with_one_file_exit_2(tmp_path, op):
    loop = str(tmp_path / "loop.json")
    invoke("gen", "--kind", "loop", "--seed", "3", "--out", loop)
    res = invoke("path", "--op", op, loop)
    assert res.exit_code == 2
    assert res.stderr == f"error: op {op} expects 2 files, got 1\n"


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


def test_point_document_without_coords_im_is_real(tmp_path):
    """coords_im may be omitted: the point is read with zero imaginary
    coordinates."""
    alg = al.algebra(al.SYM_R, 2)
    doc = unit_doc(alg, -1.0, theta=math.pi)
    del doc["coords_im"]
    lifted = parse_element(doc)
    assert lifted.point.value.coords.tolist() == (-al.unit(alg).coords).tolist()
    assert lifted.theta == math.pi
    f = write_doc(tmp_path / "p.json", doc)
    res = invoke("compute", "--op", "mu", f, f)
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == alg.rank


@pytest.mark.parametrize("mode,gen", [("tube", bd.LinearGen), ("mixed", bd.UnitaryGen),
                                      ("unitary", bd.UnitaryGen)])
def test_top_level_derivation_generator_follows_the_mode(mode, gen):
    """A top-level derivation generator is a one-factor LinearGen in a tube
    word and a one-factor UnitaryGen otherwise."""
    alg = al.algebra(al.SYM_R, 2)
    rng = np.random.default_rng(3)
    a, b = al.random_element(alg, rng, 0.4), al.random_element(alg, rng, 0.4)
    word = parse_word({"algebra": {"kind": "sym-r", "param": 2}, "mode": mode,
                       "generators": [{"type": "derivation",
                                       "a": a.coords.tolist(), "b": b.coords.tolist()}]})
    want = bd.GroupWord(alg, [gen([("derivation", a, b)])])
    assert type(word.generators[0]) is gen
    assert np.array_equal(word.linear_fractional()[0], want.linear_fractional()[0])


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
    doc = {"algebra": {"kind": "sym-r", "param": 2}, "mode": "mixed",
           "generators": [{"type": "twist"}]}
    wf = write_doc(tmp_path / "w.json", doc)
    res = invoke("rotation", wf, "--k", "4")
    assert res.exit_code == 2
    assert "generators[0]" in res.output
    assert "generators[0].type: unknown generator type 'twist'" in res.output


def schema_doc(kind):
    """A valid sym-r 2 document of kind point, word or path."""
    alg = al.algebra(al.SYM_R, 2)
    if kind == "point":
        return unit_doc(alg, theta=0.0)
    if kind == "word":
        return phase_word_doc(alg, 0.3)
    return serialize_path(dy.constant_path(bd.unit_shilov(alg)))


SCHEMA_COMMANDS = {"point": ("compute", "--op", "mu", "{f}", "{f}"),
                   "word": ("rotation", "{f}", "--k", "4"),
                   "path": ("path", "--op", "arnold", "{f}", "{ref}")}


def linear_word(exponents):
    """An edit giving a tube word of one linear generator with these exponents."""
    return lambda d: {**d, "mode": "tube",
                      "generators": [{"type": "linear", "exponents": exponents}]}


SCHEMA_REFUSALS = [
    ("non-object", "point", lambda d: "sym-r", "doc.json: expected a JSON object"),
    ("missing-field", "point", lambda d: {k: v for k, v in d.items() if k != "coords_re"},
     "doc.json.coords_re: missing required field"),
    ("algebra-kind", "point", lambda d: {**d, "algebra": {"kind": "octonion", "param": 2}},
     "doc.json.algebra.kind: 'octonion' is not one of"),
    ("float-param", "point", lambda d: {**d, "algebra": {"kind": "sym-r", "param": 2.0}},
     "doc.json.algebra.param: expected an integer, got 2.0"),
    ("bool-param", "point", lambda d: {**d, "algebra": {"kind": "sym-r", "param": True}},
     "doc.json.algebra.param: expected an integer, got True"),
    ("string-coordinate", "point", lambda d: {**d, "coords_re": ["1", 0, 1]},
     "doc.json.coords_re: expected a list of numbers"),
    ("infinite-coordinate", "point", lambda d: {**d, "coords_im": [math.inf, 0, 0]},
     "doc.json.coords_im: coordinates must be finite"),
    ("string-theta", "point", lambda d: {**d, "theta": "0"},
     "doc.json.theta: expected a number, got '0'"),
    ("linear-factor", "word", linear_word([{"type": "twist"}]),
     "doc.json.generators[0].exponents[0].type: unknown linear factor 'twist'"),
    ("empty-exponents", "word", linear_word([]),
     "doc.json.generators[0].exponents: expected a nonempty list"),
    ("word-mode", "word", lambda d: {**d, "mode": "affine"},
     "doc.json.mode: 'affine' is not one of tube/unitary/mixed"),
    ("empty-generators", "word", lambda d: {**d, "generators": []},
     "doc.json.generators: expected a nonempty list"),
    ("one-sample", "path", lambda d: {**d, "samples": d["samples"][:1]},
     "doc.json.samples: expected a list of at least 2 samples"),
    ("big-coordinate", "point", lambda d: {**d, "coords_re": [10**400, 0, 1]},
     "doc.json.coords_re: integer beyond the float range"),
    ("big-theta", "point", lambda d: {**d, "theta": -10**400},
     "doc.json.theta: integer beyond the float range"),
    ("big-t", "path", lambda d: {**d, "samples": [{**d["samples"][0], "t": 10**400},
                                                  *d["samples"][1:]]},
     "doc.json.samples[0].t: integer beyond the float range"),
    ("big-u", "word", lambda d: {**d, "mode": "tube", "generators": [
        {"type": "translate", "u": [0, 10**400, 0]}]},
     "doc.json.generators[0].u: integer beyond the float range"),
    ("big-v", "word", lambda d: {**d, "generators": [
        {"type": "exp-iL", "v": [10**400, 0, 0]}]},
     "doc.json.generators[0].v: integer beyond the float range"),
    ("big-base-arg", "word", lambda d: {**d, "base_arg": 10**400},
     "doc.json.base_arg: integer beyond the float range"),
]


@pytest.mark.parametrize("kind,edit,message", [case[1:] for case in SCHEMA_REFUSALS],
                         ids=[case[0] for case in SCHEMA_REFUSALS])
def test_schema_refusal_exit_2_names_field(tmp_path, kind, edit, message):
    """Each schema refusal that the other tests leave out exits 2 with one
    error line naming its field; the document it edits is accepted."""
    f = tmp_path / "doc.json"
    ref = write_doc(tmp_path / "ref.json", unit_doc(al.algebra(al.SYM_R, 2), -1.0))
    args = [a.format(f=f, ref=ref) for a in SCHEMA_COMMANDS[kind]]
    write_doc(f, schema_doc(kind))
    assert invoke(*args).exit_code == 0
    f.write_text(json.dumps(edit(schema_doc(kind))))
    res = invoke(*args)
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {tmp_path}/{message}")
    assert res.stderr.count("\n") == 1


def long_integer_doc():
    """The point document of schema_doc with a 5000-digit integer coordinate."""
    text = json.dumps(schema_doc("point"))
    return text.replace('"coords_re": [1.0', '"coords_re": [' + "9" * 5000).encode()


@pytest.mark.parametrize("content", [long_integer_doc(), b"\xff\xfe{}"],
                         ids=["5000-digit-integer", "not-utf-8"])
def test_unreadable_document_exit_2(tmp_path, content):
    """A file that json cannot turn into numbers, an integer past Python's
    digit limit or bytes that are not UTF-8, exits 2 with one error line
    naming it (an integer past the float range where Python has no limit)."""
    f = tmp_path / "doc.json"
    f.write_bytes(content)
    res = invoke("compute", "--op", "mu", str(f), str(f))
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {f}")
    assert res.stderr.count("\n") == 1


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


def unreferenced_definitions(modules, readers=()):
    """The definitions in the files `modules` that no name or attribute in
    them or in the files `readers` reads: the module-level functions, classes
    and assigned non-dunder names outside maslov_kit.__all__ and the
    non-dunder methods of those classes, plus the methods of Tolerances.
    Click commands are left out; click calls them."""
    trees = [ast.parse(path.read_text()) for path in modules]
    used = set()
    for tree in trees + [ast.parse(path.read_text()) for path in readers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [name.id for target in targets for name in ast.walk(target)
                          if isinstance(name, ast.Name) and not name.id.startswith("__")
                          and name.id not in maslov_kit.__all__ and name.id not in used]
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


TESTS = Path(__file__).resolve().parent


def test_src_holds_no_definition_only_tests_reach():
    """Helpers that only tests call live in tests/_oracles.py, not in src/."""
    src = Path(maslov_kit.__file__).parent
    assert unreferenced_definitions(sorted(src.glob("*.py"))) == []


def test_test_helpers_are_all_called(tmp_path):
    """Each helper of tests/_oracles.py and tests/_cases.py is read by some
    test module or helper."""
    helpers = [TESTS / "_oracles.py", TESTS / "_cases.py"]
    assert unreferenced_definitions(helpers, sorted(TESTS.glob("*.py"))) == []
    (tmp_path / "_helpers.py").write_text(
        "LIMIT = 3\nSTALE = 4\n\n\ndef used(x):\n    return min(x, LIMIT)\n\n\n"
        "def stale(x):\n    return x\n\n\nclass Oracle:\n"
        "    def run(self):\n        return used(1)\n\n"
        "    def unused(self):\n        return 0\n")
    (tmp_path / "test_x.py").write_text(
        "import _helpers as h\n\n\ndef test_x():\n    assert h.Oracle().run() == 1\n")
    helpers = [tmp_path / "_helpers.py"]
    assert unreferenced_definitions(helpers, [tmp_path / "test_x.py"]) == [
        "STALE", "stale", "Oracle.unused"]
    assert unreferenced_definitions(helpers) == [
        "STALE", "stale", "Oracle", "Oracle.run", "Oracle.unused"]


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


def unread_parameters(src):
    """The parameters of the functions in the modules of `src` that their
    bodies never read, as "module.function(parameter)".  Left out: self,
    dunder methods (Python fixes their signatures) and the (rng, s) of an
    acceptance suite (the suite protocol)."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            args = node.args
            params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs
                      + [p for p in (args.vararg, args.kwarg) if p]]
            if node.name.startswith("suite_") and params == ["rng", "s"]:
                continue
            read = {name.id for stmt in node.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            found += [f"{path.stem}.{node.name}({p})" for p in params
                      if p not in read and p != "self"]
    return found


def test_src_reads_every_parameter(tmp_path):
    assert unread_parameters(Path(maslov_kit.__file__).parent) == []
    (tmp_path / "stale.py").write_text(
        "def spectral_decompose_real(x, tol):\n    return x\n")
    assert unread_parameters(tmp_path) == ["stale.spectral_decompose_real(tol)"]


GEOMETRY_MODULES = ("algebra", "boundary", "schemas")
TOLERANCE_NAMES = {"DEFAULT", "Tolerances"}


def default_reads(src):
    """The attribute reads of DEFAULT in the modules of `src`, as
    "module:line DEFAULT.field": a check reads the tolerances it is given,
    never the defaults behind the caller's back.  Also the imports and
    attribute reads of DEFAULT or Tolerances in the geometry modules
    (GEOMETRY_MODULES), as "module:line import name" and "module:line
    .name": membership of S and its parsing take no tolerance at all."""
    found = []
    for path in sorted(src.glob("*.py")):
        geometry = path.stem in GEOMETRY_MODULES
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "DEFAULT"):
                found.append(f"{path.stem}:{node.lineno} DEFAULT.{node.attr}")
            if geometry and isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.stem}:{node.lineno} import {alias.name}"
                          for alias in node.names if alias.name in TOLERANCE_NAMES]
            elif (geometry and isinstance(node, ast.Attribute)
                    and node.attr in TOLERANCE_NAMES):
                found.append(f"{path.stem}:{node.lineno} .{node.attr}")
    return found


def test_src_reads_no_default_tolerance(tmp_path):
    assert default_reads(Path(maslov_kit.__file__).parent) == []
    (tmp_path / "hidden.py").write_text(
        "def check(res, tol):\n    return res <= 10 * DEFAULT.boundary\n")
    (tmp_path / "indices.py").write_text("from .config import DEFAULT, Tolerances\n")
    (tmp_path / "schemas.py").write_text(
        "from . import config\nfrom .config import BOUNDARY, DEFAULT\n\n"
        "def parse(obj, tol=config.Tolerances()):\n    return obj, tol\n")
    assert default_reads(tmp_path) == ["hidden:2 DEFAULT.boundary",
                                       "schemas:2 import DEFAULT",
                                       "schemas:4 .Tolerances"]


LAPACK_NAMES = {"solve", "inv", "det", "eigvals", "eigvalsh"}


def bypassed_lapack(src):
    """The calls of np.linalg's solve, inv, det, eigvals and eigvalsh, and
    the imports of those names from numpy.linalg, in the modules of `src`
    other than _lapack.py, as "module:line linalg.name": the small-matrix
    kernels take one route, through maslov_kit._lapack."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_lapack.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in LAPACK_NAMES
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "linalg"):
                found.append(f"{path.stem}:{node.lineno} linalg.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += [f"{path.stem}:{node.lineno} linalg.{alias.name}"
                          for alias in node.names if alias.name in LAPACK_NAMES]
    return sorted(found)


def test_src_calls_lapack_only_through_its_module(tmp_path):
    assert bypassed_lapack(Path(maslov_kit.__file__).parent) == []
    (tmp_path / "direct.py").write_text(
        "import numpy as np\nfrom numpy.linalg import eigvals, norm\n\n"
        "def image(a, b):\n    return np.linalg.solve(a, b) @ np.linalg.norm(b)\n")
    (tmp_path / "_lapack.py").write_text(
        "import numpy as np\n\ndef det(a):\n    return np.linalg.det(a)\n")
    assert bypassed_lapack(tmp_path) == ["direct:2 linalg.eigvals",
                                         "direct:5 linalg.solve"]


UNCHECKED_KERNELS = {"_lf_image", "_factor_rows", "_phi_rows", "_passed_lift",
                     "_passed_point", "_coords_on"}
LAPACK_STATE = {"singular", "solve_in_state"}


def unchecked_kernel_reads(src):
    """The reads of boundary's unchecked kernels (UNCHECKED_KERNELS: the
    image that leaves its error state to the caller, the constructor bypasses
    and the factor, determination and coordinate kernels) and of _lapack's
    singular and solve_in_state, in the modules of `src` other than
    boundary.py and _lapack.py, as "module:line name": every lift of the
    covering-group action is built and certified where its kernels live."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("boundary.py", "_lapack.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                    node.attr in UNCHECKED_KERNELS
                    or (node.attr in LAPACK_STATE and isinstance(node.value, ast.Name)
                        and node.value.id == "_lapack")):
                found.append(f"{path.stem}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Name) and node.id in UNCHECKED_KERNELS:
                found.append(f"{path.stem}:{node.lineno} {node.id}")
            elif isinstance(node, ast.ImportFrom):
                names = UNCHECKED_KERNELS | (
                    LAPACK_STATE if (node.module or "").endswith("_lapack") else set())
                found += [f"{path.stem}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name in names]
    return sorted(found)


def test_src_keeps_unchecked_kernels_in_boundary(tmp_path):
    assert unchecked_kernel_reads(Path(maslov_kit.__file__).parent) == []
    (tmp_path / "walk.py").write_text(
        "from . import _lapack\nfrom . import boundary as bd\n"
        "from ._lapack import solve_in_state\nfrom .boundary import _phi_rows\n\n"
        "def walk(word, z, singular):\n"
        "    with _lapack.singular(), singular():\n"
        "        z = bd._lf_image(word.coordinate_form(), z)\n"
        "    return bd._passed_lift(z, _phi_rows(word, z)), bd.act_lift\n\n\n"
        "def points(alg, rows):\n"
        "    return bd.shilov_rows(alg, rows), bd._passed_point(alg, rows[0])\n")
    (tmp_path / "boundary.py").write_text(
        "def _coords_on(word, z):\n    return z\n\n"
        "def image(word, z):\n    return _coords_on(word, z)\n")
    (tmp_path / "_lapack.py").write_text(
        "def solve(a, b):\n    with singular():\n        return solve_in_state(a, b)\n")
    assert unchecked_kernel_reads(tmp_path) == [
        "walk:13 _passed_point", "walk:3 solve_in_state", "walk:4 _phi_rows",
        "walk:7 singular", "walk:8 _lf_image", "walk:9 _passed_lift",
        "walk:9 _phi_rows"]


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
