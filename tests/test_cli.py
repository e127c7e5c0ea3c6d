"""CLI contract: document schemas, exit codes, worked examples."""

import ast
import copy
import csv
import io
import json
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from _cases import ALGEBRAS, IDS, minus_i_eps
import _oracles as orc
import maslov_kit
from maslov_kit import algebra as al
from maslov_kit import boundary as bd
from maslov_kit import cli
from maslov_kit import dynamics as dy
from maslov_kit import indices as ix
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
    serialize_algebra,
    serialize_element,
    serialize_path,
    serialize_word,
)

runner = CliRunner()


def invoke(*args, **kwargs):
    """Run the CLI in-process.  pytest records warnings, so none reaches the
    runner's stderr; the call records them itself and fails on any."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, list(args), catch_exceptions=False, **kwargs)
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
    return res


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
    with pytest.raises(DomainError) as err:
        dy.BoundaryPath([(0.0, point), (math.nan, point), (1.0, point)])
    assert str(err.value) == "sample times must be strictly increasing, got nan after 0.0"
    assert err.value.row == 1


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
    samples (the _oracles rules): each sample's t, then its coordinates and
    their ShilovPoint test, in turn, then the times in order; None when
    every sample passes."""
    alg = parse_algebra(doc["algebra"])
    times = []
    for i, entry in enumerate(doc["samples"]):
        spot = f"{where}.samples[{i}]"
        try:
            times.append(orc.finite_number(orc.require(entry, "t", spot), f"{spot}.t"))
            orc.point(entry, alg, spot)
        except DomainError as exc:
            return str(exc)
    return orc.path_time_error(times, where)


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


def text_t(entry):
    entry["t"] = "x"


def nan_t(entry):
    entry["t"] = math.nan


def true_t(entry):
    entry["t"] = True


def big_t(entry):
    entry["t"] = 10**400


def drop_coords_re(entry):
    del entry["coords_re"]


def scalar_coords_re(entry):
    entry["coords_re"] = 1.5


def text_coordinate(entry):
    entry["coords_re"][1] = "1.0"


def nested_coordinate(entry):
    entry["coords_im"][0] = [1.0]


def not_an_object(entry):
    return [entry["t"], entry["coords_re"], entry["coords_im"]]


def text_t_and_coords_re(entry):
    entry["t"] = "x"
    entry["coords_re"] = "x"


def inf_coordinate_and_short_im(entry):
    entry["coords_re"][2] = -math.inf
    entry["coords_im"].pop()


SAMPLE_FAULTS = [drop_t, nan_coordinate, short_coordinates, true_coordinate,
                 big_coordinate, text_t, nan_t, true_t, big_t, drop_coords_re,
                 scalar_coords_re, text_coordinate, nested_coordinate,
                 not_an_object, text_t_and_coords_re, inf_coordinate_and_short_im]


def faulty_path_doc(alg, n, off, fault, at):
    """A loop document whose sample `off` is scaled off S by 1 + 1e-5 and
    whose sample `at` has the schema fault `fault` (None: no such sample).
    A fault changes the sample in place or returns what replaces it."""
    doc = loop_doc(alg, 32, n)
    samples = doc["samples"]
    if off is not None:
        entry = samples[off]
        for field in ("coords_re", "coords_im"):
            entry[field] = [(1.0 + 1e-5) * v for v in entry[field]]
    if at is not None:
        samples[at] = fault(samples[at]) or samples[at]
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


def test_parse_path_converts_each_field_once(monkeypatch):
    """A valid document's fields are converted by one _floats call each (t,
    coords_re, coords_im), whatever its number of samples."""
    calls = []
    floats = sc._floats

    def counted(*args):
        calls.append(args)
        return floats(*args)

    monkeypatch.setattr(sc, "_floats", counted)
    for alg in ALGEBRAS:
        counts = []
        for n in (9, 33):
            calls.clear()
            assert len(parse_path(loop_doc(alg, 33, n)).samples) == n
            counts.append(len(calls))
        assert counts == [3, 3], alg


def test_parse_path_takes_numpy_floats():
    """A library caller may hand numpy floats for t and the coordinates: the
    path is the one the same document of Python floats gives, bit for bit."""
    alg = al.algebra(al.HERM_C, 2)
    doc = loop_doc(alg, 34, 9)
    numpy_doc = {"algebra": doc["algebra"], "samples": [
        {"t": np.float64(entry["t"]),
         "coords_re": list(np.array(entry["coords_re"])),
         "coords_im": list(np.array(entry["coords_im"]))}
        for entry in doc["samples"]]}
    assert type(numpy_doc["samples"][1]["coords_re"][0]) is np.float64
    for (t, point), (u, other) in zip(parse_path(numpy_doc).samples,
                                      parse_path(doc).samples):
        assert t == u
        assert point.value.coords.tobytes() == other.value.coords.tobytes()


@pytest.mark.parametrize("op, bad_first", [("arnold", True), ("pair", True),
                                           ("pair", False)])
def test_path_names_the_sample_out_of_time_order(tmp_path, op, bad_first):
    """A first t that is not 0, a repeated or decreasing t or a last t short
    of 1 is refused with exit 2, naming the file and the sample, in
    whichever of the two files of --op pair it sits; a last t that is both
    out of order and short of 1 is out of order.  The message after the
    sample's name is BoundaryPath's, whose refusal names the sample in
    `row`."""
    alg = al.algebra(al.SYM_R, 2)
    good = str(tmp_path / "good.json")
    invoke("gen", "--kind", "loop", "--seed", "4", "--n", "9", "--out", good)
    other = good if op == "pair" else write_doc(tmp_path / "ref.json", unit_doc(alg, -1.0))
    bad = tmp_path / "bad.json"
    for k, t, message in [
            (0, 0.001, "samples[0].t: the path must start at t = 0, got 0.001"),
            (3, 0.25, "samples[3].t: sample times must be strictly increasing, "
                      "got 0.25 after 0.25"),
            (3, 0.125, "samples[3].t: sample times must be strictly increasing, "
                       "got 0.125 after 0.25"),
            (8, 0.5, "samples[8].t: sample times must be strictly increasing, "
                     "got 0.5 after 0.875"),
            (8, 0.9999, "samples[8].t: the path must end at t = 1, got 0.9999")]:
        doc = json.loads(Path(good).read_text())
        doc["samples"][k]["t"] = t
        write_doc(bad, doc)
        files = (str(bad), other) if bad_first else (other, str(bad))
        res = invoke("path", "--op", op, *files)
        assert res.exit_code == 2
        assert res.stderr == f"error: {bad}.{message}\n"
        assert orc.path_time_error([e["t"] for e in doc["samples"]], str(bad)) \
            == f"{bad}.{message}"
        samples = [(e["t"], bd.ShilovPoint(bd.celement(alg, e["coords_re"], e["coords_im"])))
                   for e in doc["samples"]]
        with pytest.raises(DomainError) as err:
            dy.BoundaryPath(samples)
        assert f"samples[{k}].t: {err.value}" == message
        assert err.value.row == k


def test_path_takes_no_integer_bound(tmp_path):
    """path counts crossings and rounds nothing, so it offers no --tol-int:
    the flag exits 2 naming it, while the flags path reads still run."""
    alg = al.algebra(al.SYM_R, 2)
    loop = write_doc(tmp_path / "loop.json", loop_doc(alg, 37, 33))
    ref = write_doc(tmp_path / "ref.json", unit_doc(alg, -1.0))
    res = invoke("path", "--op", "arnold", "--tol-int", "1e-6", loop, ref)
    assert res.exit_code == 2
    assert "No such option '--tol-int'" in res.stderr
    res = invoke("path", "--op", "arnold", "--mode", "permissive",
                 "--tol-transverse", "1e-8", loop, ref)
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["mode"] == "permissive"


GRID_ALGEBRAS = [al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2), al.algebra(al.SPIN, 3)]
GRID_VALUES = [math.nan, math.inf, -math.inf, 1e308, 1e-320, -0.0, 10**400, "x",
               None, [], {}, True, [1.0], 1.5]


def grid_docs(doc):
    """The grid's changes of a path document: in samples 0, 1 and the last,
    each field and each of the first 3 entries of a coordinate list replaced
    by each GRID_VALUES value, and each field deleted."""
    n = len(doc["samples"])
    for k in (0, 1, n - 1):
        for field in ("t", "coords_re", "coords_im"):
            for j in [None] + ([] if field == "t" else [0, 1, 2]):
                for value in GRID_VALUES + (["delete"] if j is None else []):
                    samples = list(doc["samples"])
                    entry = samples[k] = dict(samples[k])
                    if value == "delete":
                        del entry[field]
                    elif j is None:
                        entry[field] = value
                    else:
                        entry[field] = list(entry[field])
                        entry[field][j] = value
                    yield {"algebra": doc["algebra"], "samples": samples}


def library_outcome(run):
    """(exit code, stdout, stderr) that a command should give, from the
    library call run() returning its output document."""
    try:
        doc = run()
    except (DomainError, maslov_kit.AmbiguityError) as exc:
        code = 3 if isinstance(exc, maslov_kit.AmbiguityError) else 2
        return code, "", f"error: {exc}\n"
    return 0, dumps(doc), ""


def library_path_outcome(op, first, second):
    """(exit code, stdout, stderr) that `path --op op` should give on two
    valid documents, from the library: BoundaryPath and the flow of their
    points, with no schema parse."""
    def as_path(doc):
        alg = parse_algebra(doc["algebra"])
        return dy.BoundaryPath([(e["t"], bd.ShilovPoint(bd.celement(
            alg, e["coords_re"], e.get("coords_im")))) for e in doc["samples"]])

    path = as_path(first)

    def run():
        if op == "arnold":
            ref = parse_element(second)
            value, records = dy.arnold_count(dy.eigenangle_flow(path, ref), DEFAULT)
        else:
            flow = dy.eigenangle_flow(as_path(second), path)
            value, records = dy.pair_path_count(flow, DEFAULT)
        return {
            "op": op, "algebra": first["algebra"], "mode": DEFAULT.mode,
            "value": int(value),
            "crossings": [{"t": float(r.t), "strand": int(r.strand), "sign": int(r.sign)}
                          for r in records]}

    return library_outcome(run)


@pytest.mark.parametrize("alg", GRID_ALGEBRAS, ids=lambda a: f"{a.kind}-{a.param}")
def test_path_command_grid_of_sample_faults(tmp_path, alg):
    """Every change of the grid (grid_docs) on a 9-sample loop, in turn
    through --op arnold, --op pair as the first file and --op pair as the
    second: a document the sample-by-sample rules refuse exits 2 with one
    error line, their message, and any other gives the library's output.
    No change makes a warning (a 1e308 coordinate overflows the boundary
    test's arithmetic)."""
    doc = loop_doc(alg, 32, 9)
    ref = unit_doc(alg, -1.0)
    partner = loop_doc(alg, 35, 9)
    other = {"arnold": write_doc(tmp_path / "ref.json", ref),
             "pair": write_doc(tmp_path / "partner.json", partner)}
    bad = tmp_path / "doc.json"
    exits = set()
    for i, changed in enumerate(grid_docs(doc)):
        op, bad_first = [("arnold", True), ("pair", True), ("pair", False)][i % 3]
        bad.write_text(json.dumps(changed))
        files = (str(bad), other[op]) if bad_first else (other[op], str(bad))
        res = invoke("path", "--op", op, *files)
        message = per_sample_error(changed, str(bad))
        if message is not None:
            assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {message}\n")
        else:
            docs = (changed, ref if op == "arnold" else partner)
            expected = library_path_outcome(op, *(docs if bad_first else docs[::-1]))
            assert (res.exit_code, res.stdout, res.stderr) == expected
        exits.add(res.exit_code)
    assert i + 1 == 3 * (15 + 2 * (15 + 3 * 14))
    assert exits == {0, 2}


@pytest.mark.parametrize("op", ["arnold", "pair"])
def test_path_with_one_file_exit_2(tmp_path, op):
    loop = str(tmp_path / "loop.json")
    invoke("gen", "--kind", "loop", "--seed", "3", "--out", loop)
    res = invoke("path", "--op", op, loop)
    assert res.exit_code == 2
    assert res.stderr == f"error: op {op} expects 2 files, got 1\n"


def grid_changes(doc, spots):
    """The grid's changes of a JSON document at each spot, a key path into
    it: the value there replaced by each GRID_VALUES value, or deleted if
    present, and each of its first 3 entries, if it is a list, replaced by
    each value."""
    for *parents, key in spots:
        def holder(root):
            for part in parents:
                root = root[part]
            return root

        current = holder(doc).get(key)
        entries = range(min(3, len(current))) if isinstance(current, list) else ()
        for j in [None, *entries]:
            for value in GRID_VALUES + (["delete"] if j is None and key in holder(doc) else []):
                changed = copy.deepcopy(doc)
                target = holder(changed)
                if value == "delete":
                    del target[key]
                elif j is None:
                    target[key] = value
                else:
                    target[key][j] = value
                yield changed


def point_doc_error(doc, where):
    """The message of the field-by-field parse of a point or lift document:
    its algebra, then the _oracles rules (point, and finite_number for
    theta), then LiftedPoint for a theta that is a finite number; None when
    the document passes."""
    try:
        alg = parse_algebra(orc.require(doc, "algebra", where), f"{where}.algebra")
        point = orc.point(doc, alg, where)
        if "theta" in doc:
            theta = orc.finite_number(doc["theta"], f"{where}.theta")
            try:
                bd.LiftedPoint(point, theta)
            except DomainError as exc:
                return f"{where}.theta: {exc}"
    except DomainError as exc:
        return str(exc)
    return None


def compute_doc(op, points):
    """The output document of `compute --op mu|souriau` on parsed points,
    from the library."""
    if op == "mu":
        value = ix.mu(*points, DEFAULT)
        raw, residual, witnesses = float(value), 0.0, ()
    else:
        rep = ix.souriau_m(*points, DEFAULT)
        value, raw, residual, witnesses = rep.value, rep.raw, rep.residual, rep.witnesses
    doc = {"op": op, "algebra": serialize_algebra(points[0].alg), "mode": DEFAULT.mode,
           "value": int(value), "raw": float(raw), "residual": float(residual),
           "tolerances": {"transverse": DEFAULT.transverse, "integer": DEFAULT.integer}}
    if witnesses:
        doc["witnesses"] = [serialize_element(w) for w in witnesses]
    return doc


def rotation_doc(word, base):
    """The output document of `rotation --k 4` on a parsed word and base
    lift (None: the default one), from the library."""
    tau, tau_bound = dy.translation_tau(word, 4, base, DEFAULT)
    rho, bound = dy.rho_from_tau(tau, tau_bound)
    return {"algebra": serialize_algebra(word.alg), "k": 4, "tau_estimate": float(tau),
            "rho_mod1": float(rho), "error_bound": float(bound)}


def grid_word_doc(alg):
    """A mixed word document holding each generator type; the derivation
    factor, which a linear generator may also hold, stands alone."""
    rng = np.random.default_rng(21)

    def small():
        return al.random_element(alg, rng, 0.3)

    word = bd.GroupWord(alg, [
        bd.TranslateGen(small()),
        bd.LinearGen([("lmul", small())]),
        bd.InversionGen(),
        bd.UnitaryGen([("exp-iL", small())]),
        bd.UnitaryGen([("derivation", small(), small())]),
    ])
    return json.loads(dumps(serialize_word(word)))


def word_spots(doc):
    """The grid's spots of a word document: mode, base_arg, every field of
    each generator and of each linear factor."""
    yield ("mode",)
    yield ("base_arg",)
    for i, gen in enumerate(doc["generators"]):
        yield from (("generators", i, key) for key in gen)
        for k, factor in enumerate(gen.get("exponents", ())):
            yield from (("generators", i, "exponents", k, key) for key in factor)


@pytest.mark.parametrize("alg", GRID_ALGEBRAS, ids=lambda a: f"{a.kind}-{a.param}")
def test_point_command_grid_of_field_faults(tmp_path, alg):
    """Every change of the grid (grid_changes) to the coordinates, theta and
    algebra of the unit element's lift document, in turn through compute
    --op mu as the first file, compute --op souriau as the second and
    rotation --k 4 as --base: a document the field-by-field rules refuse exits 2 with one
    error line, their message, and any other gives the library's output on
    the parsed documents.  No change makes a warning."""
    doc = unit_doc(alg, theta=0.0)
    partner = serialize_element(bd.lift(bd.random_shilov(alg, np.random.default_rng(42)), 1))
    word = phase_word_doc(alg, 0.3)
    other = write_doc(tmp_path / "partner.json", partner)
    word_file = write_doc(tmp_path / "word.json", word)
    bad = tmp_path / "doc.json"
    spots = [("coords_re",), ("coords_im",), ("theta",), ("algebra",),
             ("algebra", "kind"), ("algebra", "param")]
    exits = set()
    for i, changed in enumerate(grid_changes(doc, spots)):
        shape = ("mu", "souriau", "rotation")[i % 3]
        bad.write_text(json.dumps(changed))
        if shape == "mu":
            res = invoke("compute", "--op", "mu", str(bad), other)
        elif shape == "souriau":
            res = invoke("compute", "--op", "souriau", other, str(bad))
        else:
            res = invoke("rotation", "--k", "4", "--base", str(bad), word_file)
        message = point_doc_error(changed, str(bad))
        if message is not None:
            expected = (2, "", f"error: {message}\n")
        elif shape != "mu" and "theta" not in changed:
            need = "op souriau needs lifted points" if shape == "souriau" else \
                "base must be a lifted point"
            expected = (2, "", f"error: {bad}.theta: {need}\n")
        else:
            point = parse_element(changed)
            if shape == "mu":
                expected = library_outcome(lambda: compute_doc(
                    "mu", [point.point if "theta" in changed else point,
                           parse_element(partner).point]))
            elif shape == "souriau":
                expected = library_outcome(lambda: compute_doc(
                    "souriau", [parse_element(partner), point]))
            else:
                expected = library_outcome(lambda: rotation_doc(parse_word(word), point))
        assert (res.exit_code, res.stdout, res.stderr) == expected, (i, shape)
        exits.add(res.exit_code)
    assert i + 1 == 2 * (15 + 3 * 14) + 4 * 15
    assert exits == {0, 2}


@pytest.mark.parametrize("alg", GRID_ALGEBRAS, ids=lambda a: f"{a.kind}-{a.param}")
def test_word_command_grid_of_field_faults(tmp_path, alg):
    """Every change of the grid (grid_changes) to a mixed word document's
    mode, base_arg and each generator's and linear factor's fields, through
    rotation --k 4: a document parse_word refuses exits 2 with one error
    line, its message, and any other gives the library's output on the
    parsed word.  No change makes a warning."""
    doc = grid_word_doc(alg)
    bad = tmp_path / "word.json"
    exits = set()
    for i, changed in enumerate(grid_changes(doc, word_spots(doc))):
        bad.write_text(json.dumps(changed))
        res = invoke("rotation", "--k", "4", str(bad))
        try:
            word = parse_word(changed, str(bad))
        except DomainError as exc:
            expected = (2, "", f"error: {exc}\n")
        else:
            expected = library_outcome(lambda: rotation_doc(word, None))
        assert (res.exit_code, res.stdout, res.stderr) == expected, i
        exits.add(res.exit_code)
    # mode and base_arg; 6 types; u, 2 v, a and b; exponents, a 1-entry list
    assert i + 1 == 15 + 14 + 6 * 15 + 5 * (15 + 3 * 14) + (15 + 14)
    assert exits == {0, 2}


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
     "doc.json.theta: expected a finite number, got '0'"),
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
