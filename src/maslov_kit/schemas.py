"""JSON schemas for boundary points, group words, and sampled paths.

Layout of a point document:

    {"algebra": {"kind": "sym-r", "param": 2},
     "coords_re": [...], "coords_im": [...], "theta": 0.1}

`coords_im` may be omitted (zeros), `theta` turns the point into a lift.
Words carry a generator list applied first to last; linear generators hold
their exponent factors so a parse/serialize round trip is the identity on
documents produced here.  All schema violations raise DomainError naming
the offending field.
"""

import math

import numpy as np

from .algebra import KINDS, algebra, element
from .boundary import (
    GroupWord,
    InversionGen,
    LiftedPoint,
    LinearGen,
    ShilovPoint,
    TranslateGen,
    UnitaryGen,
    celement,
    shilov_rows,
)
from .dynamics import BoundaryPath
from .errors import DomainError

_TUBE_TYPES = ("translate", "inversion", "linear", "derivation")
_UNITARY_TYPES = ("exp-iL", "derivation")


def _require(obj, field, where):
    if not isinstance(obj, dict):
        raise DomainError(f"{where}: expected a JSON object")
    if field not in obj:
        raise DomainError(f"{where}.{field}: missing required field")
    return obj[field]


def parse_algebra(obj, where="algebra"):
    kind = _require(obj, "kind", where)
    if kind not in KINDS:
        raise DomainError(f"{where}.kind: {kind!r} is not one of {sorted(KINDS)}")
    param = _require(obj, "param", where)
    if not isinstance(param, int) or isinstance(param, bool):
        raise DomainError(f"{where}.param: expected an integer, got {param!r}")
    try:
        return algebra(kind, param)
    except (DomainError, ValueError) as exc:
        raise DomainError(f"{where}.param: {exc}") from exc


def serialize_algebra(alg):
    return {"kind": alg.kind, "param": alg.param}


def _floats(raw, where):
    """float64 of a JSON number or list, refusing integers past the float range."""
    try:
        return np.asarray(raw, dtype=np.float64)
    except OverflowError:
        raise DomainError(f"{where}: integer beyond the float range") from None


def _finite_number(value, where):
    """The float of a number field that must be finite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(_floats(value, where))
        if math.isfinite(number):
            return number
    raise DomainError(f"{where}: expected a finite number, got {value!r}")


def _coords(obj, field, alg, where, required=True):
    if field not in obj:
        if required:
            raise DomainError(f"{where}.{field}: missing required field")
        return np.zeros(alg.dim)
    raw = obj[field]
    if not isinstance(raw, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
    ):
        raise DomainError(f"{where}.{field}: expected a list of numbers")
    if len(raw) != alg.dim:
        raise DomainError(
            f"{where}.{field}: expected {alg.dim} coordinates for "
            f"{alg.kind}-{alg.param}, got {len(raw)}"
        )
    vals = _floats(raw, f"{where}.{field}")
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"{where}.{field}: coordinates must be finite")
    return vals


def _point(obj, alg, where):
    """The ShilovPoint of the coords_re / coords_im fields of obj."""
    re = _coords(obj, "coords_re", alg, where)
    im = _coords(obj, "coords_im", alg, where, required=False)
    try:
        return ShilovPoint(celement(alg, re, im))
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from exc


def parse_element(obj, where="point"):
    """Parse a point document into a ShilovPoint, or a LiftedPoint if a
    `theta` field is present."""
    alg = parse_algebra(_require(obj, "algebra", where), where + ".algebra")
    point = _point(obj, alg, where)
    if "theta" not in obj:
        return point
    theta = obj["theta"]
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise DomainError(f"{where}.theta: expected a number, got {theta!r}")
    theta = float(_floats(theta, f"{where}.theta"))
    try:
        return LiftedPoint(point, theta)
    except DomainError as exc:
        raise DomainError(f"{where}.theta: {exc}") from exc


def serialize_element(obj):
    if isinstance(obj, LiftedPoint):
        doc = serialize_element(obj.point)
        doc["theta"] = float(obj.theta)
        return doc
    value = obj.value
    return {
        "algebra": serialize_algebra(value.alg),
        "coords_re": [float(v) for v in value.coords.real],
        "coords_im": [float(v) for v in value.coords.imag],
    }


def _parse_factor(obj, alg, where):
    kind = _require(obj, "type", where)
    if kind == "lmul":
        return ("lmul", element(alg, _coords(obj, "v", alg, where)))
    if kind == "derivation":
        return (
            "derivation",
            element(alg, _coords(obj, "a", alg, where)),
            element(alg, _coords(obj, "b", alg, where)),
        )
    raise DomainError(f"{where}.type: unknown linear factor {kind!r}")


def _parse_generator(obj, alg, mode, where):
    kind = _require(obj, "type", where)
    allowed = _TUBE_TYPES if mode == "tube" else _UNITARY_TYPES
    if mode != "mixed" and kind not in allowed:
        raise DomainError(
            f"{where}.type: {kind!r} generator not allowed in {mode!r} mode"
        )
    if kind == "translate":
        return TranslateGen(element(alg, _coords(obj, "u", alg, where)))
    if kind == "inversion":
        return InversionGen()
    if kind == "linear":
        factors = _require(obj, "exponents", where)
        if not isinstance(factors, list) or not factors:
            raise DomainError(f"{where}.exponents: expected a nonempty list")
        return LinearGen(
            _parse_factor(f, alg, f"{where}.exponents[{i}]")
            for i, f in enumerate(factors)
        )
    if kind == "exp-iL":
        return UnitaryGen([("exp-iL", element(alg, _coords(obj, "v", alg, where)))])
    if kind == "derivation":
        factor = _parse_factor(obj, alg, where)
        if mode == "tube":
            return LinearGen([factor])
        return UnitaryGen([factor])
    raise DomainError(f"{where}.type: unknown generator type {kind!r}")


def parse_word(obj, where="word"):
    """Parse a word document: mode in {tube, unitary, mixed}, generators
    applied first to last, optional base_arg fixing the determination."""
    alg = parse_algebra(_require(obj, "algebra", where), where + ".algebra")
    mode = obj.get("mode", "tube")
    if mode not in ("tube", "unitary", "mixed"):
        raise DomainError(f"{where}.mode: {mode!r} is not one of tube/unitary/mixed")
    raw_gens = _require(obj, "generators", where)
    if not isinstance(raw_gens, list) or not raw_gens:
        raise DomainError(f"{where}.generators: expected a nonempty list")
    gens = [
        _parse_generator(g, alg, mode, f"{where}.generators[{i}]")
        for i, g in enumerate(raw_gens)
    ]
    base_arg = obj.get("base_arg")
    if base_arg is not None:
        base_arg = _finite_number(base_arg, f"{where}.base_arg")
    return GroupWord(alg, gens, base_arg=base_arg)


def _coord_list(el):
    return [float(v) for v in el.coords]


def _serialize_factor(factor):
    kind = factor[0]
    if kind == "lmul":
        return {"type": "lmul", "v": _coord_list(factor[1])}
    return {"type": "derivation", "a": _coord_list(factor[1]), "b": _coord_list(factor[2])}


def serialize_word(word):
    gens = []
    unitary = False
    for gen in word.generators:
        if isinstance(gen, TranslateGen):
            gens.append({"type": "translate", "u": _coord_list(gen.u)})
        elif isinstance(gen, InversionGen):
            gens.append({"type": "inversion"})
        elif isinstance(gen, LinearGen):
            gens.append(
                {"type": "linear", "exponents": [_serialize_factor(f) for f in gen.factors]}
            )
        elif isinstance(gen, UnitaryGen):
            unitary = True
            # single-factor unitary generators flatten to their own entries;
            # a multi-factor one applies its last factor first
            for factor in reversed(gen.factors):
                if factor[0] == "exp-iL":
                    gens.append({"type": "exp-iL", "v": _coord_list(factor[1])})
                else:
                    gens.append(_serialize_factor(factor))
        else:
            raise DomainError(f"cannot serialize generator {type(gen).__name__}")
    tube = any(g["type"] in ("translate", "inversion", "linear") for g in gens)
    mode = "mixed" if (tube and unitary) else ("unitary" if unitary else "tube")
    doc = {
        "algebra": serialize_algebra(word.alg),
        "mode": mode,
        "generators": gens,
    }
    if word.base_arg is not None:
        doc["base_arg"] = float(word.base_arg)
    return doc


def parse_path(obj, where="path"):
    """Parse a sampled path: {"algebra": ..., "samples": [{"t": ...,
    "coords_re": ..., "coords_im": ...}, ...]} with t from 0 to 1.

    The samples are checked against the schema in order (t, then coords_re,
    then coords_im) up to the first that fails, and the coordinates of the
    samples before it are tested for S in one batch (shilov_rows).  The
    error raised is the one a sample-by-sample parse meets first: the
    boundary refusal of the first refused sample if one is refused, else
    the schema fault."""
    alg = parse_algebra(_require(obj, "algebra", where), where + ".algebra")
    raw = _require(obj, "samples", where)
    if not isinstance(raw, list) or len(raw) < 2:
        raise DomainError(f"{where}.samples: expected a list of at least 2 samples")
    ts, rows, fault = [], [], None
    for i, entry in enumerate(raw):
        spot = f"{where}.samples[{i}]"
        try:
            t = _finite_number(_require(entry, "t", spot), f"{spot}.t")
            re = _coords(entry, "coords_re", alg, spot)
            im = _coords(entry, "coords_im", alg, spot, required=False)
        except DomainError as exc:
            fault = exc
            break
        ts.append(t)
        rows.append(re + 1j * im)       # the coordinates celement makes
    if rows:
        points, refusals = shilov_rows(alg, np.array(rows))
        if refusals:
            k = min(refusals)
            raise DomainError(f"{where}.samples[{k}]: {refusals[k]}")
    if fault is not None:
        raise fault
    return BoundaryPath(zip(ts, points))


def serialize_path(path):
    points = []
    for t, point in path.samples:
        entry = serialize_element(point)
        entry.pop("algebra")
        points.append({"t": float(t), **entry})
    return {"algebra": serialize_algebra(path.alg), "samples": points}
