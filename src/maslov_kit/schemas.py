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


_NUMBER_TYPES = {int, float}

# field kinds of _columns: a finite number, a list of alg.dim finite numbers,
# and such a list that reads as zeros when absent
_NUMBER, _COORDS, _COORDS_OR_ZEROS = range(3)
_POINT_FIELDS = (("coords_re", _COORDS), ("coords_im", _COORDS_OR_ZEROS))
_PATH_FIELDS = (("t", _NUMBER),) + _POINT_FIELDS


def _is_number(value):
    """A JSON number: an int or a float (numpy's float64 too), not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _all_numbers(values):
    """_is_number of every value, with the exact types tested at C level."""
    return set(map(type, values)) <= _NUMBER_TYPES or all(map(_is_number, values))


def _floats(values):
    """(array, k): the float64 array of a list of numbers or of number lists,
    and the index k of the first entry holding an integer past the float
    range (None if there is none), where the array stops."""
    try:
        return np.asarray(values, dtype=np.float64), None
    except OverflowError:
        for k in range(len(values)):        # the error path finds its entry
            try:
                np.asarray(values[k], dtype=np.float64)
            except OverflowError:
                return np.asarray(values[:k], dtype=np.float64), k
        raise


def _columns(entries, fields, alg):
    """The float64 columns of the number fields of a list of JSON objects,
    with one conversion and one finiteness test per field over all rows.

    `fields` lists (name, kind) in check order.  A loop over the rows makes
    the structural checks, row by row and field by field (the row is an
    object; the field is present, unless _COORDS_OR_ZEROS; it is a number,
    or a list of numbers of length alg.dim), and stops at the first that
    fails.  The values that passed are then converted field by field; an
    integer past the float range or a value that is not finite is a fault
    of its row and field.  The fault kept is the first by (row, field),
    the one a row-by-row check meets first.

    Returns (columns, fault): columns[f] holds field f on the rows before
    the faulty one (on every row if there is none), and fault is (row,
    message) with the message to append to that row's name, or None."""
    dim = alg.dim
    raws = [[] for _ in fields]
    faults = []             # (row, field, message); field -1 for the row itself
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            faults.append((i, -1, ": expected a JSON object"))
            break
        for f, (name, kind) in enumerate(fields):
            if name not in entry:
                if kind != _COORDS_OR_ZEROS:
                    faults.append((i, f, f".{name}: missing required field"))
                    break
                raws[f].append([0.0] * dim)
                continue
            value = entry[name]
            if kind == _NUMBER:
                if not _is_number(value):
                    faults.append((i, f, f".{name}: expected a finite number, got {value!r}"))
                    break
            elif not isinstance(value, list) or not _all_numbers(value):
                faults.append((i, f, f".{name}: expected a list of numbers"))
                break
            elif len(value) != dim:
                faults.append((i, f, f".{name}: expected {dim} coordinates for "
                                     f"{alg.kind}-{alg.param}, got {len(value)}"))
                break
            raws[f].append(value)
        if faults:
            break
    columns = []
    for f, (name, kind) in enumerate(fields):
        values, big = _floats(raws[f])
        if big is not None:
            faults.append((big, f, f".{name}: integer beyond the float range"))
        finite = np.isfinite(values)
        if not finite.all():
            row = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
            message = (f"expected a finite number, got {raws[f][row]!r}"
                       if kind == _NUMBER else "coordinates must be finite")
            faults.append((row, f, f".{name}: {message}"))
        columns.append(values)
    if not faults:
        return columns, None
    row, _, message = min(faults)
    return [values[:row] for values in columns], (row, message)


def _row(obj, fields, alg, where):
    """The one-row case of _columns: the values of obj's fields, or the
    DomainError of the first check they fail."""
    columns, fault = _columns([obj], fields, alg)
    if fault is not None:
        raise DomainError(where + fault[1])
    return [values[0] for values in columns]


def _coords(obj, field, alg, where):
    """The float64 coordinates of obj's list field `field`."""
    return _row(obj, ((field, _COORDS),), alg, where)[0]


def _point(obj, alg, where):
    """The ShilovPoint of the coords_re / coords_im fields of obj."""
    re, im = _row(obj, _POINT_FIELDS, alg, where)
    try:
        return ShilovPoint(celement(alg, re, im))
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from exc


def parse_element(obj, where="point"):
    """Parse a point document into a ShilovPoint, or a LiftedPoint if a
    `theta` field is present: a finite number, read by _columns as
    base_arg is, and refused as {where}.theta where LiftedPoint refuses it."""
    alg = parse_algebra(_require(obj, "algebra", where), where + ".algebra")
    point = _point(obj, alg, where)
    if "theta" not in obj:
        return point
    theta = _row(obj, (("theta", _NUMBER),), alg, where)[0]
    try:
        return LiftedPoint(point, float(theta))
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
    base_arg = None
    if obj.get("base_arg") is not None:
        base_arg = float(_row(obj, (("base_arg", _NUMBER),), alg, where)[0])
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

    The samples' fields are read by _columns: a structural check of each
    sample (t, then coords_re, then coords_im) up to the first that fails,
    then one float64 conversion and one finiteness test per field over all
    the samples before it.  The coordinates of the samples before the first
    faulty one are tested for S in one batch (shilov_rows).  The error
    raised is the one a sample-by-sample parse meets first: the boundary
    refusal of the first refused sample if one is refused, else the schema
    fault.  Only then is the BoundaryPath built; its time check names the
    first sample out of order in `row`, raised as {where}.samples[row].t."""
    alg = parse_algebra(_require(obj, "algebra", where), where + ".algebra")
    raw = _require(obj, "samples", where)
    if not isinstance(raw, list) or len(raw) < 2:
        raise DomainError(f"{where}.samples: expected a list of at least 2 samples")
    (ts, re, im), fault = _columns(raw, _PATH_FIELDS, alg)
    if len(ts):
        points, refusals = shilov_rows(alg, re + 1j * im)   # the coordinates celement makes
        if refusals:
            k = min(refusals)
            raise DomainError(f"{where}.samples[{k}]: {refusals[k]}")
    if fault is not None:
        raise DomainError(f"{where}.samples[{fault[0]}]{fault[1]}")
    try:
        return BoundaryPath(zip(ts, points))
    except DomainError as exc:
        raise DomainError(f"{where}.samples[{exc.row}].t: {exc}") from exc


def serialize_path(path):
    points = []
    for t, point in path.samples:
        entry = serialize_element(point)
        entry.pop("algebra")
        points.append({"t": float(t), **entry})
    return {"algebra": serialize_algebra(path.alg), "samples": points}
