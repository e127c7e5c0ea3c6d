"""Command line front end: compute, rotation, path, gen, selftest."""

import contextlib
import functools
import json
import math
import sys
from dataclasses import replace

import click
import numpy as np

from . import __version__
from . import algebra as al
from . import boundary as bd
from . import dynamics as dy
from . import indices as ix
from . import selftest as st
from ._serialize import dumps
from .config import DEFAULT, PERMISSIVE, STRICT
from .errors import AmbiguityError, DomainError
from .schemas import (
    parse_element,
    parse_path,
    parse_word,
    serialize_algebra,
    serialize_element,
    serialize_path,
    serialize_word,
)

OP_ARITY = {
    "mu": 2, "iota": 3, "souriau": 2, "inertia": 3, "arnold": 2, "alm": 2,
}
LIFTED_OPS = ("souriau", "arnold", "alm")


def exit_codes(fn):
    """DomainError exits 2, AmbiguityError (integrality included) exits 3."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except AmbiguityError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except DomainError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


@contextlib.contextmanager
def _file_errors(path):
    """An OSError on the file at path, read or written, becomes a DomainError."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"{path}: {exc.strerror or exc}") from exc


def _read_json(path):
    with _file_errors(path):
        try:
            if path == "-":
                return json.load(sys.stdin)
            with open(path) as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON ({exc.msg} at line "
                              f"{exc.lineno})") from exc
        except ValueError as exc:   # past Python's digit limit, or not UTF-8
            raise DomainError(f"{path}: invalid JSON ({exc})") from exc


def _read_docs(paths):
    """Each file holds one document or a list of documents; order kept."""
    docs = []
    for path in paths:
        loaded = _read_json(path)
        entries = loaded if isinstance(loaded, list) else [loaded]
        docs.extend((path, entry) for entry in entries)
    return docs


def tol_options(fn):
    fn = click.option("--tol-transverse", type=float, default=None,
                      help="Angle distance to pi treated as a coincidence.")(fn)
    fn = click.option("--tol-int", type=float, default=None,
                      help="Largest accepted distance to an integer.")(fn)
    fn = click.option("--mode", metavar=f"[{STRICT}|{PERMISSIVE}]",
                      default=STRICT, show_default=True,
                      help="Gray-zone policy near coincidence thresholds.")(fn)
    return fn


def _build_tol(tol_transverse, tol_int, mode):
    """The Tolerances of the flags: DEFAULT with the ones given replaced,
    each checked by Tolerances itself."""
    given = {"transverse": tol_transverse, "integer": tol_int,
             "mode": None if mode == STRICT else mode}
    changes = {name: value for name, value in given.items() if value is not None}
    return replace(DEFAULT, **changes) if changes else DEFAULT


def _echo_doc(doc):
    click.echo(dumps(doc), nl=False)


@click.group()
@click.version_option(version=__version__, prog_name="maslov-kit")
def main():
    """Maslov-type indices on Shilov boundaries of tube-type domains.

    Points, words, and paths are JSON documents (see `maslov-kit gen` for
    samples).
    """


@main.command()
@click.option("--op", "op", required=True,
              type=click.Choice(sorted(OP_ARITY)), help="Index to compute.")
@tol_options
@click.argument("files", nargs=-1, required=True)
@exit_codes
def compute(op, tol_transverse, tol_int, mode, files):
    """Evaluate a pointwise index on points or lifted points.

    mu and iota/inertia take boundary points (2 and 3); souriau, arnold and
    alm take lifted points (theta field required).  FILES may hold single
    documents or lists; use - for stdin.
    """
    tol = _build_tol(tol_transverse, tol_int, mode)
    docs = _read_docs(files)
    if len(docs) != OP_ARITY[op]:
        raise DomainError(f"op {op} expects {OP_ARITY[op]} points, "
                          f"got {len(docs)}")
    parsed = [parse_element(doc, where=path) for path, doc in docs]
    if op in LIFTED_OPS:
        for (path, _), obj in zip(docs, parsed):
            if not isinstance(obj, bd.LiftedPoint):
                raise DomainError(
                    f"{path}.theta: op {op} needs lifted points")
        args = parsed
    else:
        args = [p.point if isinstance(p, bd.LiftedPoint) else p
                for p in parsed]
    alg = parsed[0].alg
    for (path, _), obj in zip(docs, parsed):
        if obj.alg != alg:
            raise DomainError(f"{path}.algebra: expected "
                              f"{alg.kind}-{alg.param}, got "
                              f"{obj.alg.kind}-{obj.alg.param}")

    if op == "mu":
        value = ix.mu(args[0], args[1], tol)
        raw, residual, witnesses = float(value), 0.0, ()
    else:
        fn = {"iota": ix.maslov_iota, "souriau": ix.souriau_m,
              "inertia": ix.inertia_j, "arnold": ix.arnold_nu,
              "alm": ix.alm_n}[op]
        rep = fn(*args, tol)
        value, raw, residual, witnesses = (rep.value, rep.raw, rep.residual,
                                           rep.witnesses)
    doc = {
        "op": op,
        "algebra": serialize_algebra(alg),
        "mode": tol.mode,
        "value": int(value),
        "raw": float(raw),
        "residual": float(residual),
        "tolerances": {"transverse": tol.transverse, "integer": tol.integer},
    }
    if witnesses:
        doc["witnesses"] = [serialize_element(w) for w in witnesses]
    _echo_doc(doc)


@main.command()
@click.option("--k", "power", type=click.IntRange(min=1), default=32,
              show_default=True, help="Power K in the c(g^K)/K estimate.")
@click.option("--base", "base_file", default=None,
              help="Optional base lift file (defaults to a fixed generic lift).")
@tol_options
@click.argument("word_file")
@exit_codes
def rotation(power, base_file, tol_transverse, tol_int, mode, word_file):
    """Translation and rotation number estimates for a group word."""
    tol = _build_tol(tol_transverse, tol_int, mode)
    word = parse_word(_read_json(word_file), where=word_file)
    base = None
    if base_file is not None:
        base = parse_element(_read_json(base_file), where=base_file)
        if not isinstance(base, bd.LiftedPoint):
            raise DomainError(f"{base_file}.theta: base must be a lifted point")
        if base.alg != word.alg:
            raise DomainError(f"{base_file}.algebra: does not match the word")
    tau, tau_bound = dy.translation_tau(word, power, base, tol)
    rho, bound = dy.rho_from_tau(tau, tau_bound)
    _echo_doc({
        "algebra": serialize_algebra(word.alg),
        "k": power,
        "tau_estimate": float(tau),
        "rho_mod1": float(rho),
        "error_bound": float(bound),
    })


@main.command()
@click.option("--op", "op", required=True,
              type=click.Choice(["arnold", "pair"]),
              help="arnold: path + reference point; pair: two paths.")
@click.option("--csv", "csv_file", default=None,
              help="Write the strand table with the crossings counted.")
@tol_options
@click.argument("files", nargs=-1, required=True)
@exit_codes
def path(op, csv_file, tol_transverse, tol_int, mode, files):
    """Crossing indices along sampled boundary paths."""
    tol = _build_tol(tol_transverse, tol_int, mode)
    if len(files) != 2:
        raise DomainError(f"op {op} expects 2 files, got {len(files)}")
    if op == "arnold":
        bpath = parse_path(_read_json(files[0]), where=files[0])
        ref = parse_element(_read_json(files[1]), where=files[1])
        if isinstance(ref, bd.LiftedPoint):
            ref = ref.point
        if ref.alg != bpath.alg:
            raise DomainError(f"{files[1]}.algebra: does not match the path")
        alg = bpath.alg
        flow = dy.eigenangle_flow(bpath, ref)
        value, records = dy.arnold_count(flow, tol)
    else:
        path1 = parse_path(_read_json(files[0]), where=files[0])
        path2 = parse_path(_read_json(files[1]), where=files[1])
        if path1.alg != path2.alg:
            raise DomainError(f"{files[1]}.algebra: does not match "
                              f"{files[0]}")
        alg = path1.alg
        flow = dy.eigenangle_flow(path2, path1)
        value, records = dy.pair_path_count(flow, tol)
    if csv_file is not None:
        with _file_errors(csv_file), open(csv_file, "w", newline="") as fh:
            dy.write_strand_csv(flow, records, fh)
    _echo_doc({
        "op": op,
        "algebra": serialize_algebra(alg),
        "mode": tol.mode,
        "value": int(value),
        "crossings": [
            {"t": float(rec.t), "strand": int(rec.strand),
             "sign": int(rec.sign)}
            for rec in records
        ],
    })


GEN_KINDS = ("element", "lift", "word", "loop", "tangent", "constant")


@main.command()
@click.option("--kind", required=True, type=click.Choice(GEN_KINDS),
              help="What to generate.")
@click.option("--algebra", "kind_name", default="sym-r", show_default=True,
              type=click.Choice(sorted(al.KINDS)))
@click.option("--param", type=int, default=2, show_default=True,
              help="Rank for sym-r/herm-c, dimension q for spin.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--family", default="mixed", show_default=True,
              type=click.Choice(["tube", "unitary", "mixed"]),
              help="Generator family for --kind word.")
@click.option("--n", "n_samples", type=click.IntRange(min=2), default=65,
              show_default=True,
              help="Sample count for path kinds.")
@click.option("--turns", type=float, default=1.0, show_default=True,
              help="Phase turns for --kind loop.")
@click.option("--out", "out_file", default=None,
              help="Write to a file instead of stdout.")
@exit_codes
def gen(kind, kind_name, param, seed, family, n_samples, turns, out_file):
    """Seeded sample documents: points, lifts, words, and test paths.

    loop multiplies a random boundary point by e^{2 pi i turns t} (its
    Arnold number against a generic transverse reference is turns * rank);
    tangent touches the reference cycle of the unit element without
    crossing it; constant stays put.
    """
    if not math.isfinite(turns):
        raise click.BadParameter(f"{turns!r} is not finite", param_hint="'--turns'")
    alg = al.algebra(kind_name, param)
    rng = np.random.default_rng(seed)
    if kind == "element":
        doc = serialize_element(bd.random_shilov(alg, rng))
    elif kind == "lift":
        point = bd.random_shilov(alg, rng)
        doc = serialize_element(bd.lift(point, int(rng.integers(-1, 2))))
    elif kind == "word":
        doc = serialize_word(bd.random_word(alg, rng, mode=family))
    elif kind == "loop":
        sigma = bd.random_shilov(alg, rng)

        def fn(t):
            return bd.ShilovPoint(
                np.exp(2j * math.pi * turns * t) * sigma.value)

        doc = serialize_path(dy.BoundaryPath.from_function(fn, n=n_samples))
    elif kind == "tangent":
        # one strand touches angle 0 quadratically at t = 1/2, so the
        # relative flow against the unit element touches pi there
        frame = al.random_frame(alg, rng)
        rest = rng.uniform(-2.4, 2.4, alg.rank - 1)

        def fn(t):
            head = 0.8 * (t - 0.5) ** 2
            return bd.from_unit_spectrum(
                alg, np.concatenate([[head], rest]), frame)

        doc = serialize_path(dy.BoundaryPath.from_function(fn, n=n_samples))
    else:
        sigma = bd.random_shilov(alg, rng)
        doc = serialize_path(dy.constant_path(sigma, n=n_samples))
    text = dumps(doc)
    if out_file is None:
        click.echo(text, nl=False)
    else:
        with _file_errors(out_file), open(out_file, "w") as fh:
            fh.write(text)


@main.command()
@click.option("--level", default="quick", show_default=True,
              type=click.Choice(sorted(st.SCALES)))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@exit_codes
def selftest(level, seed):
    """Run the acceptance suites; a fixed seed fixes the report bytes."""
    sys.exit(st.run(level=level, seed=seed))


if __name__ == "__main__":
    main()
