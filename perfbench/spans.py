"""In-memory span tracer that wraps library functions from outside.

The package is not edited: `Tracer.install` replaces each target function
in every loaded `maslov_kit` module namespace that holds it (modules that
did `from .boundary import shilov_spectral` keep their own binding, so
patching only the defining module would miss their calls), and
`Tracer.remove` puts every original back.

A span is (name, start, end, parent, root).  Spans are recorded only inside
an op opened with `Tracer.op`, so the benchmark's own oracle calls between
ops leave no trace.  Self time is a span's duration minus the part of it
covered by its child spans.
"""

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

OP_PREFIX = "op:"

# (module, attribute, span name); the attribute may be "Class.method".
# The three schema parsers share one span name.
TARGETS = (
    ("maslov_kit.jacobi", "eigh", "jacobi.eigh"),
    ("maslov_kit.algebra", "spectral_decompose_real",
     "algebra.spectral_decompose_real"),
    ("maslov_kit.boundary", "shilov_spectral", "boundary.shilov_spectral"),
    ("maslov_kit.boundary", "ShilovPoint.__init__", "boundary.ShilovPoint"),
    ("maslov_kit.boundary", "cinverse", "boundary.cinverse"),
    ("maslov_kit.boundary", "cocycle_j", "boundary.cocycle_j"),
    ("maslov_kit.boundary", "act_lift", "boundary.act_lift"),
    ("maslov_kit.boundary", "apply_word", "boundary.apply_word"),
    ("maslov_kit.indices", "relative_element", "indices.relative_element"),
    ("maslov_kit.indices", "transversal", "indices.transversal"),
    ("maslov_kit.indices", "mu", "indices.mu"),
    ("maslov_kit.indices", "souriau_m", "indices.souriau_m"),
    ("maslov_kit.indices", "maslov_iota", "indices.maslov_iota"),
    ("maslov_kit.indices", "inertia_j", "indices.inertia_j"),
    ("maslov_kit.indices", "arnold_nu", "indices.arnold_nu"),
    ("maslov_kit.dynamics", "eigenangle_flow", "dynamics.eigenangle_flow"),
    ("maslov_kit.dynamics", "arnold_number", "dynamics.arnold_number"),
    ("maslov_kit.dynamics", "pair_path_index", "dynamics.pair_path_index"),
    ("maslov_kit.dynamics", "quasimorphism_c", "dynamics.quasimorphism_c"),
    ("maslov_kit.dynamics", "rotation_rho", "dynamics.rotation_rho"),
    ("maslov_kit.schemas", "parse_element", "schemas.parse"),
    ("maslov_kit.schemas", "parse_word", "schemas.parse"),
    ("maslov_kit.schemas", "parse_path", "schemas.parse"),
    ("maslov_kit._serialize", "dumps", "serialize.dumps"),
)


def _flow_grid_points(args, kwargs, result):
    """Input grid size of an eigenangle_flow call: the merged sample times."""
    times = set()
    for obj in args[:2]:
        times.update(getattr(obj, "times", ()))
    return len(times)


# name -> f(args, kwargs, result) -> number, summed per name into `notes`
NOTES = {"dynamics.eigenangle_flow": _flow_grid_points}


def self_times(start, end, parent):
    """Duration minus the union of the direct children's intervals, clipped
    to the parent's own interval.  Children of one parent may overlap or
    extend past it; each instant is subtracted once and only inside it."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, reach = -1, 0.0
    for i in order:
        p = parent[i]
        if p != cur:
            cur, reach = p, start[p]
        lo = max(start[i], reach)
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
            reach = hi
    return out


def _fanout(per_parent):
    counts = list(per_parent.values())
    multi = [c for c in counts if c > 1]
    return [sum(counts), len(counts), len(multi), sum(multi)]


class Tracer:
    """Records spans around the `TARGETS` while installed."""

    def __init__(self, targets=TARGETS, notes=NOTES):
        self.targets = targets
        self.note_fns = notes
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.root = array("q")
        self.name = array("q")
        self.notes = defaultdict(float)
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, label):
        """One root span around a workload op."""
        idx = self._open(self._name_id(OP_PREFIX + label))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        note = self.note_fns.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.notes[name] += note(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every maslov_kit namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "maslov_kit"
                                         or key.startswith("maslov_kit."))]
        for mod_name, attr, name in self.targets:
            owner = sys.modules.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = vars(owner).get(meth) if owner is not None else None
            if orig is None:     # gone from this version: its layer reads 0
                continue
            if cls_name:
                self._patched.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, name))
                continue
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def remove(self):
        """Restore every original binding, in reverse order of patching."""
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # ------------------------------------------------------------ analysis

    def arrays(self):
        return (np.asarray(self.name), np.asarray(self.start),
                np.asarray(self.end), np.asarray(self.parent),
                np.asarray(self.root))

    def summary(self):
        """Totals over all recorded spans, as plain JSON data:
        ops: {label: count}; layers: {label: {name: [calls, self_s, total_s]}};
        edges: {"parent>child": [child calls, parent spans with such a child,
        parent spans with two or more, child calls under those]};
        notes: {name: summed note}."""
        name, start, end, parent, root = self.arrays()
        selfs = self_times(start, end, parent)
        dur = end - start
        labels = {}
        ops = defaultdict(int)
        layers = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        edges = defaultdict(lambda: defaultdict(int))
        names = self.names
        for i in range(len(name)):
            nm = names[name[i]]
            if parent[i] < 0:
                labels[i] = nm[len(OP_PREFIX):]
                ops[labels[i]] += 1
                continue
            cell = layers[labels[root[i]]][nm]
            cell[0] += 1
            cell[1] += float(selfs[i])
            cell[2] += float(dur[i])
            edges[names[name[parent[i]]] + ">" + nm][int(parent[i])] += 1
        return {
            "ops": dict(ops),
            "layers": {op: {k: list(v) for k, v in d.items()}
                       for op, d in layers.items()},
            "edges": {k: _fanout(v) for k, v in edges.items()},
            "notes": dict(self.notes),
        }

    def dump(self, path):
        """Write every span as one JSON object: names plus column arrays."""
        name, start, end, parent, root = self.arrays()
        t0 = float(start[0]) if len(start) else 0.0
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name": name.tolist(),
                       "start_us": np.round((start - t0) * 1e6, 3).tolist(),
                       "end_us": np.round((end - t0) * 1e6, 3).tolist(),
                       "parent": parent.tolist(),
                       "root": root.tolist()}, fh)

