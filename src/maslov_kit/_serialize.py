"""Deterministic JSON writer: shortest round-trip floats, fixed key order.

Every document goes through json.dumps with a two-space indent and a final
newline.  Floats are written by float.__repr__, the shortest text that
parses back to the same double, sign of zero and type included, and keys
in insertion order, which the builders keep fixed, so identical inputs
give byte-identical output.
"""

import json


def dumps(obj):
    return json.dumps(obj, indent=2) + "\n"
