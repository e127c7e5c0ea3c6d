"""Fresh-interpreter helper for the benchmark; run as a child process.

    child.py setup {lib|cli} KIND:PARAM...   import, one warm mu call per
        algebra, then print {"ready": time.monotonic(), "file": ...}
    child.py import                          print the seconds that
        `import maslov_kit.cli` takes in this fresh process

CLOCK_MONOTONIC is system-wide on Linux, so the parent subtracts its own
`time.monotonic()` taken just before starting this process from "ready".
"""

import json
import sys
import time


def warm(alg):
    """One cheap transverse mu call: loads every lazy per-algebra table."""
    from maslov_kit import boundary as bd
    from maslov_kit import indices as ix

    e = bd.unit_shilov(alg)
    ix.mu(e, bd.ShilovPoint(1j * e.value))


def setup(kind, algebras):
    if kind == "cli":
        import maslov_kit.cli  # noqa: F401
    import maslov_kit
    from maslov_kit import algebra as al

    for spec in algebras:
        name, param = spec.split(":")
        warm(al.algebra(name, int(param)))
    print(json.dumps({"ready": time.monotonic(), "file": maslov_kit.__file__}))


def import_cli():
    start = time.monotonic()
    import maslov_kit.cli  # noqa: F401
    print(json.dumps({"import_s": time.monotonic() - start}))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], rest[1:])
    elif mode == "import":
        import_cli()
    else:
        sys.exit(f"unknown mode {mode!r}")
