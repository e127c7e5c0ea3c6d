"""Tolerance bundle shared by every operation.

A single transversality gate keeps the integer-valued indices mutually
consistent: an angle counts as a coincidence direction iff its circular
distance to pi is below ``transverse``.  Distances in the gray zone
[transverse, gray_factor*transverse) are refused in strict mode and treated
as transverse in permissive mode, so an integer output never silently flips.
"""

from dataclasses import dataclass

STRICT = "strict"
PERMISSIVE = "permissive"


@dataclass(frozen=True)
class Tolerances:
    transverse: float = 1e-7     # delta_T, angle distance to pi
    gray_factor: float = 10.0
    integer: float = 1e-6        # max |raw - round(raw)| for index reports
    spectral: float = 1e-9       # structural invariants (frames, round-trips)
    boundary: float = 1e-7       # Shilov membership residual
    rank: float = 1e-8           # relative eigenvalue/singular-value cutoff
    slope: float = 1e-6          # tangential-crossing detector


DEFAULT = Tolerances()


def check_mode(mode):
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError(f"mode must be '{STRICT}' or '{PERMISSIVE}', got {mode!r}")
    return mode
