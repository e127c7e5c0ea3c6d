"""Tolerance bundle shared by every operation, and the fixed thresholds.

A single transversality gate keeps the integer-valued indices mutually
consistent: an angle counts as a coincidence direction iff its circular
distance to pi is below ``transverse``.  Distances in the gray zone
[transverse, GRAY_FACTOR*transverse) are refused in strict mode and treated
as transverse in permissive mode, so an integer output never silently flips.
GRAY_FACTOR also separates the kept from the dropped moduli of a witness
signature, and SPECTRAL bounds the reconstruction residual of a Jordan frame.
"""

import math
from dataclasses import dataclass, fields

from .errors import DomainError

STRICT = "strict"
PERMISSIVE = "permissive"

GRAY_FACTOR = 10.0
SPECTRAL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """The settable tolerances, each finite and positive; an integer bound
    of 1/2 or more could never refuse a residual, so it is refused too."""

    transverse: float = 1e-7     # delta_T, angle distance to pi; gray up to GRAY_FACTOR x
    integer: float = 1e-6        # max |raw - round(raw)| for index reports, < 1/2
    boundary: float = 1e-7       # Shilov membership residual
    rank: float = 1e-8           # relative eigenvalue/singular-value cutoff

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"tolerance {field.name} must be finite and "
                                  f"positive, got {value!r}")
        if self.integer >= 0.5:
            raise DomainError(f"tolerance integer must be below 0.5, got "
                              f"{self.integer!r}")


DEFAULT = Tolerances()


def check_mode(mode):
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError(f"mode must be '{STRICT}' or '{PERMISSIVE}', got {mode!r}")
    return mode
