"""The settable tolerances of the index decisions, and the fixed thresholds.

A single transversality gate keeps the integer-valued indices mutually
consistent: an angle counts as a coincidence direction iff its circular
distance to pi is below ``transverse``.  Distances in the gray zone
[transverse, GRAY_FACTOR*transverse) are refused when ``mode`` is STRICT and
treated as transverse when it is PERMISSIVE, so an integer output never
silently flips; the same ``mode`` decides whether a path strand tangent to
its counting level is refused or counted at a shifted level.  The gray zone
must stay below pi, the largest distance an angle can have.
GRAY_FACTOR also separates the kept from the dropped moduli of a witness
signature, SPECTRAL bounds the reconstruction residual of a Jordan frame,
and LIFT_PHASE bounds |arg(det sigma e^{-ir theta})| of a lifted point.
Membership of S is fixed too: BOUNDARY bounds ||conj z - z^{-1}|| / (1 + ||z||)
on S, and under RANK_CUTOFF (not a rank) a relative eigenvalue, singular value
or determinant counts as zero.
"""

import math
from dataclasses import dataclass

from .errors import DomainError

STRICT = "strict"
PERMISSIVE = "permissive"

GRAY_FACTOR = 10.0
SPECTRAL = 1e-9
LIFT_PHASE = 1e-6
BOUNDARY = 1e-7
RANK_CUTOFF = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of the index decisions, one per CLI flag: two numbers,
    each finite and positive, and the gray-zone policy.  An integer bound of
    1/2 or more could never refuse a residual, and a gray zone reaching pi
    would make every angle a coincidence or a refusal, so both are refused."""

    transverse: float = 1e-7     # delta_T, angle distance to pi; gray up to GRAY_FACTOR x
    integer: float = 1e-6        # max |raw - round(raw)| for index reports, < 1/2
    mode: str = STRICT           # gray zone and tangencies: STRICT refuses

    def __post_init__(self):
        if self.mode not in (STRICT, PERMISSIVE):
            raise DomainError(f"tolerance mode must be {STRICT!r} or "
                              f"{PERMISSIVE!r}, got {self.mode!r}")
        for name in ("transverse", "integer"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"tolerance {name} must be finite and "
                                  f"positive, got {value!r}")
        if self.integer >= 0.5:
            raise DomainError(f"tolerance integer must be below 0.5, got "
                              f"{self.integer!r}")
        if GRAY_FACTOR * self.transverse >= math.pi:
            raise DomainError(f"tolerance transverse must be below "
                              f"pi / {GRAY_FACTOR:g}, got {self.transverse!r}")


DEFAULT = Tolerances()
