"""Entropic characterizations on low-dimensional faces and inner bounds.

On the ray generated by (1,1,1,2,2,2,2) and on its 2-D extensions the
entropy vectors are exactly characterized:

* on the ray, and on the face spanned with any single-variable ray, the
  ray coefficient must be the log of a natural number;
* on the face spanned with the pair ray e_12, the characterization is
  ``lambda_12 + lambda_123' >= log ceil(antilog(lambda_123'))``.

Stacking these with the additivity of entropy vectors gives inner bounds
for the entropy region inside the 4-D face cone(e1,e2,e3,e123') and the
5-D face cone(e1,e2,e3,e12,e123').  Both bounds are decided exactly here:
a vector is decomposed over the face's (linearly independent) generators
and the conditions are evaluated on the exact coefficients.  Verdicts keep
both condition outcomes for diagnosis even when one settles membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .distributions import EntropyVector
from .logexact import LogLinear, Sign
from .polycone import ConicCertificate, FaceSpec, Ray, cone_membership

__all__ = [
    "BoundVerdict",
    "ConditionReport",
    "OMEGA_FACE",
    "THETA_FACE",
    "face_12_123p_entropic",
    "omega_in",
    "ray123p_entropic",
    "theta_in",
]

THETA_FACE = FaceSpec(frozenset({Ray.R1, Ray.R2, Ray.R3, Ray.R123P}))
OMEGA_FACE = FaceSpec(frozenset({Ray.R1, Ray.R2, Ray.R3, Ray.R12, Ray.R123P}))


def _require_nonnegative(name: str, value: LogLinear) -> None:
    if value.sign() == Sign.NEGATIVE:
        raise ValueError(f"{name} must be nonnegative")


def ray123p_entropic(lam: LogLinear) -> bool:
    """A point on the apex ray is entropic iff the coefficient is log of a
    natural number (zero counts: log 1).  The same criterion decides the
    2-D face with a single-variable ray, whose coefficient is unconstrained."""
    _require_nonnegative("apex coefficient", lam)
    return lam.as_log_natural() is not None


def face_12_123p_entropic(lambda12: LogLinear, lambda123p: LogLinear) -> bool:
    """Ceiling criterion on the 2-D face with the pair ray."""
    _require_nonnegative("pair coefficient", lambda12)
    _require_nonnegative("apex coefficient", lambda123p)
    return _ceiling_condition(lambda12, lambda123p).holds


@dataclass(frozen=True)
class ConditionReport:
    """One membership condition with the exact values of both sides."""

    name: str
    holds: bool
    values: dict

    def to_json(self) -> dict:
        rendered = {}
        for key, val in self.values.items():
            rendered[key] = val.to_json() if isinstance(val, LogLinear) else val
        return {"name": self.name, "holds": self.holds, "values": rendered}


@dataclass(frozen=True)
class BoundVerdict:
    member: bool
    conditions: tuple[ConditionReport, ...]
    decomposition: Optional[ConicCertificate]

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "conditions": [c.to_json() for c in self.conditions],
            "decomposition": self.decomposition.to_json() if self.decomposition else None,
        }


def _natural_condition(lam123p: LogLinear) -> ConditionReport:
    m = lam123p.as_log_natural()
    return ConditionReport(
        "natural_123p",
        m is not None,
        {"lambda_123p": lam123p, "natural": m},
    )


def _ceiling_condition(lam12: LogLinear, lam123p: LogLinear) -> ConditionReport:
    ceil = lam123p.pow2_ceil()
    lhs = lam12 + lam123p
    rhs = LogLinear.from_log_int(ceil)
    return ConditionReport(
        "ceiling_12_123p",
        (lhs - rhs).sign() != Sign.NEGATIVE,
        {"lhs": lhs, "rhs": rhs, "ceiling": ceil},
    )


def theta_in(h: EntropyVector) -> BoundVerdict:
    """Inner bound on the 4-D face: decomposition exists and the apex
    coefficient is the log of a natural number.

    Vectors outside the face get member=False with no decomposition, which
    distinguishes them from vectors inside the face failing the condition.
    """
    cert = cone_membership(h, THETA_FACE.generators)
    if cert is None:
        return BoundVerdict(False, (), None)
    cond = _natural_condition(cert.coefficients[Ray.R123P])
    return BoundVerdict(cond.holds, (cond,), cert)


def omega_in(h: EntropyVector) -> BoundVerdict:
    """Inner bound on the 5-D face: decomposition exists and at least one
    of the two conditions holds.  Both are always evaluated."""
    cert = cone_membership(h, OMEGA_FACE.generators)
    if cert is None:
        return BoundVerdict(False, (), None)
    ceiling = _ceiling_condition(cert.coefficients[Ray.R12], cert.coefficients[Ray.R123P])
    natural = _natural_condition(cert.coefficients[Ray.R123P])
    return BoundVerdict(ceiling.holds or natural.holds, (ceiling, natural), cert)
