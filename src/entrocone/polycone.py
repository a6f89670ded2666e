"""The polymatroid cone, its extreme rays for n = 3, and face geometry.

The cone is cut out by the elemental information inequalities: for each
variable i, ``h_[n] >= h_[n]\\i`` (monotonicity), and for each pair i < j
and each subset beta disjoint from {i, j},
``h_{i beta} + h_{j beta} >= h_beta + h_{ij beta}`` (submodularity), with
the convention ``h_empty = 0``.

For three variables the cone is also the conic hull of eight integer
extreme rays; conic membership questions are decided exactly.  Because
every entropy coordinate is a rational combination of logarithms of
primes, and the generators have integer entries, a decomposition
``h = sum_j lambda_j e_j`` splits into one rational linear system per
prime.  By Caratheodory it suffices to examine maximal linearly
independent subsets of the generators, whose square systems have unique
solutions, so feasibility is decided by exact solves over all of them in a
fixed subset order - no LP machinery, and certificates are exact.

Strictness (relative interior) is decided through tight sets: the minimal
face of the cone containing h is determined by exactly which elemental
inequalities hold with equality at h, and h is strictly inside a face iff
its tight set coincides with the face's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Mapping, Optional, Sequence

from .distributions import EntropyVector
from .logexact import LogLinear, Sign, dot
from .subsets import MAX_VARS, subset_index_map, subset_name

__all__ = [
    "ConicCertificate",
    "FaceLocation",
    "FacePosition",
    "FaceSpec",
    "GammaVerdict",
    "LinearFunctional",
    "MAX_VARS",
    "RAY_ORDER",
    "Ray",
    "combination",
    "cone_membership",
    "elemental_inequalities",
    "face_catalogue",
    "face_for_generators",
    "in_gamma_n",
    "permute_ray",
    "ray_by_label",
    "sorted_rays",
    "strict_in_face",
    "variable_permutations",
]


@unique
class Ray(Enum):
    """The eight extreme rays of the three-variable cone."""

    R1 = "1"
    R2 = "2"
    R3 = "3"
    R12 = "12"
    R13 = "13"
    R23 = "23"
    R123 = "123"
    R123P = "123p"

    @property
    def label(self) -> str:
        return self.value

    @property
    def vector(self) -> tuple[int, ...]:
        return _RAY_VECTORS[self]

    def __repr__(self) -> str:
        return f"Ray({self.value})"


RAY_ORDER: tuple[Ray, ...] = (
    Ray.R1, Ray.R2, Ray.R3, Ray.R12, Ray.R13, Ray.R23, Ray.R123, Ray.R123P,
)

# Coordinates in canonical subset order h1,h2,h3,h12,h13,h23,h123.
_RAY_VECTORS: dict[Ray, tuple[int, ...]] = {
    Ray.R1: (1, 0, 0, 1, 1, 0, 1),
    Ray.R2: (0, 1, 0, 1, 0, 1, 1),
    Ray.R3: (0, 0, 1, 0, 1, 1, 1),
    Ray.R12: (1, 1, 0, 1, 1, 1, 1),
    Ray.R13: (1, 0, 1, 1, 1, 1, 1),
    Ray.R23: (0, 1, 1, 1, 1, 1, 1),
    Ray.R123: (1, 1, 1, 1, 1, 1, 1),
    Ray.R123P: (1, 1, 1, 2, 2, 2, 2),
}

_RAY_BY_LABEL = {r.value: r for r in Ray}
_RAY_RANK = {r: i for i, r in enumerate(RAY_ORDER)}


def ray_by_label(label: str) -> Ray:
    try:
        return _RAY_BY_LABEL[label]
    except KeyError:
        raise ValueError(f"unknown ray label {label!r}") from None


def sorted_rays(rays: Iterable[Ray]) -> tuple[Ray, ...]:
    return tuple(sorted(set(rays), key=_RAY_RANK.__getitem__))


def variable_permutations() -> tuple[dict[int, int], ...]:
    """All relabelings of the three variable indices."""
    return tuple({1: a, 2: b, 3: c} for a, b, c in permutations((1, 2, 3)))


def permute_ray(ray: Ray, perm: Mapping[int, int]) -> Ray:
    if ray is Ray.R123P:
        return ray
    image = frozenset(perm[i] for i in (int(ch) for ch in ray.value))
    return ray_by_label(subset_name(image))


# ---------------------------------------------------------------------------
# Elemental inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFunctional:
    """Integer functional over entropy coordinates; nonneg on the cone."""

    name: str
    coeffs: tuple[int, ...]

    def evaluate(self, h: EntropyVector) -> LogLinear:
        return dot(self.coeffs, h.coords)

    def evaluate_int(self, vec: Sequence[int]) -> int:
        return sum(c * v for c, v in zip(self.coeffs, vec))


@lru_cache(maxsize=None)
def elemental_inequalities(n: int) -> tuple[LinearFunctional, ...]:
    """Monotonicity and submodularity functionals for n variables."""
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"n must be within 1..{MAX_VARS}")
    index = subset_index_map(n)
    dim = len(index)
    ground = frozenset(range(1, n + 1))
    out: list[LinearFunctional] = []
    for i in range(1, n + 1):
        coeffs = [0] * dim
        coeffs[index[ground]] += 1
        rest = ground - {i}
        if rest:
            coeffs[index[rest]] -= 1
        out.append(LinearFunctional(f"mono:{i}", tuple(coeffs)))
    for i, j in combinations(range(1, n + 1), 2):
        others = sorted(ground - {i, j})
        for k in range(len(others) + 1):
            for beta_tuple in combinations(others, k):
                beta = frozenset(beta_tuple)
                coeffs = [0] * dim
                coeffs[index[beta | {i}]] += 1
                coeffs[index[beta | {j}]] += 1
                if beta:
                    coeffs[index[beta]] -= 1
                coeffs[index[beta | {i, j}]] -= 1
                suffix = subset_name(beta) if beta else "-"
                out.append(LinearFunctional(f"submod:{i},{j}|{suffix}", tuple(coeffs)))
    return tuple(out)


@dataclass(frozen=True)
class GammaVerdict:
    in_cone: bool
    violated: Optional[LinearFunctional] = None
    value: Optional[LogLinear] = None


def in_gamma_n(h: EntropyVector) -> GammaVerdict:
    """Test all elemental inequalities; report the first violated one."""
    for fn in elemental_inequalities(h.n):
        val = fn.evaluate(h)
        if val.sign() == Sign.NEGATIVE:
            return GammaVerdict(False, fn, val)
    return GammaVerdict(True)


# ---------------------------------------------------------------------------
# Exact conic decomposition
# ---------------------------------------------------------------------------


_ROWS = 7  # coordinates of a three-variable entropy vector


def _eliminate(
    columns: Sequence[Sequence[int]], rhs_list: Sequence[Sequence[Fraction]] = ()
) -> tuple[list[int], list[list[Fraction]]]:
    """Gauss-Jordan elimination of ``[M | b_1 .. b_t]`` over the rationals.

    ``M`` has the given integer columns.  Returns the pivot columns and the
    reduced augmented rows: the rank of ``M`` is the number of pivots, and
    when every column is a pivot, row ``j`` holds the unique solution
    entries for column ``j``.
    """
    k = len(columns)
    aug = [
        [Fraction(col[i]) for col in columns] + [rhs[i] for rhs in rhs_list]
        for i in range(_ROWS)
    ]
    pivots: list[int] = []
    for c in range(k):
        r = len(pivots)
        pr = next((i for i in range(r, _ROWS) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(_ROWS):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    return pivots, aug


@dataclass(frozen=True)
class ConicCertificate:
    """Exact nonnegative coefficients reproducing the input vector."""

    coefficients: Mapping[Ray, LogLinear]

    def vector(self) -> EntropyVector:
        return combination(self.coefficients)

    def to_json(self) -> dict:
        return {
            "generators": [r.label for r in sorted_rays(self.coefficients)],
            "coefficients": {r.label: lam.to_json() for r, lam in sorted(self.coefficients.items(), key=lambda kv: _RAY_RANK[kv[0]])},
            "residual_zero": True,
        }


def combination(coefficients: Mapping[Ray, LogLinear]) -> EntropyVector:
    """Build ``sum_j lambda_j e_j`` as an exact entropy-space vector."""
    rays = list(coefficients)
    lams = [coefficients[r] for r in rays]
    return EntropyVector(3, [dot([r.vector[i] for r in rays], lams) for i in range(_ROWS)])


def cone_membership(h: EntropyVector, generators: Iterable[Ray]) -> Optional[ConicCertificate]:
    """Exact conic decomposition of h over the given generator rays.

    Returns the first all-nonnegative exact certificate under a fixed
    deterministic enumeration of maximal linearly independent generator
    subsets, each square system solved once per prime of h, or None when
    no certificate exists.
    """
    if h.n != 3:
        raise ValueError("conic decomposition is defined for n = 3 vectors")
    gens = sorted_rays(generators)
    primes = sorted({p for c in h.coords for p in c.terms})
    if not primes:
        # the zero vector is the trivial conic combination
        return ConicCertificate({g: LogLinear() for g in gens})
    rhs_list = [[c.terms.get(p, Fraction(0)) for c in h.coords] for p in primes]
    rank = len(_eliminate([g.vector for g in gens])[0])
    for subset in combinations(gens, rank):
        pivots, rows = _eliminate([g.vector for g in subset], rhs_list)
        if len(pivots) < rank or any(v for row in rows[rank:] for v in row[rank:]):
            continue  # dependent columns, or an inconsistent system
        lams = {
            g: LogLinear({p: rows[j][rank + t] for t, p in enumerate(primes)})
            for j, g in enumerate(subset)
        }
        if any(lam.sign() == Sign.NEGATIVE for lam in lams.values()):
            continue
        cert = ConicCertificate({g: lams.get(g, LogLinear()) for g in gens})
        if cert.vector() == h:  # exactness guard; algebra should make it always hold
            return cert
    return None


# ---------------------------------------------------------------------------
# Faces of the three-variable cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceSpec:
    """A face of the three-variable cone: nothing but its generator rays.

    The rest is computed from them when asked for, so no face table is
    built at import.  `dim` is the rank of the generators; `canonical`
    marks the 19 catalogued representatives (faces containing vectors that
    are not entropy vectors, one per relabeling orbit); `orbit` lists the
    distinct generator sets obtained by relabeling variables, the face's
    own set included.
    """

    generators: frozenset[Ray]

    @property
    def dim(self) -> int:
        return len(_eliminate([g.vector for g in sorted_rays(self.generators)])[0])

    @property
    def canonical(self) -> bool:
        return self.labels() in _CANONICAL_FACE_LABELS

    @property
    def orbit(self) -> tuple[frozenset[Ray], ...]:
        images = {frozenset(permute_ray(r, perm) for r in self.generators) for perm in variable_permutations()}
        return tuple(sorted(images, key=lambda s: tuple(_RAY_RANK[r] for r in sorted_rays(s))))

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in sorted_rays(self.generators))

    def to_json(self) -> dict:
        return {
            "generators": list(self.labels()),
            "dim": self.dim,
            "canonical": self.canonical,
            "orbit_size": len(self.orbit),
        }

    def __repr__(self) -> str:
        return f"FaceSpec({','.join(self.labels())}; dim={self.dim})"


# Labels in RAY_ORDER, so that `FaceSpec.canonical` can compare `labels()`.
_CANONICAL_FACE_LABELS: tuple[tuple[str, ...], ...] = (
    # 1-D
    ("123p",),
    # 2-D
    ("1", "123p"),
    ("12", "123p"),
    # 3-D
    ("1", "2", "123p"),
    ("12", "13", "123p"),
    ("1", "12", "123p"),
    ("1", "23", "123p"),
    # 4-D
    ("1", "2", "3", "123p"),
    ("1", "2", "12", "123p"),
    ("1", "2", "13", "123p"),
    ("1", "12", "13", "123p"),
    ("1", "12", "23", "123p"),
    ("12", "13", "23", "123", "123p"),
    # 5-D
    ("1", "2", "3", "12", "123p"),
    ("1", "2", "12", "13", "123p"),
    ("1", "2", "13", "23", "123p"),
    ("1", "12", "13", "23", "123", "123p"),
    # 6-D
    ("1", "2", "3", "12", "13", "123p"),
    ("1", "2", "12", "13", "23", "123", "123p"),
)


def face_catalogue() -> tuple[FaceSpec, ...]:
    """The 19 canonical proper faces holding non-entropy vectors."""
    return tuple(
        FaceSpec(frozenset(ray_by_label(lbl) for lbl in labels)) for labels in _CANONICAL_FACE_LABELS
    )


def face_for_generators(generators: Iterable[Ray]) -> FaceSpec:
    """The face spanned by a set of rays."""
    return FaceSpec(frozenset(generators))


@unique
class FacePosition(Enum):
    STRICTLY_INSIDE = "strictly_inside"
    IN_SUBFACE = "in_subface"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class FaceLocation:
    position: FacePosition
    certificate: Optional[ConicCertificate] = None
    subface: Optional[FaceSpec] = None


def strict_in_face(h: EntropyVector, face: FaceSpec) -> FaceLocation:
    """Locate h relative to a face: strictly inside, in a subface, outside.

    Membership is certified by exact conic decomposition.  Strictness uses
    the tight-set criterion: h lies in the relative interior iff the
    elemental inequalities tight at h are exactly those tight on the whole
    face.  When h sits deeper, the reported subface is the minimal face
    containing h (the rays annihilated by everything tight at h).
    """
    cert = cone_membership(h, face.generators)
    if cert is None:
        return FaceLocation(FacePosition.OUTSIDE)
    fns = elemental_inequalities(3)
    tight_h = frozenset(i for i, fn in enumerate(fns) if not fn.evaluate(h))
    tight_face = frozenset(
        i for i, fn in enumerate(fns) if not any(fn.evaluate_int(g.vector) for g in face.generators)
    )
    if tight_h == tight_face:
        return FaceLocation(FacePosition.STRICTLY_INSIDE, cert)
    minimal = frozenset(r for r in RAY_ORDER if not any(fns[i].evaluate_int(r.vector) for i in tight_h))
    return FaceLocation(FacePosition.IN_SUBFACE, cert, FaceSpec(minimal))
