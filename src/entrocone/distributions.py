"""Rational joint PMFs, exact entropy vectors, quasi-uniformity checks.

A joint PMF over n finite variables is stored support-only with exact
rational masses.  Writing the masses as a_x / N over a common denominator
N, the Shannon entropy is

    H = log N - (1/N) * sum_x a_x * log a_x,

which is an exact :class:`~entrocone.logexact.LogLinear` value.  The
entropy vector collects the entropies of all nonempty-subset marginals in
canonical subset order.

A random vector is quasi-uniform when every marginal puts a single
probability value on its support; the check reports either all support
sizes, or a concrete offending subset with two support points of different
mass.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .logexact import LogLinear, dot
from .subsets import MAX_VARS, Subset, canonical_order, subset_index_map, subset_name

__all__ = [
    "EntropyVector",
    "JointPMF",
    "PMFFormatError",
    "QUVerdict",
    "QUWitness",
    "entropy",
    "entropy_vector",
    "is_quasi_uniform",
    "marginalize",
    "parse_pmf",
    "serialize_pmf",
]


class PMFFormatError(ValueError):
    """A PMF file or PMF construction violates the format contract."""


class JointPMF:
    """Support-only joint distribution with exact rational masses.

    `common_denominator` is the lcm of the masses' denominators.
    """

    __slots__ = ("n", "alphabet_sizes", "mass", "common_denominator")

    def __init__(self, alphabet_sizes: Sequence[int], mass: Mapping[tuple[int, ...], Fraction]):
        try:
            sizes = tuple(map(operator.index, alphabet_sizes))
            points = [(tuple(map(operator.index, x)), p) for x, p in mass.items()]
        except TypeError:
            raise PMFFormatError("alphabet sizes and support point coordinates must be integers") from None
        if not sizes or any(s < 1 for s in sizes):
            raise PMFFormatError("alphabet sizes must be positive")
        clean: dict[tuple[int, ...], Fraction] = {}
        for point, p in points:
            if type(p) is not Fraction:
                p = Fraction(p)
            if len(point) != len(sizes):
                raise PMFFormatError(f"support point {point} has wrong arity")
            for x, s in zip(point, sizes):
                if not 0 <= x < s:
                    raise PMFFormatError(f"support point {point} outside alphabets {sizes}")
            if p.numerator <= 0:  # a Fraction keeps its sign in the numerator
                raise PMFFormatError(f"mass of {point} must be strictly positive")
            if point in clean:
                raise PMFFormatError(f"duplicate support point {point}")
            clean[point] = p
        # sum the masses as integers over their common denominator
        den = math.lcm(*(p.denominator for p in clean.values()))
        total = sum(p.numerator * (den // p.denominator) for p in clean.values())
        if total != den:
            raise PMFFormatError(f"mass sum != 1 (got {Fraction(total, den)})")
        self.n = len(sizes)
        self.alphabet_sizes = sizes
        self.mass = dict(sorted(clean.items()))
        self.common_denominator = den

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointPMF):
            return NotImplemented
        return (
            self.alphabet_sizes == other.alphabet_sizes and self.mass == other.mass
        )

    def __hash__(self):
        return hash((self.alphabet_sizes, tuple(self.mass.items())))

    def __repr__(self) -> str:
        return f"JointPMF(n={self.n}, sizes={self.alphabet_sizes}, support={len(self.mass)})"

    @property
    def integer_counts(self) -> dict[tuple[int, ...], int]:
        """Masses as integers a_x over the common denominator."""
        N = self.common_denominator
        return {x: p.numerator * (N // p.denominator) for x, p in self.mass.items()}


def marginalize(pmf: JointPMF, alpha: Iterable[int]) -> JointPMF:
    """Marginal PMF over the variables in `alpha` (1-based), in index order."""
    alpha = sorted(set(alpha))
    if not alpha:
        raise PMFFormatError("cannot marginalize onto the empty set")
    if not all(1 <= i <= pmf.n for i in alpha):
        raise PMFFormatError(f"subset {alpha} not within 1..{pmf.n}")
    idx = [i - 1 for i in alpha]
    out: dict[tuple[int, ...], Fraction] = {}
    for point, p in pmf.mass.items():
        key = tuple(point[i] for i in idx)
        out[key] = out.get(key, Fraction(0)) + p
    return JointPMF([pmf.alphabet_sizes[i] for i in idx], out)


def entropy(pmf: JointPMF) -> LogLinear:
    """Exact Shannon entropy, unit-free (render in bits via approx_bits)."""
    N = pmf.common_denominator
    times = Counter(a for a in pmf.integer_counts.values() if a > 1)
    return dot(
        [1, *(-Fraction(k * a, N) for a, k in times.items())],
        map(LogLinear.from_log_int, [N, *times]),
    )


@dataclass(frozen=True, slots=True, repr=False)
class EntropyVector:
    """Exact entries ``h_alpha`` for all nonempty subsets, canonical order."""

    n: int
    coords: tuple[LogLinear, ...]

    def __post_init__(self) -> None:
        order = canonical_order(self.n)
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != len(order):
            raise ValueError(f"need {len(order)} coordinates for n={self.n}, got {len(self.coords)}")
        if not all(isinstance(c, LogLinear) for c in self.coords):
            raise TypeError("coordinates must be LogLinear values")

    def coord(self, alpha: Iterable[int]) -> LogLinear:
        return self.coords[subset_index_map(self.n)[frozenset(alpha)]]

    def __add__(self, other: "EntropyVector") -> "EntropyVector":
        if not isinstance(other, EntropyVector) or other.n != self.n:
            return NotImplemented
        return EntropyVector(self.n, [a + b for a, b in zip(self.coords, other.coords)])

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{subset_name(a)}:{c.approx_bits(3)}" for a, c in zip(canonical_order(self.n), self.coords)
        )
        return f"EntropyVector(bits {pairs})"


def entropy_vector(pmf: JointPMF) -> EntropyVector:
    coords = [entropy(marginalize(pmf, alpha)) for alpha in canonical_order(pmf.n)]
    return EntropyVector(pmf.n, coords)


@dataclass(frozen=True)
class QUWitness:
    """Two support points of one marginal carrying different probabilities."""

    alpha: Subset
    point_a: tuple[int, ...]
    mass_a: Fraction
    point_b: tuple[int, ...]
    mass_b: Fraction


@dataclass(frozen=True)
class QUVerdict:
    is_qu: bool
    support_sizes: Optional[dict[Subset, int]] = None
    witness: Optional[QUWitness] = None


def is_quasi_uniform(pmf: JointPMF) -> QUVerdict:
    """Check that every nonempty marginal is constant on its support."""
    sizes: dict[Subset, int] = {}
    for alpha in canonical_order(pmf.n):
        marg = marginalize(pmf, alpha)
        items = iter(marg.mass.items())
        first_point, first_mass = next(items)
        for point, p in items:
            if p != first_mass:
                return QUVerdict(False, witness=QUWitness(alpha, first_point, first_mass, point, p))
        sizes[alpha] = len(marg.mass)
    return QUVerdict(True, support_sizes=sizes)


# ---------------------------------------------------------------------------
# PMF file format
#
#   # comment
#   pmf n=3 sizes=4,4,4
#   names 1=a,b,c,d     (optional: symbols read as indices 0, 1, ..; not kept)
#   0 1 2 : 1/48        (or named symbols where a names line was given)
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^pmf\s+n=(\d+)\s+sizes=([0-9,]+)\s*$")
_NAMES_RE = re.compile(r"^names\s+(\d+)=(\S+)\s*$")
_MASS_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
# ASCII only: str.isdigit also holds for "²", which int() rejects
_INDEX_RE = re.compile(r"[+-]?[0-9]+")


def parse_pmf(text: str) -> JointPMF:
    """Parse the PMF text format; raises PMFFormatError with a line number."""
    n = None
    sizes: tuple[int, ...] = ()
    symbol_maps: list[Optional[dict[str, int]]] = []
    mass: dict[tuple[int, ...], Fraction] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise PMFFormatError(f"line {lineno}: malformed header (expected 'pmf n=.. sizes=..')")
            n = int(m.group(1))
            if n > MAX_VARS:
                raise PMFFormatError(f"line {lineno}: variable count {n} outside the supported range 1..{MAX_VARS}")
            sizes = tuple(int(s) for s in m.group(2).split(",") if s)
            if n < 1 or len(sizes) != n or any(s < 1 for s in sizes):
                raise PMFFormatError(f"line {lineno}: header sizes do not match n={n}")
            symbol_maps = [None] * n
            continue
        m = _NAMES_RE.match(line)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise PMFFormatError(f"line {lineno}: names for unknown variable {i}")
            group = tuple(m.group(2).split(","))
            if len(group) != sizes[i - 1] or len(set(group)) != len(group):
                raise PMFFormatError(f"line {lineno}: names for variable {i} must be {sizes[i-1]} distinct symbols")
            symbol_maps[i - 1] = {s: k for k, s in enumerate(group)}
            continue
        if ":" not in line:
            raise PMFFormatError(f"line {lineno}: expected 'x1 .. xn : mass'")
        left, _, right = line.partition(":")
        tokens = left.split()
        if len(tokens) != n:
            raise PMFFormatError(f"line {lineno}: expected {n} symbols before ':'")
        point = []
        for i, tok in enumerate(tokens):
            table = symbol_maps[i]
            if table is not None and tok in table:
                point.append(table[tok])
            elif _INDEX_RE.fullmatch(tok):
                point.append(int(tok))
            else:
                raise PMFFormatError(f"line {lineno}: unknown symbol {tok!r} for variable {i + 1}")
            if not 0 <= point[-1] < sizes[i]:
                raise PMFFormatError(f"line {lineno}: symbol {tok!r} out of range for variable {i + 1}")
        key = tuple(point)
        if key in mass:
            raise PMFFormatError(f"line {lineno}: duplicate tuple {key}")
        mtok = right.strip()
        fm = _MASS_RE.match(mtok)
        if not fm:
            hint = " (decimal masses are rejected; use an exact num/den rational)" if "." in mtok else ""
            raise PMFFormatError(f"line {lineno}: malformed mass {mtok!r}{hint}")
        num, den = int(fm.group(1)), int(fm.group(2) or 1)
        if num <= 0 or den == 0:
            raise PMFFormatError(f"line {lineno}: mass {mtok!r} must be strictly positive, with a nonzero denominator")
        mass[key] = Fraction(num, den)

    if n is None:
        raise PMFFormatError("empty input: missing 'pmf' header")
    if not mass:
        raise PMFFormatError("no support points given")
    return JointPMF(sizes, mass)


def serialize_pmf(pmf: JointPMF) -> str:
    """Emit the PMF text format; parse(serialize(p)) == p."""
    lines = [f"pmf n={pmf.n} sizes={','.join(str(s) for s in pmf.alphabet_sizes)}"]
    for point in sorted(pmf.mass):
        p = pmf.mass[point]
        lines.append(f"{' '.join(map(str, point))} : {p.numerator}/{p.denominator}")
    return "\n".join(lines) + "\n"
