"""Exact arithmetic on rational linear combinations of logarithms of primes.

Every Shannon entropy of a finite distribution with rational probabilities
can be written as ``sum_p q_p * log p`` with finitely many primes ``p`` and
rational coefficients ``q_p``.  Logarithms of distinct primes are linearly
independent over the rationals, so the coefficient map is a faithful
canonical form: two values are equal as real numbers iff their maps are
identical.  That makes equality, and hence zero-testing, purely structural.

Questions the canonical form cannot answer by inspection (the sign of a
nonzero value, a ceiling, a rounded decimal) are settled by interval
arithmetic at doubling working precision.  Zero has been excluded exactly
beforehand, so a small enough enclosure separates from the critical point;
but refinement is capped at ``_PREC_CAP`` bits, and a value too close to
its critical point to separate below the cap raises
:class:`PrecisionExhausted` instead of a verdict.

The enclosures are computed in stdlib :mod:`decimal` with
``ceil(bits * log10 2) + 2`` significant digits, in explicit contexts that
never consult the thread's current context.  ``Context.ln`` and
``Context.exp`` are correctly rounded to nearest whatever the context's
rounding mode, so the true value lies strictly between the neighbours of
the result; each ``ln p`` and the final ``exp`` are therefore widened by
one unit in the last place (``next_minus``/``next_plus``).  The contexts
and each widened ``ln p`` pair are memoized per precision in bounded
caches; a cached end is the one a fresh context computes.  Every other
step (scaling by a coefficient's numerator and denominator, summing) is
rounded outward, in a ``ROUND_FLOOR`` context for the lower end and a
``ROUND_CEILING`` context for the upper.  The ends are converted to
:class:`~fractions.Fraction` exactly, and all comparisons with the
critical point are exact.

A :class:`LogLinear` value is unit-free.  It stands for ``log x`` of the
positive real ``x = prod_p p**q_p`` in whatever base the caller prefers;
ordering, integrality tests and ceilings depend only on ``x``.  The base
matters for decimal display only, hence the two renderers
:meth:`LogLinear.approx_bits` and :meth:`LogLinear.approx_exp`.  Antilogs
have two caps of ``_ANTILOG_BITS_CAP`` bits.  An exact power needs
integer coefficients and ``sum_p |q_p| * log2 p`` within the cap, past
which ``as_log_natural``/``as_log_fraction`` raise :class:`ValueError`;
``pow2_ceil`` and ``approx_exp`` then use an enclosure, which needs both
ends of its log enclosure within the cap of zero, checked before ``exp``.
Past that cap :class:`ValueError` is raised: the antilog would take
unbounded time and memory, and its integer part would not print under
Python's int-to-str digit limit.
"""

from __future__ import annotations

import functools
import itertools
import math
import decimal
import operator
import re
from enum import IntEnum, unique
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, TypeVar

__all__ = [
    "LogLinear",
    "PrecisionExhausted",
    "Sign",
    "dot",
]

_T = TypeVar("_T")
_PREC_START = 64
_PREC_CAP = 1 << 16
# 2**14_000 has 4215 decimal digits, below the 4300-digit int-to-str limit.
_ANTILOG_BITS_CAP = 14_000
# the cap in nats, fixed and rational; rounding ln 2 moves it by under 1e-12
_ANTILOG_LN_CAP = _ANTILOG_BITS_CAP * Fraction(math.log(2))
# a coefficient string is an integer or num/den; Fraction would also read
# decimals and exponents such as "1e200000000", whose expansion is unbounded
_COEFF_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# a prime key is ASCII digits; int() would also read "1_1", " 3 " and "+5"
_DIGITS_RE = re.compile(r"[0-9]+")
# a file's coefficients stay below 2**_COEFF_BITS, so a combination of a
# vector's coordinates prints under the int-to-str limit
_COEFF_BITS = 1024


class PrecisionExhausted(ArithmeticError):
    """Interval refinement hit the precision cap without resolving.

    Raised by the sign, ceiling and display routines when an enclosure at
    ``_PREC_CAP`` bits still straddles the critical point (zero, an integer
    or a rounding boundary).  No a-priori bound keeps a nonzero value away
    from zero by more than the cap resolves, so this can happen for
    adversarial magnitudes.
    """


@unique
class Sign(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


# Integers below _TRIAL_BOUND**2 are settled by trial division.  Above it,
# primality is deterministic Miller-Rabin (these bases are exact below
# 3.3e24) and splitting is Pollard rho, whose work grows like the fourth
# root of the number; the part of an integer left after dividing out the
# primes below _TRIAL_BOUND must stay below _FACTOR_CAP, which bounds that
# work, or the integer is rejected as input data.
_TRIAL_BOUND = 1000
_FACTOR_CAP = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@functools.lru_cache(maxsize=1024)
def _is_prime(n: int) -> bool:
    return n > 1 and _factorize(n) == {n: 1}


_TRIAL_PRIMES = tuple(p for p in range(2, _TRIAL_BOUND) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _check_cap(n: int) -> None:
    if n >= _FACTOR_CAP:
        raise ValueError(
            f"{n} has no prime factor below {_TRIAL_BOUND} and is at least"
            f" 2**{_FACTOR_CAP.bit_length() - 1}: too large to factor"
        )


def _miller_rabin(n: int) -> bool:
    """Deterministic for odd n > 41 below 3.3e24 with the fixed bases."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A proper factor of the odd composite n (Brent's cycle search)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += 128
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(m: int) -> dict[int, int]:
    """Prime factorization: trial division by the primes below
    _TRIAL_BOUND, then Miller-Rabin and Pollard rho on what is left."""
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m >= _TRIAL_BOUND ** 2:
        _check_cap(m)
        pending = [m]
        m = 1
        while pending:
            x = pending.pop()
            if _miller_rabin(x):
                factors[x] = factors.get(x, 0) + 1
            else:
                d = _pollard_rho(x)
                pending += [d, x // d]
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


@functools.lru_cache
def _contexts(prec: int) -> tuple[decimal.Context, decimal.Context, decimal.Context]:
    """Nearest, floor and ceiling decimal contexts for ``prec`` bits."""
    digits = math.ceil(prec * math.log10(2)) + 2
    traps = [decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow]
    return tuple(
        decimal.Context(prec=digits, rounding=mode, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=traps)
        for mode in (decimal.ROUND_HALF_EVEN, decimal.ROUND_FLOOR, decimal.ROUND_CEILING)
    )


@functools.lru_cache(maxsize=256)
def _ln_bounds(p: int, prec: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """The neighbours below and above ``ln p`` rounded to nearest at ``prec`` bits."""
    near = _contexts(prec)[0]
    ln = near.ln(p)
    return near.next_minus(ln), near.next_plus(ln)


def _fraction(q) -> Fraction:
    """``Fraction(q)``, but a string must match ``_COEFF_RE``."""
    if isinstance(q, str) and not _COEFF_RE.fullmatch(q):
        raise ValueError(f"coefficient {q!r} must be an integer or 'num/den'")
    return Fraction(q)


class LogLinear:
    """An exact real of the form ``sum_p q_p * log p`` over primes.

    Instances are immutable and hashable.  Arithmetic (`+`, `-`, scaling by
    a rational) stays inside the class; comparisons are exact and decidable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction | int | str] = {}):
        canonical: dict[int, Fraction] = {}
        for p, q in terms.items():
            p = operator.index(p)
            if type(q) is not Fraction:
                q = _fraction(q)
            if q == 0:
                continue
            if not _is_prime(p):
                raise ValueError(f"key {p} is not prime")
            canonical[p] = canonical.get(p, 0) + q
        # the sorted (prime, coefficient) pairs: the canonical form
        object.__setattr__(self, "_terms", tuple(sorted((p, q) for p, q in canonical.items() if q != 0)))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("LogLinear values are immutable")

    # -- construction --------------------------------------------------

    @classmethod
    def from_log_int(cls, m: int) -> "LogLinear":
        """The value ``log m`` for a positive integer ``m`` (``log 1 = 0``)."""
        if m <= 0:
            raise ValueError(f"log of nonpositive integer {m}")
        return cls(_factorize(m)) if m > 1 else cls()

    @classmethod
    def from_log_rational(cls, a: int, b: int) -> "LogLinear":
        """The value ``log(a/b)`` for positive integers ``a`` and ``b``."""
        return cls.from_log_int(a) - cls.from_log_int(b)

    # -- structure ------------------------------------------------------

    @property
    def terms(self) -> Mapping[int, Fraction]:
        """Prime-to-coefficient map, nonzero entries only (read-only copy)."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogLinear):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "LogLinear(0)"
        parts = [f"{q}*log({p})" for p, q in self._terms]
        return "LogLinear(" + " + ".join(parts) + ")"

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "LogLinear") -> "LogLinear":
        return dot((1, 1), (self, other)) if isinstance(other, LogLinear) else NotImplemented

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        return dot((1, -1), (self, other)) if isinstance(other, LogLinear) else NotImplemented

    def __neg__(self) -> "LogLinear":
        return dot((-1,), (self,))

    def scale(self, q) -> "LogLinear":
        """Multiply by an exact rational scalar."""
        return dot((q,), (self,))

    def __mul__(self, q) -> "LogLinear":
        if isinstance(q, (int, Fraction)):
            return self.scale(q)
        return NotImplemented

    __rmul__ = __mul__

    # -- exact decision procedures ---------------------------------------

    def _enclosure(self, prec: int, antilog: bool = False) -> tuple[Fraction, Fraction]:
        """Rational interval containing ``sum q_p * ln p`` at given precision,
        or its antilog if both ends are within ``_ANTILOG_LN_CAP`` of zero."""
        near, down, up = _contexts(prec)
        lo = hi = decimal.Decimal(0)
        for p, q in self._terms:
            ln_lo, ln_hi = _ln_bounds(p, prec)
            if q < 0:
                ln_lo, ln_hi = ln_hi, ln_lo
            lo = down.add(lo, down.divide(down.multiply(ln_lo, q.numerator), q.denominator))
            hi = up.add(hi, up.divide(up.multiply(ln_hi, q.numerator), q.denominator))
        if not antilog:
            return Fraction(lo), Fraction(hi)
        if max(-Fraction(lo), Fraction(hi)) > _ANTILOG_LN_CAP:
            raise ValueError(f"antilog of {self!r} is outside 2**-{_ANTILOG_BITS_CAP}..2**{_ANTILOG_BITS_CAP}")
        return Fraction(near.next_minus(near.exp(lo))), Fraction(near.next_plus(near.exp(hi)))

    def _exact_antilog(self) -> Optional[Fraction]:
        """The antilog ``prod p**q_p`` as an exact fraction if every q_p is an
        integer and ``sum |q_p| * log2 p`` is within _ANTILOG_BITS_CAP, else None."""
        # the first test also keeps the float sum below from overflowing
        if any(q.denominator != 1 or abs(q) > _ANTILOG_BITS_CAP for _, q in self._terms) or (
            sum(abs(q) * math.log2(p) for p, q in self._terms) > _ANTILOG_BITS_CAP
        ):
            return None
        return math.prod((Fraction(p) ** q.numerator for p, q in self._terms), start=Fraction(1))

    def _refine(self, decide: Callable[[int], Optional[_T]], what: str) -> _T:
        """First non-None ``decide(prec)`` at doubling precision; None means
        the enclosure still straddles the critical point, and past
        ``_PREC_CAP`` bits :class:`PrecisionExhausted` names ``what``."""
        prec = _PREC_START
        while prec <= _PREC_CAP:
            answer = decide(prec)
            if answer is not None:
                return answer
            prec *= 2
        raise PrecisionExhausted(f"{what} of {self!r} unresolved at {_PREC_CAP} bits")

    def sign(self) -> Sign:
        """Exact sign; decidable because the zero test is structural."""
        if not self._terms:
            return Sign.ZERO

        def decide(prec: int) -> Optional[Sign]:
            lo, hi = self._enclosure(prec)
            return Sign.POSITIVE if lo > 0 else Sign.NEGATIVE if hi < 0 else None

        return self._refine(decide, "sign")

    def __lt__(self, other: "LogLinear") -> bool:
        return (self - other).sign() == Sign.NEGATIVE

    def __le__(self, other: "LogLinear") -> bool:
        return (self - other).sign() != Sign.POSITIVE

    def __gt__(self, other: "LogLinear") -> bool:
        return (self - other).sign() == Sign.POSITIVE

    def __ge__(self, other: "LogLinear") -> bool:
        return (self - other).sign() != Sign.NEGATIVE

    def as_log_natural(self) -> Optional[int]:
        """Return ``m`` iff the value is ``log m`` for a natural ``m``.

        Holds exactly when every coefficient is a nonnegative integer; the
        zero value is ``log 1``.
        """
        if any(q.denominator != 1 or q < 0 for _, q in self._terms):
            return None
        return self.as_log_fraction().numerator

    def as_log_fraction(self) -> Optional[Fraction]:
        """Return ``x`` as an exact fraction iff the value is ``log x`` with
        ``x`` rational, i.e. iff every coefficient is an integer."""
        if any(q.denominator != 1 for _, q in self._terms):
            return None
        if (x := self._exact_antilog()) is None:
            raise ValueError(f"antilog of {self!r} exceeds 2**{_ANTILOG_BITS_CAP}")
        return x

    def pow2_ceil(self) -> int:
        """Ceiling of the antilog ``prod p**q_p`` of a nonnegative value.

        A rational antilog within the exact-power cap is computed exactly.
        Any other is no integer (a negative or fractional exponent survives
        unique factorization; a natural past that cap is past the
        enclosure's), so interval refinement resolves the ceiling unless it
        lies too close to an integer for the precision cap, which raises
        :class:`PrecisionExhausted`.
        """
        if self.sign() == Sign.NEGATIVE:
            raise ValueError("ceiling of an antilog below 1 requested on a negative value")
        if (x := self._exact_antilog()) is not None:
            return math.ceil(x)

        def decide(prec: int) -> Optional[int]:
            lo, hi = self._enclosure(prec, antilog=True)
            return math.ceil(lo) if math.ceil(lo) == math.ceil(hi) else None

        return self._refine(decide, "ceiling of antilog")

    # -- decimal display --------------------------------------------------

    def _approx(self, digits: int, antilog: bool) -> str:
        """Correctly rounded decimal of the value in bits, or of its antilog."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        scalepow = Fraction(10) ** digits

        if antilog:
            exact = self._exact_antilog()
        else:
            terms = dict(self._terms)
            exact = terms.get(2, Fraction(0)) if terms.keys() <= {2} else None
        if exact is not None:
            scaled = round(exact * scalepow)  # ties to even
            return _format_scaled(scaled, digits)

        ln2 = LogLinear.from_log_int(2)

        def decide(prec: int) -> Optional[str]:
            lo, hi = self._enclosure(prec, antilog)
            if not antilog:  # divide the natural-log enclosure by an ln 2 enclosure
                dlo, dhi = ln2._enclosure(prec)
                bounds = [lo / dlo, lo / dhi, hi / dlo, hi / dhi]
                lo, hi = min(bounds), max(bounds)
            nlo = math.floor(lo * scalepow + Fraction(1, 2))
            nhi = math.floor(hi * scalepow + Fraction(1, 2))
            return _format_scaled(nlo, digits) if nlo == nhi else None

        return self._refine(decide, "display")

    def approx_bits(self, digits: int = 4) -> str:
        """Correctly rounded decimal of the value in bits (base-2 logs)."""
        return self._approx(digits, antilog=False)

    def approx_exp(self, digits: int = 4) -> str:
        """Correctly rounded decimal of the antilog ``prod p**q_p``."""
        return self._approx(digits, antilog=True)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """JSON object with exact terms plus an advisory bits rendering."""
        return {
            "log_terms": {str(p): f"{q.numerator}/{q.denominator}" for p, q in self._terms},
            "bits_approx": self.approx_bits(4),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "LogLinear":
        if not isinstance(obj, Mapping) or "log_terms" not in obj:
            raise ValueError("expected an object with a 'log_terms' field")
        if not isinstance(obj["log_terms"], Mapping):
            raise ValueError("'log_terms' must be an object mapping primes to coefficients")
        terms = {}
        for key, val in obj["log_terms"].items():
            if not (isinstance(key, str) and _DIGITS_RE.fullmatch(key)):
                raise ValueError(f"prime key {key!r} is not written in ASCII digits")
            p = int(key)
            if p in terms:
                raise ValueError(f"prime {p} is named twice")
            # a JSON float is already rounded
            if not (type(val) is int or isinstance(val, str) and _COEFF_RE.fullmatch(val)):
                raise ValueError(f"coefficient {val!r} of prime {key!r} must be a 'num/den' string or an integer")
            try:
                q = terms[p] = Fraction(val)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {val!r} of prime {key!r} has a zero denominator") from None
            if max(abs(q.numerator), q.denominator) >> _COEFF_BITS:
                raise ValueError(f"coefficient of prime {key!r} has a numerator or denominator of 2**{_COEFF_BITS} or more")
        return cls(terms)


def _format_scaled(scaled: int, digits: int) -> str:
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def dot(coeffs: Iterable, values: Iterable[LogLinear]) -> LogLinear:
    """The rational combination ``sum_i c_i * v_i``, built once: the maps
    are summed per prime into one dict and one :class:`LogLinear` is built.
    Coefficients are read by ``_fraction``: a string must match ``_COEFF_RE``."""
    merged: dict[int, Fraction] = {}
    for c, v in zip(coeffs, values):
        c = _fraction(c)
        if c:
            for p, q in v._terms:
                merged[p] = merged.get(p, 0) + c * q
    return LogLinear(merged)
