"""Reference arithmetic for the answer checks, independent of entrocone.

An exact value ``sum_p q_p * log p`` is a ``Terms`` dict mapping each
prime to a nonzero Fraction; an entropy-space vector is a list of seven
Terms in the order h1, h2, h3, h12, h13, h23, h123.  Zero tests are
structural, signs are settled by floats only when far from zero and by
integer powers otherwise, so every expected answer here is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Terms = dict  # prime -> nonzero Fraction

SUBSETS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))

RAYS = {
    "1": (1, 0, 0, 1, 1, 0, 1),
    "2": (0, 1, 0, 1, 0, 1, 1),
    "3": (0, 0, 1, 0, 1, 1, 1),
    "12": (1, 1, 0, 1, 1, 1, 1),
    "13": (1, 0, 1, 1, 1, 1, 1),
    "23": (0, 1, 1, 1, 1, 1, 1),
    "123": (1, 1, 1, 1, 1, 1, 1),
    "123p": (1, 1, 1, 2, 2, 2, 2),
}
THETA = ("1", "2", "3", "123p")
OMEGA = ("1", "2", "3", "12", "123p")

# The nine elemental inequalities of three variables, as integer
# functionals over (h1, h2, h3, h12, h13, h23, h123).
ELEMENTAL = (
    (0, 0, 0, 0, 0, -1, 1),
    (0, 0, 0, 0, -1, 0, 1),
    (0, 0, 0, -1, 0, 0, 1),
    (1, 1, 0, -1, 0, 0, 0),
    (0, 0, -1, 0, 1, 1, -1),
    (1, 0, 1, 0, -1, 0, 0),
    (0, -1, 0, 1, 0, 1, -1),
    (0, 1, 1, 0, 0, -1, 0),
    (-1, 0, 0, 1, 1, 0, -1),
)


@lru_cache(maxsize=None)
def factor(m: int) -> tuple[tuple[int, int], ...]:
    out = []
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def log_int(m: int) -> Terms:
    return {p: Fraction(e) for p, e in factor(m)}


def combine(pairs) -> Terms:
    """``sum c * t`` over (rational c, Terms t) pairs."""
    acc: dict[int, Fraction] = {}
    for c, t in pairs:
        if c:
            for p, q in t.items():
                acc[p] = acc.get(p, 0) + c * q
    return {p: Fraction(q) for p, q in acc.items() if q}


def sub(a: Terms, b: Terms) -> Terms:
    return combine(((1, a), (-1, b)))


def sign(t: Terms) -> int:
    if not t:
        return 0
    v = sum(float(q) * math.log(p) for p, q in t.items())
    scale = sum(abs(float(q)) * math.log(p) for p, q in t.items())
    if abs(v) > 1e-9 * scale:
        return 1 if v > 0 else -1
    num, den, _ = _antilog_power(t)
    return (num > den) - (num < den)


def _antilog_power(t: Terms) -> tuple[int, int, int]:
    """(A, B, D) with ``prod p**q_p == (A/B)**(1/D)``."""
    d = math.lcm(*(q.denominator for q in t.values())) if t else 1
    num = den = 1
    for p, q in t.items():
        e = int(q * d)
        if e > 0:
            num *= p**e
        else:
            den *= p**-e
    return num, den, d


def is_log_natural(t: Terms) -> bool:
    return all(q.denominator == 1 and q > 0 for q in t.values())


def _iroot(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, for n >= 0."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def ceil_antilog(t: Terms) -> int:
    """Ceiling of ``prod p**q_p`` by integer roots."""
    num, den, d = _antilog_power(t)
    r = _iroot(num // den, d)
    while r**d * den < num:
        r += 1
    return r


def recombine(coeffs: dict) -> list:
    """``sum_r lambda_r e_r`` for ray label -> Terms."""
    return [combine((RAYS[r][k], lam) for r, lam in coeffs.items()) for k in range(7)]


def entropy_terms(counts) -> Terms:
    """Exact entropy of integer counts: log N - (1/N) sum a log a."""
    n = sum(counts)
    mult: dict[int, int] = {}
    for a in counts:
        mult[a] = mult.get(a, 0) + 1
    return combine([(1, log_int(n))] + [(Fraction(-k * a, n), log_int(a)) for a, k in mult.items() if a > 1])


def entropy_vector_terms(weights: dict) -> list:
    """Entropy vector of a PMF given as point -> integer weight."""
    out = []
    for alpha in SUBSETS:
        marg: dict[tuple, int] = {}
        for x, w in weights.items():
            key = tuple(x[i - 1] for i in alpha)
            marg[key] = marg.get(key, 0) + w
        out.append(entropy_terms(marg.values()))
    return out


def projection_sizes(points) -> list:
    return [len({tuple(x[i - 1] for i in alpha) for x in points}) for alpha in SUBSETS]


def tight_set(h: list) -> frozenset:
    return frozenset(i for i, f in enumerate(ELEMENTAL) if not combine(zip(f, h)))


def face_tight_set(face) -> frozenset:
    """Functionals vanishing on every generator of a face."""
    return frozenset(
        i for i, f in enumerate(ELEMENTAL) if all(sum(c * v for c, v in zip(f, RAYS[r])) == 0 for r in face)
    )


def minimal_face(tight: frozenset) -> frozenset:
    """Rays annihilated by every functional tight at a vector."""
    return frozenset(r for r in RAYS if tight <= face_tight_set((r,)))


def face_decomposition(h: list, face: tuple) -> dict | None:
    """Unique decomposition of h over the independent theta or omega rays,
    or None when h lies outside that face."""
    h1, h2, h3, h12, h13, h23, h123 = h
    if face == THETA:
        d = combine(((1, h1), (1, h2), (1, h3), (-1, h123)))
        lam = {"1": sub(h1, d), "2": sub(h2, d), "3": sub(h3, d), "123p": d}
    else:
        d = combine(((1, h3), (1, h12), (-1, h123)))
        lam = {
            "1": sub(h123, h23),
            "2": sub(h123, h13),
            "3": sub(h123, h12),
            "12": combine(((1, h1), (1, h23), (-1, h3), (-1, h12))),
            "123p": d,
        }
    if recombine(lam) != list(h) or any(sign(v) < 0 for v in lam.values()):
        return None
    return lam


def inner_verdicts(h: list) -> tuple[bool, dict | None, bool, dict | None]:
    """(theta member, theta decomposition, omega member, omega decomposition)."""
    theta = face_decomposition(h, THETA)
    theta_member = theta is not None and is_log_natural(theta["123p"])
    omega = face_decomposition(h, OMEGA)
    omega_member = omega is not None and omega_condition(omega["12"], omega["123p"])
    return theta_member, theta, omega_member, omega


def omega_condition(lam12: Terms, lam123p: Terms) -> bool:
    """lambda_123p is log-natural, or lambda_12 + lambda_123p >= log ceil(antilog lambda_123p)."""
    ceiling = sign(sub(combine(((1, lam12), (1, lam123p))), log_int(ceil_antilog(lam123p))))
    return is_log_natural(lam123p) or ceiling >= 0


def is_quasi_uniform_support(points, sizes: list) -> bool:
    """Every projection hits ``sizes[alpha]`` values, each equally often."""
    points = list(points)
    if len(set(points)) != len(points):
        return False
    for alpha, m in zip(SUBSETS, sizes):
        counts: dict[tuple, int] = {}
        for x in points:
            key = tuple(x[i - 1] for i in alpha)
            counts[key] = counts.get(key, 0) + 1
        if len(counts) != m or len(set(counts.values())) != 1:
            return False
    return True


def permute(m: tuple, perm: tuple) -> tuple:
    """Support sizes after relabeling variable i as perm[i - 1]."""
    index = {frozenset(a): k for k, a in enumerate(SUBSETS)}
    out = [0] * 7
    for k, alpha in enumerate(SUBSETS):
        out[index[frozenset(perm[i - 1] for i in alpha)]] = m[k]
    return tuple(out)


def canonical(m: tuple) -> tuple:
    """Least relabeling of a support-size spec (h1, .., h123 order)."""
    return min(permute(m, p) for p in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)))
