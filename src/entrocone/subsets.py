"""Canonical indexing of nonempty variable subsets.

Entropy vectors are indexed by the nonempty subsets of {1, .., n}, ordered
by cardinality and then lexicographically; for n = 3 that is
1, 2, 3, 12, 13, 23, 123.  Subsets are passed around as frozensets of
1-based variable indices and named by digit concatenation ("12", "123").
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable

Subset = frozenset

MAX_VARS = 6  # desk-scale cap on the variable count of every input


@lru_cache(maxsize=None)
def canonical_order(n: int) -> tuple[Subset, ...]:
    """All nonempty subsets of {1..n} by (cardinality, lexicographic)."""
    if n < 1:
        raise ValueError("need at least one variable")
    out = []
    for k in range(1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            out.append(frozenset(combo))
    return tuple(out)


@lru_cache(maxsize=None)
def subset_index_map(n: int) -> dict[Subset, int]:
    return {alpha: i for i, alpha in enumerate(canonical_order(n))}


def subset_name(alpha: Iterable[int]) -> str:
    return "".join(str(i) for i in sorted(alpha))


def parse_subset_name(name: str) -> Subset:
    """Inverse of :func:`subset_name`: distinct variable digits 1..9."""
    try:
        members = [int(ch) for ch in name.strip()]
    except ValueError:
        raise ValueError(f"malformed subset name {name!r}") from None
    alpha = frozenset(members)
    if not alpha or len(members) != len(alpha) or 0 in alpha:
        raise ValueError(f"subset name {name!r} is not a nonempty set of distinct variables 1..9")
    return alpha
