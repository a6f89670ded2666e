import itertools
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from entrocone.distributions import EntropyVector, JointPMF, PMFFormatError, parse_pmf
from entrocone.logexact import LogLinear
from entrocone.qusearch import SearchOutcome, SearchStatus, SupportSpec
from entrocone.subsets import canonical_order, subset_index_map


FIXTURES = resources.files("entrocone") / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def run_subprocess(*argv, timeout=30, **kwargs):
    """Run a fresh interpreter with ``argv``, importing this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout, **kwargs)


@pytest.fixture(scope="session")
def table1_pmf():
    return parse_pmf(fixture_text("table1.pmf"))


@pytest.fixture(scope="session")
def table2_pmf():
    return parse_pmf(fixture_text("table2.pmf"))


def table2_pair_entropy() -> LogLinear:
    """The exact pair-marginal entropy of the 216-point fixture."""
    return LogLinear({2: Fraction(11, 6), 3: Fraction(11, 4)})


def f_vector() -> EntropyVector:
    return EntropyVector(3, [LogLinear.from_log_int(m) for m in (4, 4, 4, 16, 16, 16, 48)])


def g_vector() -> EntropyVector:
    return EntropyVector(
        3,
        [
            LogLinear.from_log_int(9),
            LogLinear.from_log_int(9),
            LogLinear.from_log_int(6),
            table2_pair_entropy(),
            LogLinear.from_log_int(54),
            LogLinear.from_log_int(54),
            LogLinear.from_log_int(216),
        ],
    )


def candidate_vector() -> EntropyVector:
    return EntropyVector(3, [LogLinear.from_log_int(m) for m in (9, 9, 6, 54, 54, 54, 216)])


def permute_vector(h: EntropyVector, perm) -> EntropyVector:
    """Coordinate action of relabeling the variables: the coordinate of
    alpha moves to the subset {perm[i] : i in alpha}."""
    index = subset_index_map(h.n)
    out = [None] * len(h.coords)
    for alpha, c in zip(canonical_order(h.n), h.coords):
        out[index[frozenset(perm[i] for i in alpha)]] = c
    return EntropyVector(h.n, out)


def permute_variables(pmf: JointPMF, perm) -> JointPMF:
    """Relabel variable roles: new variable perm[i] plays old variable i."""
    slot = [0] * pmf.n
    for i in range(1, pmf.n + 1):
        slot[perm[i] - 1] = i - 1
    sizes = [pmf.alphabet_sizes[j] for j in slot]
    mass = {tuple(x[j] for j in slot): p for x, p in pmf.mass.items()}
    return JointPMF(sizes, mass)


def independent_product(p: JointPMF, q: JointPMF) -> JointPMF:
    """Variable-wise independent pairing of two PMFs over the same n.

    Variable i of the result ranges over the product alphabet of the two
    i-th variables (encoded as a*size_q + b); entropy vectors add.
    """
    if p.n != q.n:
        raise PMFFormatError("independent product needs matching variable counts")
    sizes = tuple(a * b for a, b in zip(p.alphabet_sizes, q.alphabet_sizes))
    mass: dict[tuple[int, ...], Fraction] = {}
    for xp, mp_ in p.mass.items():
        for xq, mq in q.mass.items():
            key = tuple(a * sq + b for a, b, sq in zip(xp, xq, q.alphabet_sizes))
            mass[key] = mp_ * mq
    return JointPMF(sizes, mass)


def brute_force_oracle(spec: SupportSpec, cap: int = 24) -> SearchOutcome:
    """Exhaustively enumerate all supports of the target size on the grid.

    Independent of the search engine: no propagation, no symmetry
    breaking, just counting.  Grids above `cap` cells are rejected.
    """
    sizes = spec.alphabet_sizes()
    grid = math.prod(sizes)
    if grid > cap:
        raise ValueError(f"grid of {grid} cells exceeds oracle cap {cap}")
    order = canonical_order(spec.n)
    total = spec.total
    start = time.monotonic()
    if total > grid:
        return SearchOutcome(SearchStatus.EXHAUSTED_INFEASIBLE, None, 0, time.monotonic() - start)

    cells = list(itertools.product(*[range(s) for s in sizes]))
    # per subset: each cell's projection, and the number of values to hit
    projections = [([tuple(cell[i - 1] for i in sorted(a)) for cell in cells], spec.m[a]) for a in order]
    examined = 0
    for combo in itertools.combinations(range(grid), total):
        examined += 1
        if all(
            len(counts := Counter(row[ci] for ci in combo)) == target and len(set(counts.values())) == 1
            for row, target in projections
        ):
            p = Fraction(1, total)
            pmf = JointPMF(sizes, {cells[ci]: p for ci in combo})
            return SearchOutcome(SearchStatus.FOUND, pmf, examined, time.monotonic() - start)
    return SearchOutcome(SearchStatus.EXHAUSTED_INFEASIBLE, None, examined, time.monotonic() - start)


@pytest.fixture
def count_values(monkeypatch):
    """``count_values(fn)`` is the number of ``LogLinear`` values ``fn()``
    builds, counted on ``LogLinear.__init__`` as perfbench's tracer does."""
    built = [0]
    init = LogLinear.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(LogLinear, "__init__", counting)

    def count(fn) -> int:
        built[0] = 0
        fn()
        return built[0]

    return count


def seeded_rng(salt: str = "") -> random.Random:
    return random.Random(f"entrocone:{salt}")


def random_nonneg_loglinear(rng: random.Random, primes=(2, 3, 5)) -> LogLinear:
    """Log of a random rational >= 1 built from small prime powers."""
    num = 1
    for p in primes:
        num *= p ** rng.randrange(0, 4)
    den = rng.randrange(1, num + 1)
    return LogLinear.from_log_rational(num, den) if num >= den else LogLinear()


def random_loglinear(rng: random.Random, primes=(2, 3, 5, 7)) -> LogLinear:
    terms = {}
    for p in primes:
        if rng.random() < 0.6:
            terms[p] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return LogLinear(terms)


def round_log3_2(x: int) -> int:
    """``round(x * log_3 2)`` for a positive integer x: log_3 2 is
    atanh(1/3) / atanh(1/2), whose series are summed in integers to 20
    digits more than x has, far more than the truncation of the terms costs."""
    one = 10 ** (len(str(x)) + 20)

    def atanh_inv(n: int) -> int:  # one * atanh(1/n), each term truncated
        total, power, k = 0, one // n, 1
        while power:
            total += power // k
            power //= n * n
            k += 2
        return total

    return (2 * x * atanh_inv(3) + atanh_inv(2)) // (2 * atanh_inv(2))
