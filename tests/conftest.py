import random
from fractions import Fraction
from importlib import resources

import pytest

from entrocone.distributions import EntropyVector, parse_pmf
from entrocone.logexact import LogLinear, from_log_int


FIXTURES = resources.files("entrocone") / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


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
    return EntropyVector(3, [from_log_int(m) for m in (4, 4, 4, 16, 16, 16, 48)])


def g_vector() -> EntropyVector:
    return EntropyVector(
        3,
        [
            from_log_int(9),
            from_log_int(9),
            from_log_int(6),
            table2_pair_entropy(),
            from_log_int(54),
            from_log_int(54),
            from_log_int(216),
        ],
    )


def candidate_vector() -> EntropyVector:
    return EntropyVector(3, [from_log_int(m) for m in (9, 9, 6, 54, 54, 54, 216)])


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
    return LogLinear.from_log_rational(num, den) if num >= den else LogLinear.zero()


def random_loglinear(rng: random.Random, primes=(2, 3, 5, 7)) -> LogLinear:
    terms = {}
    for p in primes:
        if rng.random() < 0.6:
            terms[p] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return LogLinear(terms)
