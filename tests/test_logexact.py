import decimal
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocone import logexact
from entrocone.logexact import (
    _ANTILOG_BITS_CAP,
    _PREC_START,
    LogLinear,
    PrecisionExhausted,
    Sign,
    dot,
)

from conftest import round_log3_2, table2_pair_entropy, random_loglinear, seeded_rng


fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
terms_st = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), fractions_st, max_size=4)
loglinear_st = terms_st.map(LogLinear)


def as_float(v: LogLinear) -> float:
    return sum(float(q) * math.log(p) for p, q in v.terms.items())


class TestConstruction:
    def test_factorization(self):
        assert LogLinear.from_log_int(48).terms == {2: Fraction(4), 3: Fraction(1)}
        assert LogLinear.from_log_int(216).terms == {2: Fraction(3), 3: Fraction(3)}
        assert LogLinear.from_log_int(1) == LogLinear()

    def test_rational(self):
        assert LogLinear.from_log_rational(4, 3).terms == {2: Fraction(2), 3: Fraction(-1)}
        assert LogLinear.from_log_rational(3, 2).terms == {3: Fraction(1), 2: Fraction(-1)}
        assert LogLinear.from_log_rational(6, 6) == LogLinear()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LogLinear.from_log_int(0)
        with pytest.raises(ValueError):
            LogLinear.from_log_int(-5)
        with pytest.raises(ValueError):
            LogLinear.from_log_rational(0, 3)
        with pytest.raises(ValueError):
            LogLinear.from_log_rational(3, 0)

    def test_rejects_composite_keys(self):
        with pytest.raises(ValueError):
            LogLinear({4: Fraction(1)})
        with pytest.raises(ValueError):
            LogLinear({1: Fraction(1)})

    def test_large_factors_split_without_trial_division(self):
        # 10**18 + 3 is prime; trial division up to its root would run for hours
        assert LogLinear.from_log_int(10**18 + 3).terms == {10**18 + 3: Fraction(1)}
        p, q = 2**31 - 1, 2**32 - 5
        assert LogLinear.from_log_int(12 * p * q).terms == {2: 2, 3: 1, p: 1, q: 1}
        assert LogLinear({2**61 - 1: 1}).terms == {2**61 - 1: Fraction(1)}
        with pytest.raises(ValueError):
            LogLinear({(2**31 - 1) * (2**32 - 5): 1})

    def test_factorization_cap_is_value_error(self):
        mersenne89 = 2**89 - 1  # prime, above the 2**64 cap
        with pytest.raises(ValueError, match="too large"):
            LogLinear.from_log_int(3 * mersenne89)
        with pytest.raises(ValueError, match="too large"):
            LogLinear({mersenne89: 1})
        # small prime factors are divided out before the cap applies
        assert LogLinear.from_log_int(2**100 * 3**5).terms == {2: 100, 3: 5}

    @pytest.mark.parametrize("key", [2.9, 2.0, "2"])
    def test_rejects_key_that_is_not_an_int(self, key):
        # int() would read each of these as the prime 2
        with pytest.raises((TypeError, ValueError)):
            LogLinear({key: 1})

    @pytest.mark.parametrize("coeff", ["1e200000000", "0.5", " 1/2", "١"])
    def test_rejects_coefficient_string_that_is_not_num_den(self, coeff):
        # Fraction would read "1e200000000" as a 200-million-digit integer
        with pytest.raises(ValueError, match="must be an integer or 'num/den'"):
            LogLinear({2: coeff})
        with pytest.raises(ValueError, match="must be an integer or 'num/den'"):
            dot([coeff], [LogLinear({3: 1})])

    def test_canonicalization_drops_zeros(self):
        assert LogLinear({2: Fraction(0), 3: Fraction(1)}).terms == {3: Fraction(1)}

    def test_immutable(self):
        v = LogLinear.from_log_int(6)
        with pytest.raises(AttributeError):
            v.terms = {}
        d = v.terms
        d[2] = Fraction(99)
        assert v.terms == {2: Fraction(1), 3: Fraction(1)}


class TestArithmetic:
    def test_add(self):
        assert LogLinear.from_log_int(2) + LogLinear.from_log_int(3) == LogLinear.from_log_int(6)

    def test_scale(self):
        assert LogLinear.from_log_int(54).scale(Fraction(1, 2)).terms == {
            2: Fraction(1, 2),
            3: Fraction(3, 2),
        }

    def test_additive_inverse(self):
        v = LogLinear.from_log_rational(10, 7)
        assert v + v.scale(-1) == LogLinear()

    @given(loglinear_st, loglinear_st, loglinear_st)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(loglinear_st, loglinear_st, fractions_st)
    def test_distributivity(self, a, b, q):
        assert (a + b).scale(q) == a.scale(q) + b.scale(q)

    @given(loglinear_st, fractions_st, fractions_st)
    def test_scale_composes(self, a, p, q):
        assert a.scale(p).scale(q) == a.scale(p * q)

    @given(loglinear_st)
    def test_float_agreement_of_equality(self, a):
        # structural equality with zero is consistent with the float value
        if a == LogLinear():
            assert abs(as_float(a)) < 1e-9


def combination_oracle(coeffs, values) -> dict:
    """``sum_i c_i * v_i`` as a prime-to-coefficient dict, prime by prime."""
    coeffs = [Fraction(c) for c in coeffs]
    primes = {p for v in values for p in v.terms}
    sums = {p: sum((c * v.terms.get(p, 0) for c, v in zip(coeffs, values)), Fraction(0)) for p in primes}
    return {p: q for p, q in sums.items() if q != 0}


class TestDot:
    def test_operations_match_coefficient_oracle(self):
        rng = seeded_rng("dot-oracle")
        for _ in range(300):
            vs = [random_loglinear(rng, primes=(2, 3, 5, 7, 11)) for _ in range(rng.randrange(1, 8))]
            cs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in vs]
            a, b, q = vs[0], vs[-1], cs[0]
            assert dot(cs, vs).terms == combination_oracle(cs, vs)
            assert (a + b).terms == combination_oracle([1, 1], [a, b])
            assert (a - b).terms == combination_oracle([1, -1], [a, b])
            assert (-a).terms == combination_oracle([-1], [a])
            assert a.scale(q).terms == combination_oracle([q], [a])
            assert (q * a).terms == (a * q).terms == a.scale(q).terms
            # appending minus the combination cancels it exactly
            assert dot(cs + [-1], vs + [dot(cs, vs)]) == LogLinear()

    def test_exact_cancellation(self):
        a = LogLinear({2: Fraction(1, 3), 7: Fraction(-5, 2)})
        assert (a - a).terms == {}
        assert dot([Fraction(3, 4), Fraction(-1, 2)], [a.scale(2), a.scale(3)]).terms == {}
        assert dot(["1/2", 0], [a, a]).terms == {2: Fraction(1, 6), 7: Fraction(-5, 4)}
        assert dot([], []) == LogLinear()

    def test_each_operation_builds_one_value(self, count_values):
        a = LogLinear({2: Fraction(1, 2), 3: 1})
        b = LogLinear({3: -1, 5: 2})
        q = Fraction(2, 3)
        values = [LogLinear.from_log_int(m) for m in (2, 3, 5, 6, 10, 15, 30)]
        ops = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "neg": lambda: -a,
            "scale": lambda: a.scale(q),
            "rmul": lambda: q * a,
            "dot7": lambda: dot(range(1, 8), values),
        }
        assert {name: count_values(op) for name, op in ops.items()} == dict.fromkeys(ops, 1)


class TestSign:
    def test_examples(self):
        assert (LogLinear.from_log_rational(9, 4) - LogLinear.from_log_int(3)).sign() == Sign.NEGATIVE
        assert LogLinear().sign() == Sign.ZERO
        assert LogLinear.from_log_int(2).sign() == Sign.POSITIVE

    def test_comparison_operators(self):
        assert LogLinear.from_log_int(2) < LogLinear.from_log_int(3)
        assert LogLinear.from_log_rational(9, 4) <= LogLinear.from_log_int(3)
        assert LogLinear.from_log_int(8) > LogLinear.from_log_rational(15, 2)
        assert LogLinear.from_log_int(4) >= LogLinear.from_log_int(4)

    def test_tiny_differences_resolved(self):
        # 24727/15601 is a convergent of log2(3): the two values agree to
        # about 4e-6, far beyond what one interval pass at low precision sees
        diff = LogLinear.from_log_int(2).scale(24727) - LogLinear.from_log_int(3).scale(15601)
        x = 24727 * math.log(2) - 15601 * math.log(3)
        assert abs(x) < 1e-4
        assert diff.sign() == (Sign.POSITIVE if x > 0 else Sign.NEGATIVE)

    def test_precision_cap_is_reached(self, monkeypatch):
        # with b = round(2**90 * log_3 2), 2**90 * ln 2 - b * ln 3 is at most
        # ln 3 / 2 in size, and a 64-bit enclosure of 2**90 * ln 2 alone is
        # wider than that, so only a higher precision settles the sign
        b = round_log3_2(2**90)
        v = LogLinear({2: 2**90, 3: -b})
        assert v.sign() == Sign.NEGATIVE and 2**90 < b * LOG2_3
        monkeypatch.setattr(logexact, "_PREC_CAP", 64)
        with pytest.raises(PrecisionExhausted, match="sign of .* unresolved at 64 bits"):
            v.sign()

    def test_sign_matches_float_on_random_values(self):
        rng = seeded_rng("sign")
        checked = 0
        while checked < 1000:
            v = random_loglinear(rng)
            x = as_float(v)
            if abs(x) <= 1e-6:
                continue
            checked += 1
            assert v.sign() == (Sign.POSITIVE if x > 0 else Sign.NEGATIVE)


class TestNaturality:
    def test_examples(self):
        assert (LogLinear.from_log_int(4) + LogLinear.from_log_int(3)).as_log_natural() == 12
        assert LogLinear.from_log_rational(4, 3).as_log_natural() is None
        assert LogLinear().as_log_natural() == 1

    def test_round_trip_small_range(self):
        for m in range(1, 10_001):
            assert LogLinear.from_log_int(m).as_log_natural() == m

    def test_fraction_view(self):
        assert LogLinear.from_log_rational(9, 4).as_log_fraction() == Fraction(9, 4)
        assert table2_pair_entropy().as_log_fraction() is None


class TestPow2Ceil:
    def test_rational_cases(self):
        assert LogLinear.from_log_rational(4, 3).pow2_ceil() == 2
        assert LogLinear.from_log_int(4).pow2_ceil() == 4
        assert LogLinear().pow2_ceil() == 1

    def test_irrational_case(self):
        v = table2_pair_entropy() - LogLinear.from_log_int(36)
        assert v.pow2_ceil() == 3

    def test_exact_integers_up_to_1000(self):
        for m in range(1, 1001):
            assert LogLinear.from_log_int(m).pow2_ceil() == m

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LogLinear.from_log_rational(1, 2).pow2_ceil()


class TestApprox:
    def test_displays(self):
        assert LogLinear.from_log_int(2).approx_bits(4) == "1.0000"
        assert LogLinear.from_log_int(3).approx_bits(4) == "1.5850"
        assert LogLinear().approx_bits(4) == "0.0000"

    def test_irrational_antilog_display(self):
        z = table2_pair_entropy()
        assert z.approx_exp(6) == "73.109157"
        # 4-digit rendering rounds up to 73.1092, within a half-ulp of the
        # truncated reference display 73.1091
        assert abs(Fraction(z.approx_exp(4)) - Fraction("73.1091")) <= Fraction(1, 10_000)

    def test_negative_value_display(self):
        v = LogLinear.from_log_rational(1, 2)
        assert v.approx_bits(4) == "-1.0000"
        assert v.approx_exp(4) == "0.5000"

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            LogLinear.from_log_int(2).approx_bits(0)
        with pytest.raises(ValueError):
            LogLinear.from_log_int(2).approx_exp(0)

    @given(loglinear_st)
    @settings(max_examples=40, deadline=None)
    def test_matches_float_rendering(self, v):
        shown = float(v.approx_bits(6))
        assert abs(shown - as_float(v) / math.log(2)) < 1e-5


class TestJson:
    def test_round_trip(self):
        v = LogLinear({2: Fraction(3, 1), 3: Fraction(-1, 2)})
        blob = v.to_json()
        assert blob["log_terms"] == {"2": "3/1", "3": "-1/2"}
        assert LogLinear.from_json(blob) == v

    def test_bits_advisory_field(self):
        blob = (LogLinear.from_log_int(16) + LogLinear.from_log_rational(9, 8)).to_json()
        assert blob["bits_approx"] == "4.1699"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            LogLinear.from_json({"log_terms": {"four": "1/1"}})
        with pytest.raises(ValueError):
            LogLinear.from_json({"terms": {}})

    def test_integer_coefficients_are_exact(self):
        assert LogLinear.from_json({"log_terms": {"2": 3, "3": "-1/2"}}) == LogLinear({2: 3, 3: Fraction(-1, 2)})

    @pytest.mark.parametrize(
        "terms, fragment",
        [
            ({"2": 0.1}, "must be a 'num/den' string or an integer"),  # would read as 3602879701896397/2**55
            ({"2": 1.0}, "must be a 'num/den' string or an integer"),
            ({"2": True}, "must be a 'num/den' string or an integer"),
            ({"2": "1/0"}, "zero denominator"),
            (["2"], "must be an object"),
            ({"2": "1/1", "02": "5/1"}, "prime 2 is named twice"),
            ({"2": "1e5"}, "must be a 'num/den' string or an integer"),  # Fraction would expand the exponent
            ({"2": "0.5"}, "must be a 'num/den' string or an integer"),
            ({"1_1": "1/1"}, "not written in ASCII digits"),  # int() reads it as 11
            ({" 3 ": "1/1"}, "not written in ASCII digits"),
            ({"+5": "1/1"}, "not written in ASCII digits"),
            ({"\u0663": "1/1"}, "not written in ASCII digits"),  # Arabic-Indic three
            ({"": "1/1"}, "not written in ASCII digits"),
            ({"2": f"1/{2**1024}"}, r"denominator of 2\*\*1024 or more"),
            ({"2": f"-{2**1024}"}, r"numerator or denominator of 2\*\*1024"),
            ({"2": 2**1024}, r"numerator or denominator of 2\*\*1024"),
        ],
    )
    def test_rejects_inexact_or_ambiguous_terms(self, terms, fragment):
        with pytest.raises(ValueError, match=fragment):
            LogLinear.from_json({"log_terms": terms})

    def test_coefficients_below_the_bound_are_read(self):
        big = 2**1024 - 1
        terms = {"2": f"-{big}/{big - 2}", "3": big, "05": "1/1"}
        assert LogLinear.from_json({"log_terms": terms}) == LogLinear({2: Fraction(-big, big - 2), 3: big, 5: 1})
        # the bound is on the reduced fraction
        assert LogLinear.from_json({"log_terms": {"2": f"{2**1024}/{2**1024}"}}) == LogLinear({2: 1})


# log2(3) to 100 decimals, recorded once with mpmath 1.3.0 at mp.dps = 200
# (mpmath.nstr(mpmath.log(3, 2), 101)); mpmath at dps = 120 prints the same
# digits.  TestExactOracles checks it against exact powers of 2 and 3.
LOG2_3 = Fraction(
    "1.58496250072115618145373894394781650875981440769248"
    "10604557526545410982277943585625222804749180882421"
)
LOG2_3_ERROR = Fraction(1, 10**100)


def _antilog_power(v: LogLinear) -> tuple[int, int, int]:
    """(d, num, den) with antilog(v) ** d == num / den exactly, d being the
    common denominator of the coefficients."""
    d = math.lcm(*(q.denominator for q in v.terms.values()))
    exps = {p: int(q * d) for p, q in v.terms.items()}
    num = math.prod(p**e for p, e in exps.items() if e > 0)
    den = math.prod(p**-e for p, e in exps.items() if e < 0)
    return d, num, den


def sign_oracle(v: LogLinear) -> Sign:
    _, num, den = _antilog_power(v)
    return Sign((num > den) - (num < den))


def ceil_root_oracle(v: LogLinear) -> int:
    """Smallest integer c >= 1 with c ** d >= num / den, by bisection."""
    d, num, den = _antilog_power(v)
    lo, hi = 1, 1
    while hi**d * den < num:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d * den >= num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def log2_3_convergents(max_den: int) -> list[tuple[int, int]]:
    h0, h1, k0, k1 = 0, 1, 1, 0
    x, out = LOG2_3, []
    while True:
        q = math.floor(x)
        h0, h1, k0, k1 = h1, q * h1 + h0, k1, q * k1 + k0
        if k1 > max_den:
            return out
        out.append((h1, k1))
        x = 1 / (x - q)


# approx_bits(4) and approx_exp(4) of the first 50 nonzero values
# of random_loglinear(seeded_rng("approx-pins")), recorded with the
# interval-arithmetic implementation these renderers replaced.
APPROX_PINS = [
    ("9.1542", "569.7374"), ("15.5329", "47411.3058"), ("8.9602", "498.0722"),
    ("6.9658", "125.0000"), ("-9.3776", "0.0015"), ("-1.0963", "0.4677"),
    ("-5.1293", "0.0286"), ("9.0000", "512.0000"), ("1.8133", "3.5144"),
    ("-4.0428", "0.0607"), ("-18.6062", "0.0000"), ("15.1562", "36515.0806"),
    ("4.7877", "27.6214"), ("1.6667", "3.1748"), ("-0.9380", "0.5220"),
    ("-1.1496", "0.4508"), ("12.6331", "6352.4489"), ("-3.1145", "0.1155"),
    ("-6.1001", "0.0146"), ("-12.8699", "0.0001"), ("6.3923", "84.0000"),
    ("18.2740", "316981.8485"), ("-3.7663", "0.0735"), ("0.8656", "1.8222"),
    ("-0.9709", "0.5102"), ("-1.6611", "0.3162"), ("-0.2697", "0.8295"),
    ("13.9270", "15575.0834"), ("-5.0049", "0.0311"), ("-1.0000", "0.5000"),
    ("3.0574", "8.3244"), ("7.2348", "150.6231"), ("-2.6416", "0.1602"),
    ("-17.5300", "0.0000"), ("-4.1912", "0.0547"), ("5.7639", "54.3401"),
    ("0.2164", "1.1618"), ("-24.2372", "0.0000"), ("5.8736", "58.6294"),
    ("14.0368", "16807.0000"), ("-17.0342", "0.0000"), ("-1.1887", "0.4387"),
    ("-18.7714", "0.0000"), ("6.1197", "69.5352"), ("1.3333", "2.5198"),
    ("-8.2294", "0.0033"), ("10.8390", "1831.8023"), ("1.8554", "3.6185"),
    ("21.5435", "3056610.6819"), ("-19.5508", "0.0000"),
]


class TestExactOracles:
    def test_sign_against_integer_powers(self):
        rng = seeded_rng("sign-oracle")
        for _ in range(500):
            v = random_loglinear(rng, primes=(2, 3, 5, 7, 11, 13))
            assert v.sign() == sign_oracle(v)

    def test_pow2_ceil_against_integer_roots(self):
        rng = seeded_rng("ceil-oracle")
        for _ in range(300):
            v = random_loglinear(rng)
            if v.sign() == Sign.NEGATIVE:
                v = -v
            assert v.pow2_ceil() == ceil_root_oracle(v)

    def test_log2_3_convergents(self):
        convergents = log2_3_convergents(190537)
        assert convergents[-1] == (301994, 190537)
        for a, b in convergents:
            exact = Sign((2**a > 3**b) - (2**a < 3**b))
            # the recorded constant orders every convergent correctly ...
            assert exact == Sign((a > b * LOG2_3) - (a < b * LOG2_3))
            # ... and so does the enclosure, however close a/b is
            assert LogLinear({2: a, 3: -b}).sign() == exact

    @pytest.mark.parametrize("e", [20, 40, 60])
    def test_precision_doubling(self, e):
        b = 10**e
        a = round(b * LOG2_3)
        gap = a - b * LOG2_3  # a*ln2 - b*ln3 = ln2 * (a - b*log2 3)
        assert abs(gap) > b * LOG2_3_ERROR
        v = LogLinear({2: a, 3: -b})
        if e > 20:  # the first pass straddles zero, so refinement must run
            lo, hi = v._enclosure(_PREC_START)
            assert lo < 0 < hi
        assert v.sign() == (Sign.POSITIVE if gap > 0 else Sign.NEGATIVE)

    def test_callers_decimal_context_is_ignored(self):
        values = [LogLinear({2: 1054, 3: -665}), table2_pair_entropy()]
        expected = [(v.sign(), v.approx_bits(6), v.approx_exp(6)) for v in values]
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding, ctx.Emax = 3, decimal.ROUND_UP, 10
            ctx.traps[decimal.Inexact] = True
            assert [(v.sign(), v.approx_bits(6), v.approx_exp(6)) for v in values] == expected

    def test_displays_pinned(self):
        rng = seeded_rng("approx-pins")
        shown = []
        while len(shown) < len(APPROX_PINS):
            v = random_loglinear(rng)
            if v:
                shown.append((v.approx_bits(4), v.approx_exp(4)))
        assert shown == APPROX_PINS


class TestAntilogCap:
    def test_cap_boundary(self):
        m = LogLinear({2: _ANTILOG_BITS_CAP}).as_log_natural()
        assert m == 2**_ANTILOG_BITS_CAP
        assert len(str(m)) < 4300
        with pytest.raises(ValueError, match="antilog"):
            LogLinear({2: _ANTILOG_BITS_CAP + 1}).as_log_natural()
        with pytest.raises(ValueError, match="antilog"):
            LogLinear({3: -9000}).as_log_fraction()

    def test_ceiling_near_one_with_large_coefficients(self):
        # the exact power is far past the cap, the magnitude (about 2.6e-5
        # bits) is not, and the antilog is no integer
        lam = LogLinear({2: 24727, 3: -15601})
        assert lam.pow2_ceil() == ceil_root_oracle(lam) == 2

    def test_display_near_one_with_large_coefficients(self):
        # the same value: its antilog lies in (1.0000175, 1.0000185), checked
        # on integers, and its display comes from the enclosure
        assert 10_000_175 * 3**15601 < 10**7 * 2**24727 < 10_000_185 * 3**15601
        assert LogLinear({2: 24727, 3: -15601}).approx_exp(6) == "1.000018"

    def test_rational_ceiling_near_the_cap_is_exact(self):
        # 2**13990 / 3 is within the exact-power cap; an enclosure fine
        # enough to separate it from its ceiling needs about 2**14 bits
        start = time.monotonic()
        assert LogLinear({2: 13990, 3: -1}).pow2_ceil() == -(-(2**13990) // 3)
        assert time.monotonic() - start < 1

    def test_integrality_is_decided_before_the_cap(self):
        huge = LogLinear({2: Fraction(10**12, 7)})
        assert huge.as_log_natural() is None
        assert huge.as_log_fraction() is None
        assert huge.sign() == Sign.POSITIVE

    @pytest.mark.parametrize(
        "v, method",
        [(LogLinear({2: 10**12, 3: 1}), m) for m in ("as_log_natural", "as_log_fraction", "pow2_ceil", "approx_exp")]
        + [(LogLinear({2: Fraction(10**12 + 1, 3)}), m) for m in ("pow2_ceil", "approx_exp")]
        # tiny antilogs: the exact-power cap and the magnitude cap
        + [(LogLinear({2: q}), "approx_exp") for q in (-(10**12), Fraction(-(10**12), 3))],
    )
    def test_huge_exponents_rejected(self, v, method):
        with pytest.raises(ValueError, match="antilog"):
            getattr(v, method)()


def clear_caches():
    for cache in (logexact._contexts, logexact._ln_bounds, logexact._is_prime):
        cache.cache_clear()


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestCaches:
    def test_cached_ln_ends_match_a_fresh_context(self):
        for prec in (64 << k for k in range(7)):
            digits = math.ceil(prec * math.log10(2)) + 2
            for p in primes_between(2, 100):
                near = decimal.Context(
                    prec=digits, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
                )
                ln = near.ln(p)
                assert logexact._ln_bounds(p, prec) == (near.next_minus(ln), near.next_plus(ln))

    def test_enclosures_unchanged_by_clearing_the_caches(self):
        rng = seeded_rng("cached-enclosures")
        values = [random_loglinear(rng, primes=(2, 3, 5, 7, 11, 13)) for _ in range(500)]
        warm = [v._enclosure(_PREC_START) for v in values]
        fresh = []
        for v in values:
            clear_caches()
            fresh.append(v._enclosure(_PREC_START))
        assert fresh == warm

    def test_caches_filled_under_a_hostile_context(self):
        b = round_log3_2(2**90)

        def answers():
            # the last value needs refinement past the first precision
            values = [LogLinear({2: 1054, 3: -665}), table2_pair_entropy()]
            return [(v.sign(), v.approx_bits(6), v.approx_exp(6)) for v in values] + [LogLinear({2: 2**90, 3: -b}).sign()]

        expected = answers()
        # with the caches empty, every context, ln p pair and primality test
        # is first computed inside the caller's context
        clear_caches()
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding, ctx.Emax = 3, decimal.ROUND_UP, 10
            ctx.traps[decimal.Inexact] = True
            assert answers() == expected

    def test_caches_stay_bounded(self):
        primes = primes_between(1009, 20_000)[:2000]
        assert len(primes) == 2000
        for p in primes:
            assert LogLinear({p: 1}).sign() == Sign.POSITIVE
        for cache in (logexact._ln_bounds, logexact._is_prime):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
        # refinement doubles 64 bits up to at most 2**16: 11 precisions
        assert LogLinear({2: 2**90, 3: -round_log3_2(2**90)}).sign() == Sign.NEGATIVE
        assert logexact._contexts.cache_info().currsize <= 11
        # a failed primality test is not cached: it raises every time
        for _ in range(2):
            with pytest.raises(ValueError, match="too large"):
                LogLinear({2**89 - 1: 1})
