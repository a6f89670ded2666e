import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocone.logexact import (
    LogLinear,
    Sign,
    from_log_int,
    from_log_rational,
)

from conftest import table2_pair_entropy, random_loglinear, seeded_rng


fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
terms_st = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), fractions_st, max_size=4)
loglinear_st = terms_st.map(LogLinear)


def as_float(v: LogLinear) -> float:
    return sum(float(q) * math.log(p) for p, q in v.terms.items())


class TestConstruction:
    def test_factorization(self):
        assert from_log_int(48).terms == {2: Fraction(4), 3: Fraction(1)}
        assert from_log_int(216).terms == {2: Fraction(3), 3: Fraction(3)}
        assert from_log_int(1) == LogLinear.zero()

    def test_rational(self):
        assert from_log_rational(4, 3).terms == {2: Fraction(2), 3: Fraction(-1)}
        assert from_log_rational(3, 2).terms == {3: Fraction(1), 2: Fraction(-1)}
        assert from_log_rational(6, 6) == LogLinear.zero()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            from_log_int(0)
        with pytest.raises(ValueError):
            from_log_int(-5)
        with pytest.raises(ValueError):
            from_log_rational(0, 3)
        with pytest.raises(ValueError):
            from_log_rational(3, 0)

    def test_rejects_composite_keys(self):
        with pytest.raises(ValueError):
            LogLinear({4: Fraction(1)})
        with pytest.raises(ValueError):
            LogLinear({1: Fraction(1)})

    def test_large_factors_split_without_trial_division(self):
        # 10**18 + 3 is prime; trial division up to its root would run for hours
        assert from_log_int(10**18 + 3).terms == {10**18 + 3: Fraction(1)}
        p, q = 2**31 - 1, 2**32 - 5
        assert from_log_int(12 * p * q).terms == {2: 2, 3: 1, p: 1, q: 1}
        assert LogLinear({2**61 - 1: 1}).terms == {2**61 - 1: Fraction(1)}
        with pytest.raises(ValueError):
            LogLinear({(2**31 - 1) * (2**32 - 5): 1})

    def test_factorization_cap_is_value_error(self):
        mersenne89 = 2**89 - 1  # prime, above the 2**64 cap
        with pytest.raises(ValueError, match="too large"):
            from_log_int(3 * mersenne89)
        with pytest.raises(ValueError, match="too large"):
            LogLinear({mersenne89: 1})
        # small prime factors are divided out before the cap applies
        assert from_log_int(2**100 * 3**5).terms == {2: 100, 3: 5}

    def test_canonicalization_drops_zeros(self):
        assert LogLinear({2: Fraction(0), 3: Fraction(1)}).terms == {3: Fraction(1)}

    def test_immutable(self):
        v = from_log_int(6)
        with pytest.raises(AttributeError):
            v.terms = {}
        d = v.terms
        d[2] = Fraction(99)
        assert v.terms == {2: Fraction(1), 3: Fraction(1)}


class TestArithmetic:
    def test_add(self):
        assert from_log_int(2) + from_log_int(3) == from_log_int(6)

    def test_scale(self):
        assert from_log_int(54).scale(Fraction(1, 2)).terms == {
            2: Fraction(1, 2),
            3: Fraction(3, 2),
        }

    def test_additive_inverse(self):
        v = from_log_rational(10, 7)
        assert v + v.scale(-1) == LogLinear.zero()

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
        if a == LogLinear.zero():
            assert abs(as_float(a)) < 1e-9


class TestSign:
    def test_examples(self):
        assert (from_log_rational(9, 4) - from_log_int(3)).sign() == Sign.NEGATIVE
        assert LogLinear.zero().sign() == Sign.ZERO
        assert from_log_int(2).sign() == Sign.POSITIVE

    def test_comparison_operators(self):
        assert from_log_int(2) < from_log_int(3)
        assert from_log_rational(9, 4) <= from_log_int(3)
        assert from_log_int(8) > from_log_rational(15, 2)
        assert from_log_int(4) >= from_log_int(4)

    def test_tiny_differences_resolved(self):
        # 24727/15601 is a convergent of log2(3): the two values agree to
        # about 4e-6, far beyond what one interval pass at low precision sees
        diff = from_log_int(2).scale(24727) - from_log_int(3).scale(15601)
        x = 24727 * math.log(2) - 15601 * math.log(3)
        assert abs(x) < 1e-4
        assert diff.sign() == (Sign.POSITIVE if x > 0 else Sign.NEGATIVE)

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
        assert (from_log_int(4) + from_log_int(3)).as_log_natural() == 12
        assert from_log_rational(4, 3).as_log_natural() is None
        assert LogLinear.zero().as_log_natural() == 1

    def test_round_trip_small_range(self):
        for m in range(1, 10_001):
            assert from_log_int(m).as_log_natural() == m

    def test_fraction_view(self):
        assert from_log_rational(9, 4).as_log_fraction() == Fraction(9, 4)
        assert table2_pair_entropy().as_log_fraction() is None


class TestPow2Ceil:
    def test_rational_cases(self):
        assert from_log_rational(4, 3).pow2_ceil() == 2
        assert from_log_int(4).pow2_ceil() == 4
        assert LogLinear.zero().pow2_ceil() == 1

    def test_irrational_case(self):
        v = table2_pair_entropy() - from_log_int(36)
        assert v.pow2_ceil() == 3

    def test_exact_integers_up_to_1000(self):
        for m in range(1, 1001):
            assert from_log_int(m).pow2_ceil() == m

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            from_log_rational(1, 2).pow2_ceil()


class TestApprox:
    def test_displays(self):
        ln2 = from_log_int(2)
        assert ln2.approx_ln(4) == "0.6931"
        assert ln2.approx_bits(4) == "1.0000"
        assert LogLinear.zero().approx_ln(4) == "0.0000"
        assert LogLinear.zero().approx_bits(4) == "0.0000"

    def test_irrational_antilog_display(self):
        z = table2_pair_entropy()
        assert z.approx_exp(6) == "73.109157"
        # 4-digit rendering rounds up to 73.1092, within a half-ulp of the
        # truncated reference display 73.1091
        assert abs(Fraction(z.approx_exp(4)) - Fraction("73.1091")) <= Fraction(1, 10_000)

    def test_negative_value_display(self):
        v = from_log_rational(1, 2)
        assert v.approx_bits(4) == "-1.0000"
        assert v.approx_exp(4) == "0.5000"

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            from_log_int(2).approx_ln(0)

    @given(loglinear_st)
    @settings(max_examples=40, deadline=None)
    def test_matches_float_rendering(self, v):
        shown = float(v.approx_ln(6))
        assert abs(shown - as_float(v)) < 1e-5


class TestJson:
    def test_round_trip(self):
        v = LogLinear({2: Fraction(3, 1), 3: Fraction(-1, 2)})
        blob = v.to_json()
        assert blob["log_terms"] == {"2": "3/1", "3": "-1/2"}
        assert LogLinear.from_json(blob) == v

    def test_bits_advisory_field(self):
        blob = (from_log_int(16) + from_log_rational(9, 8)).to_json()
        assert blob["bits_approx"] == "4.1699"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            LogLinear.from_json({"log_terms": {"four": "1/1"}})
        with pytest.raises(ValueError):
            LogLinear.from_json({"terms": {}})
