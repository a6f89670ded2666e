import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocone.distributions import (
    EntropyVector,
    JointPMF,
    PMFFormatError,
    entropy,
    entropy_vector,
    is_quasi_uniform,
    marginalize,
    parse_pmf,
    serialize_pmf,
)
from entrocone.logexact import LogLinear
from entrocone.polycone import in_gamma_n

from conftest import (
    f_vector,
    fixture_text,
    g_vector,
    independent_product,
    permute_variables,
    permute_vector,
    seeded_rng,
    table2_pair_entropy,
)


def uniform_on(support, sizes):
    p = Fraction(1, len(support))
    return JointPMF(sizes, {tuple(x): p for x in support})


def small_random_pmf(rng, n=2, max_size=3):
    sizes = [rng.randrange(1, max_size + 1) for _ in range(n)]
    cells = [tuple(rng.randrange(s) for s in sizes)]
    for cell in itertools.product(*[range(s) for s in sizes]):
        if rng.random() < 0.5 and cell not in cells:
            cells.append(cell)
    weights = [rng.randrange(1, 6) for _ in cells]
    total = sum(weights)
    return JointPMF(sizes, {c: Fraction(w, total) for c, w in zip(cells, weights)})


class TestJointPMF:
    def test_validation(self):
        with pytest.raises(PMFFormatError):
            JointPMF([2], {(0,): Fraction(1, 2)})  # mass deficit
        with pytest.raises(PMFFormatError):
            JointPMF([2], {(0,): Fraction(1, 2), (2,): Fraction(1, 2)})  # range
        with pytest.raises(PMFFormatError):
            JointPMF([2], {(0, 0): Fraction(1)})  # arity
        with pytest.raises(PMFFormatError):
            JointPMF([2], {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})  # sign

    @pytest.mark.parametrize("sizes, point", [
        ([2.7, 2], (0, 0)),
        ([2.0, 2], (0, 0)),
        ([2, 2], (0.9, 0)),
        ([2, 2], (0.0, 0)),
    ])
    def test_rejects_float_size_or_coordinate(self, sizes, point):
        # int() would truncate each float to a valid size or coordinate
        with pytest.raises(PMFFormatError, match="must be integers"):
            JointPMF(sizes, {point: Fraction(1)})

    def test_common_denominator(self, table1_pmf):
        assert table1_pmf.common_denominator == 48
        assert set(table1_pmf.integer_counts.values()) == {1}

    def test_mass_sum_over_mixed_denominators(self):
        # masses w_x / (d_x * S) with S = sum of w_x / d_x sum to 1 over
        # denominators of mixed size; moving one mass by 1/L, L their lcm,
        # misses 1 by the smallest step the masses can express
        rng = seeded_rng("pmf-mass-sum")
        for _ in range(200):
            sizes = [rng.randrange(1, 5) for _ in range(3)]
            cells = list(itertools.product(*map(range, sizes)))
            support = rng.sample(cells, rng.randrange(1, len(cells) + 1))
            weights = [Fraction(rng.randrange(1, 9), rng.randrange(1, 13)) for _ in support]
            total = sum(weights)
            mass = {x: w / total for x, w in zip(support, weights)}
            pmf = JointPMF(sizes, mass)
            lcm = math.lcm(*(p.denominator for p in mass.values()))
            assert pmf.common_denominator == lcm
            assert sum(pmf.integer_counts.values()) == lcm
            assert all(Fraction(a, lcm) == mass[x] for x, a in pmf.integer_counts.items())
            x = rng.choice(support)
            for step in (Fraction(1, lcm), Fraction(-1, lcm)):
                if mass[x] + step > 0:
                    off = {**mass, x: mass[x] + step}
                    with pytest.raises(PMFFormatError, match=re.escape(f"mass sum != 1 (got {sum(off.values())})")):
                        JointPMF(sizes, off)
            for bad in (Fraction(0), -mass[x]):
                with pytest.raises(PMFFormatError, match=re.escape(f"mass of {x} must be strictly positive")):
                    JointPMF(sizes, {**mass, x: bad})


class TestMarginalization:
    def test_table1_pairs_uniform(self, table1_pmf):
        m = marginalize(table1_pmf, [1, 2])
        assert len(m.mass) == 16
        assert set(m.mass.values()) == {Fraction(1, 16)}

    def test_table2_pair_13_uniform(self, table2_pmf):
        m = marginalize(table2_pmf, [1, 3])
        assert len(m.mass) == 54
        assert set(m.mass.values()) == {Fraction(1, 54)}

    def test_table2_pair_12_profile(self, table2_pmf):
        m = marginalize(table2_pmf, [1, 2])
        theta = Fraction(1, 216)
        profile = {}
        for p in m.mass.values():
            profile[p / theta] = profile.get(p / theta, 0) + 1
        assert profile == {1: 18, 2: 18, 3: 18, 4: 27}

    def test_rejects_empty_subset(self, table1_pmf):
        with pytest.raises(PMFFormatError):
            marginalize(table1_pmf, [])

    def test_marginal_entropy_matches_vector_coordinate(self, table2_pmf):
        ev = entropy_vector(table2_pmf)
        for alpha in ([1], [2, 3], [1, 2], [1, 2, 3]):
            assert entropy(marginalize(table2_pmf, alpha)) == ev.coord(alpha)


class TestEntropy:
    def test_uniform_support(self):
        pmf = uniform_on([(i,) for i in range(48)], [48])
        assert entropy(pmf) == LogLinear.from_log_int(48)

    def test_point_mass(self):
        pmf = JointPMF([3], {(1,): Fraction(1)})
        assert entropy(pmf) == LogLinear()

    def test_table2_pair_entropy_is_table2_pair_entropy(self, table2_pmf):
        h12 = entropy(marginalize(table2_pmf, [1, 2]))
        assert h12 == table2_pair_entropy()
        # independent numeric cross-check of the exact path
        import math

        counts = [1] * 18 + [2] * 18 + [3] * 18 + [4] * 27
        numeric = -sum(c / 216 * math.log2(c / 216) for c in counts)
        assert abs(numeric - float(h12.approx_bits(9))) < 1e-9
        assert abs(2 ** numeric - 73.1091) < 1e-3

    def test_two_independent_bits(self):
        pmf = uniform_on([(a, b) for a in range(2) for b in range(2)], [2, 2])
        ev = entropy_vector(pmf)
        assert list(ev.coords) == [LogLinear.from_log_int(2), LogLinear.from_log_int(2), LogLinear.from_log_int(4)]

    def test_builds_one_value_per_distinct_count_plus_two(self, table1_pmf, table2_pmf, count_values):
        for pmf in (table1_pmf, table2_pmf, marginalize(table2_pmf, [1, 2])):
            distinct = len(set(pmf.integer_counts.values()))
            assert count_values(lambda: entropy(pmf)) <= distinct + 2


class TestEntropyVector:
    def test_table1_is_f(self, table1_pmf):
        assert list(entropy_vector(table1_pmf).coords) == list(f_vector().coords)

    def test_table2_is_g(self, table2_pmf):
        assert entropy_vector(table2_pmf) == g_vector()

    def test_additivity_on_products(self):
        rng = seeded_rng("product")
        for _ in range(25):
            p = small_random_pmf(rng)
            q = small_random_pmf(rng)
            combined = entropy_vector(independent_product(p, q))
            assert combined == entropy_vector(p) + entropy_vector(q)

    def test_permutation_action(self, table2_pmf):
        perm = {1: 2, 2: 3, 3: 1}
        direct = entropy_vector(permute_variables(table2_pmf, perm))
        assert direct == permute_vector(entropy_vector(table2_pmf), perm)

    def test_outputs_are_polymatroidal(self):
        rng = seeded_rng("gamma")
        for _ in range(10):
            p = small_random_pmf(rng, n=3, max_size=3)
            assert in_gamma_n(entropy_vector(p)).in_cone


class TestQuasiUniform:
    def test_table1(self, table1_pmf):
        v = is_quasi_uniform(table1_pmf)
        assert v.is_qu
        sizes = {tuple(sorted(a)): m for a, m in v.support_sizes.items()}
        assert sizes == {
            (1,): 4, (2,): 4, (3,): 4,
            (1, 2): 16, (1, 3): 16, (2, 3): 16,
            (1, 2, 3): 48,
        }

    def test_table2(self, table2_pmf):
        v = is_quasi_uniform(table2_pmf)
        assert not v.is_qu
        assert v.witness.alpha == frozenset({1, 2})
        assert v.witness.mass_a != v.witness.mass_b
        # the witness points really do carry those masses in the marginal
        m12 = marginalize(table2_pmf, [1, 2])
        assert m12.mass[v.witness.point_a] == v.witness.mass_a
        assert m12.mass[v.witness.point_b] == v.witness.mass_b

    def test_product_uniform(self):
        pmf = uniform_on([(a, b) for a in range(2) for b in range(3)], [2, 3])
        assert is_quasi_uniform(pmf).is_qu

    def test_qu_coordinates_are_log_sizes(self, table1_pmf):
        v = is_quasi_uniform(table1_pmf)
        ev = entropy_vector(table1_pmf)
        for alpha, m in v.support_sizes.items():
            assert ev.coord(alpha) == LogLinear.from_log_int(m)


class TestFileFormat:
    def test_round_trip_fixtures(self, table1_pmf, table2_pmf):
        assert parse_pmf(serialize_pmf(table1_pmf)) == table1_pmf
        assert parse_pmf(serialize_pmf(table2_pmf)) == table2_pmf

    def test_round_trip_without_names(self):
        pmf = uniform_on([(0, 1), (1, 0)], [2, 2])
        assert parse_pmf(serialize_pmf(pmf)) == pmf

    def test_integer_symbols_accepted(self):
        pmf = parse_pmf("pmf n=2 sizes=2,2\n0 0 : 1/2\n1 1 : 1/2\n")
        assert pmf.mass == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_comments_and_blanks(self):
        text = "# heading\n\npmf n=1 sizes=2\n0 : 1/2  # inline\n1 : 1/2\n"
        assert len(parse_pmf(text).mass) == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("pmf n=two sizes=2", "malformed header"),
            ("pmf n=2 sizes=2", "header sizes"),
            ("pmf n=7 sizes=1,1,1,1,1,1,1", "outside the supported range"),
            ("pmf n=1 sizes=2\n5 : 1/2", "out of range"),
            ("pmf n=1 sizes=2\n0 : 1/3\n1 : 1/3", "mass sum != 1"),
            ("pmf n=1 sizes=2\n0 : 1/2\n0 : 1/2", "duplicate tuple"),
            ("pmf n=1 sizes=2\n0 : 0.5\n1 : 0.5", "decimal masses are rejected"),
            ("pmf n=1 sizes=2\nx : 1/2\n0 : 1/2", "unknown symbol"),
            ("pmf n=1 sizes=2\nnames 1=a,b\na b : 1/2", "expected 1 symbols"),
            ("", "missing 'pmf' header"),
            ("pmf n=1 sizes=1", "no support points"),
            ("pmf n=1 sizes=2\n0 : 1/2\n1 : 1/0", "line 3: mass '1/0' must be strictly positive, with a nonzero denominator"),
        ],
    )
    def test_diagnostics(self, text, fragment):
        with pytest.raises(PMFFormatError) as exc:
            parse_pmf(text)
        assert fragment in str(exc.value)

    def test_non_ascii_digits_rejected(self):
        # \d and int() also read "١" (Arabic-Indic one) as 1
        text = "pmf n=1 sizes=2\nnames 1=a,b\na : 1/2\nb : 1/2\n"
        assert len(parse_pmf(text).mass) == 2
        for old, new in [("n=1", "n=١"), ("names 1", "names ١"),
                         ("a : 1/2", "a : ١/2"), ("b : 1/2", "b : 1/٢")]:
            with pytest.raises(PMFFormatError):
                parse_pmf(text.replace(old, new))

    def test_named_symbols_match_indices(self):
        # names lines map each letter to its index: the fixture, and the same
        # text with its names lines dropped and every letter replaced by its
        # index, parse to equal PMFs
        text = fixture_text("table1.pmf")
        assert "names 1=a,b,c,d" in text
        lines = []
        for line in text.splitlines():
            if line.startswith("names"):
                continue
            if ":" in line and not line.startswith("#"):
                symbols, _, mass = line.partition(":")
                line = " ".join(str("abcd".index(s)) for s in symbols.split()) + " :" + mass
            lines.append(line)
        indexed = "\n".join(lines)
        assert "names" not in indexed and "a a a" not in indexed
        assert parse_pmf(indexed) == parse_pmf(text)
        assert len(parse_pmf(indexed).mass) == 48


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=10, deadline=None)
def test_uniform_entropy_is_log_size(k):
    pmf = uniform_on([(i,) for i in range(k)], [k])
    assert entropy(pmf) == LogLinear.from_log_int(k)
