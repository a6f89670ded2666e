from fractions import Fraction

import pytest

from entrocone.bounds import (
    OMEGA_FACE,
    THETA_FACE,
    face_12_123p_entropic,
    omega_in,
    ray123p_entropic,
    theta_in,
)
from entrocone.distributions import EntropyVector
from entrocone.logexact import LogLinear
from entrocone.polycone import Ray, combination, cone_membership, in_gamma_n
from entrocone.qusearch import qu_necessary

from conftest import (
    candidate_vector,
    f_vector,
    g_vector,
    table2_pair_entropy,
    random_nonneg_loglinear,
    seeded_rng,
)


class TestRayAndTwoDFaces:
    def test_ray_examples(self):
        assert ray123p_entropic(LogLinear.from_log_int(5))
        assert not ray123p_entropic(LogLinear.from_log_rational(4, 3))
        assert ray123p_entropic(LogLinear())

    def test_single_variable_face_examples(self):
        # on cone(e1, e123p) the apex ray's criterion decides alone: the
        # single-variable coefficient, here irrational, is unconstrained
        c = table2_pair_entropy()
        for lam123p, expect in ((LogLinear.from_log_int(3), True), (c - LogLinear.from_log_int(36), False), (LogLinear(), True)):
            cert = cone_membership(combination({Ray.R1: c, Ray.R123P: lam123p}), {Ray.R1, Ray.R123P})
            assert cert.coefficients == {Ray.R1: c, Ray.R123P: lam123p}
            assert ray123p_entropic(cert.coefficients[Ray.R123P]) is expect

    def test_pair_face_examples(self):
        c = table2_pair_entropy()
        lam12 = LogLinear.from_log_int(81) - c
        lam123p = c - LogLinear.from_log_int(36)
        assert not face_12_123p_entropic(lam12, lam123p)
        assert face_12_123p_entropic(LogLinear(), LogLinear.from_log_int(2))
        assert face_12_123p_entropic(LogLinear.from_log_int(2), LogLinear.from_log_rational(3, 2))

    def test_negative_inputs_rejected(self):
        neg = LogLinear.from_log_rational(1, 2)
        with pytest.raises(ValueError):
            ray123p_entropic(neg)
        with pytest.raises(ValueError):
            face_12_123p_entropic(neg, LogLinear())
        with pytest.raises(ValueError):
            face_12_123p_entropic(LogLinear(), neg)


class TestThetaIn:
    def test_f_rejected_with_exact_coefficient(self):
        verdict = theta_in(f_vector())
        assert not verdict.member
        assert verdict.decomposition is not None
        assert verdict.decomposition.coefficients[Ray.R123P] == LogLinear.from_log_rational(4, 3)
        (cond,) = verdict.conditions
        assert cond.name == "natural_123p" and not cond.holds

    def test_accepted_member(self):
        h = combination({Ray.R1: LogLinear.from_log_int(3), Ray.R123P: LogLinear.from_log_int(2)})
        verdict = theta_in(h)
        assert verdict.member
        assert verdict.conditions[0].values["natural"] == 2

    def test_zero_vector_accepted(self):
        zero = EntropyVector(3, [LogLinear()] * 7)
        verdict = theta_in(zero)
        assert verdict.member
        assert verdict.conditions[0].values["natural"] == 1

    def test_outside_face_gets_empty_verdict(self):
        verdict = theta_in(g_vector())
        assert not verdict.member
        assert verdict.decomposition is None
        assert verdict.conditions == ()

    def test_membership_depends_only_on_apex_coefficient(self):
        rng = seeded_rng("theta-scaling")
        for lam123p, expect in ((LogLinear.from_log_int(3), True), (LogLinear.from_log_rational(7, 2), False)):
            for _ in range(10):
                coeffs = {
                    Ray.R1: random_nonneg_loglinear(rng),
                    Ray.R2: random_nonneg_loglinear(rng),
                    Ray.R3: random_nonneg_loglinear(rng),
                    Ray.R123P: lam123p,
                }
                assert theta_in(combination(coeffs)).member is expect


class TestOmegaIn:
    def test_g_rejected_with_both_condition_values(self):
        verdict = omega_in(g_vector())
        assert not verdict.member
        ceiling, natural = verdict.conditions
        assert ceiling.name == "ceiling_12_123p" and not ceiling.holds
        assert ceiling.values["lhs"] == LogLinear.from_log_rational(9, 4)
        assert ceiling.values["rhs"] == LogLinear.from_log_int(3)
        assert ceiling.values["ceiling"] == 3
        assert natural.name == "natural_123p" and not natural.holds
        assert natural.values["natural"] is None

    def test_candidate_vector_accepted_via_ceiling(self):
        h = combination(
            {
                Ray.R1: LogLinear.from_log_int(4),
                Ray.R2: LogLinear.from_log_int(4),
                Ray.R3: LogLinear.from_log_int(4),
                Ray.R12: LogLinear.from_log_rational(3, 2),
                Ray.R123P: LogLinear.from_log_rational(3, 2),
            }
        )
        assert list(h.coords) == list(candidate_vector().coords)
        verdict = omega_in(h)
        assert verdict.member
        ceiling, natural = verdict.conditions
        assert ceiling.holds  # log(9/4) >= log ceil(3/2) = log 2
        assert not natural.holds

    def test_f_embedded_in_omega_matches_theta_verdict(self):
        verdict = omega_in(f_vector())
        assert not verdict.member
        assert verdict.decomposition.coefficients[Ray.R12] == LogLinear()
        assert all(not c.holds for c in verdict.conditions)

    def test_theta_members_are_omega_members(self):
        rng = seeded_rng("embed")
        for _ in range(40):
            coeffs = {
                Ray.R1: random_nonneg_loglinear(rng),
                Ray.R2: random_nonneg_loglinear(rng),
                Ray.R3: random_nonneg_loglinear(rng),
                Ray.R123P: LogLinear.from_log_int(rng.randrange(1, 6)),
            }
            h = combination(coeffs)
            assert theta_in(h).member
            assert omega_in(h).member


class TestSoundness:
    def test_accepted_vectors_are_polymatroidal(self):
        rng = seeded_rng("sound")
        accepted = 0
        while accepted < 120:
            coeffs = {
                Ray.R1: random_nonneg_loglinear(rng),
                Ray.R2: random_nonneg_loglinear(rng),
                Ray.R3: random_nonneg_loglinear(rng),
                Ray.R12: random_nonneg_loglinear(rng),
                Ray.R123P: random_nonneg_loglinear(rng),
            }
            h = combination(coeffs)
            if omega_in(h).member or theta_in(h).member:
                accepted += 1
                assert in_gamma_n(h).in_cone

    def test_ray_consistency_with_theta(self):
        for lam in (LogLinear(), LogLinear.from_log_int(4), LogLinear.from_log_rational(5, 3)):
            h = combination({Ray.R123P: lam})
            assert theta_in(h).member is ray123p_entropic(lam)


class TestQuNecessary:
    def test_f(self):
        sizes = qu_necessary(f_vector())
        assert sizes is not None
        assert sizes[frozenset({1})] == 4
        assert sizes[frozenset({1, 2})] == 16
        assert sizes[frozenset({1, 2, 3})] == 48

    def test_candidate(self):
        sizes = qu_necessary(candidate_vector())
        assert sizes is not None
        assert sizes[frozenset({1, 2, 3})] == 216

    def test_g_rejected(self):
        assert qu_necessary(g_vector()) is None


class TestVerdictJson:
    def test_shape(self):
        blob = omega_in(g_vector()).to_json()
        assert blob["member"] is False
        names = [c["name"] for c in blob["conditions"]]
        assert names == ["ceiling_12_123p", "natural_123p"]
        lhs = blob["conditions"][0]["values"]["lhs"]
        assert lhs["log_terms"] == {"2": "-2/1", "3": "2/1"}
        assert blob["decomposition"]["generators"] == ["1", "2", "3", "12", "123p"]
