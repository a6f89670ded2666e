"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N (...): PASS/FAIL` line (visible
with `pytest -s`) and enforces the criterion's runtime bound.  All value
comparisons are exact unless a tolerance is stated inline.
"""

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

from entrocone.bounds import OMEGA_FACE, THETA_FACE, omega_in, theta_in
from entrocone.cli import parse_vector_json
from entrocone.distributions import (
    EntropyVector,
    JointPMF,
    entropy_vector,
    is_quasi_uniform,
    parse_pmf,
)
from entrocone.logexact import LogLinear, Sign
from entrocone.polycone import (
    RAY_ORDER,
    FacePosition,
    Ray,
    combination,
    cone_membership,
    elemental_inequalities,
    in_gamma_n,
    strict_in_face,
)
from entrocone.qusearch import (
    Budget,
    SearchStatus,
    SupportSpec,
    check_feasibility_necessary,
    search,
    spec_from_vector,
    structural_hints,
)
from entrocone.subsets import canonical_order

from conftest import (
    brute_force_oracle,
    candidate_vector,
    f_vector,
    fixture_text,
    g_vector,
    independent_product,
    table2_pair_entropy,
    seeded_rng,
)


@contextmanager
def criterion(num: int, title: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s ({elapsed:.2f}s)"
    print(f"criterion {num} ({title}): PASS [{elapsed:.2f}s]")


def test_criterion_1_table1_reproduction(table1_pmf):
    with criterion(1, "table-1 reproduction", 1.0):
        ev = entropy_vector(table1_pmf)
        assert list(ev.coords) == [LogLinear.from_log_int(m) for m in (4, 4, 4, 16, 16, 16, 48)]
        verdict = is_quasi_uniform(table1_pmf)
        assert verdict.is_qu
        expected = dict(zip(canonical_order(3), (4, 4, 4, 16, 16, 16, 48)))
        assert verdict.support_sizes == expected


def test_criterion_2_table2_reproduction(table2_pmf):
    with criterion(2, "table-2 reproduction", 1.0):
        ev = entropy_vector(table2_pmf)
        h12 = (
            LogLinear.from_log_int(54).scale(Fraction(1, 2))
            + LogLinear.from_log_int(72).scale(Fraction(1, 4))
            + LogLinear.from_log_int(108).scale(Fraction(1, 6))
            + LogLinear.from_log_int(216).scale(Fraction(1, 12))
        )
        assert h12 == table2_pair_entropy()
        assert ev == g_vector()
        assert ev.coord([1, 2]) == h12
        shown = Fraction(ev.coord([1, 2]).approx_exp(4))
        assert abs(shown - Fraction("73.1091")) <= Fraction(1, 10_000)
        verdict = is_quasi_uniform(table2_pmf)
        assert not verdict.is_qu
        assert verdict.witness.alpha == frozenset({1, 2})


def test_criterion_3_theta_pipeline():
    with criterion(3, "4-D face pipeline", 1.0):
        f = f_vector()
        loc = strict_in_face(f, THETA_FACE)
        assert loc.position is FacePosition.STRICTLY_INSIDE
        assert cone_membership(f, {Ray.R1, Ray.R2, Ray.R123P}) is None
        # the obstruction matches the subface's linear condition h12 = h123
        assert (f.coord([1, 2]) - f.coord([1, 2, 3])).sign() != Sign.ZERO
        verdict = theta_in(f)
        assert not verdict.member
        assert verdict.decomposition.coefficients[Ray.R123P] == LogLinear.from_log_rational(4, 3)


def test_criterion_4_omega_pipeline():
    with criterion(4, "5-D face pipeline", 1.0):
        g = g_vector()
        c = table2_pair_entropy()
        cert = cone_membership(g, OMEGA_FACE.generators)
        assert cert is not None
        assert cert.coefficients[Ray.R1] == LogLinear.from_log_int(4)
        assert cert.coefficients[Ray.R2] == LogLinear.from_log_int(4)
        assert cert.coefficients[Ray.R3] == LogLinear.from_log_int(216) - c
        assert cert.coefficients[Ray.R12] == LogLinear.from_log_int(81) - c
        assert cert.coefficients[Ray.R123P] == c - LogLinear.from_log_int(36)
        loc = strict_in_face(g, OMEGA_FACE)
        assert loc.position is FacePosition.STRICTLY_INSIDE
        assert cone_membership(g, THETA_FACE.generators) is None
        # the obstruction matches the subface's linear condition h1+h2 = h12
        assert (g.coord([1]) + g.coord([2]) - g.coord([1, 2])).sign() != Sign.ZERO
        verdict = omega_in(g)
        assert not verdict.member
        ceiling, natural = verdict.conditions
        assert not ceiling.holds and not natural.holds
        assert ceiling.values["lhs"] == LogLinear.from_log_rational(9, 4)
        assert ceiling.values["rhs"] == LogLinear.from_log_int(3)


def test_criterion_5_cone_soundness():
    with criterion(5, "cone soundness", 30.0):
        for ray in RAY_ORDER:
            h = combination({ray: LogLinear.from_log_int(2)})
            assert in_gamma_n(h).in_cone

        rng = seeded_rng("acceptance-5")
        for _ in range(500):
            coeffs = {
                r: LogLinear({2: Fraction(rng.randrange(0, 13), rng.randrange(1, 5))})
                for r in RAY_ORDER
            }
            h = combination(coeffs)
            assert in_gamma_n(h).in_cone
            cert = cone_membership(h, RAY_ORDER)
            assert cert is not None
            assert cert.vector() == h

        fns = elemental_inequalities(3)
        bump = LogLinear.from_log_int(2).scale(Fraction(1, 7))
        for k in range(100):
            coeffs = {
                r: LogLinear({2: Fraction(rng.randrange(0, 7), rng.randrange(1, 3))})
                for r in RAY_ORDER
            }
            h = combination(coeffs)
            fn = fns[k % len(fns)]
            target = fn.coeffs.index(-1)
            slack = fn.evaluate(h)
            coords = list(h.coords)
            coords[target] = coords[target] + slack + bump
            perturbed = EntropyVector(3, coords)
            verdict = in_gamma_n(perturbed)
            assert not verdict.in_cone
            assert verdict.violated.evaluate(perturbed).sign() == Sign.NEGATIVE


def _uniform_single(k: int, var: int) -> JointPMF:
    sizes = [1, 1, 1]
    sizes[var - 1] = k
    cells = {tuple(i if v == var - 1 else 0 for v in range(3)): Fraction(1, k) for i in range(k)}
    return JointPMF(sizes, cells)


def _copied_pair(k: int) -> JointPMF:
    return JointPMF([k, k, 1], {(i, i, 0): Fraction(1, k) for i in range(k)})


def _modular_triple(m: int) -> JointPMF:
    mass = {(a, b, (a + b) % m): Fraction(1, m * m) for a in range(m) for b in range(m)}
    return JointPMF([m, m, m], mass)


def test_criterion_6_inner_bound_soundness():
    with criterion(6, "inner-bound soundness", 60.0):
        rng = seeded_rng("acceptance-6")
        accepted = 0
        trials = 0
        while accepted < 500:
            trials += 1
            assert trials < 20_000
            lam123p = (
                LogLinear.from_log_int(rng.randrange(1, 6))
                if rng.random() < 0.5
                else LogLinear.from_log_rational(rng.randrange(1, 9), rng.randrange(1, 9))
            )
            if lam123p.sign() == Sign.NEGATIVE:
                continue
            coeffs = {
                Ray.R1: LogLinear.from_log_rational(rng.randrange(1, 9), rng.randrange(1, 3)),
                Ray.R2: LogLinear.from_log_rational(rng.randrange(1, 9), rng.randrange(1, 3)),
                Ray.R3: LogLinear.from_log_rational(rng.randrange(1, 9), rng.randrange(1, 3)),
                Ray.R12: LogLinear.from_log_int(rng.randrange(1, 5)),
                Ray.R123P: lam123p,
            }
            for r in (Ray.R1, Ray.R2, Ray.R3):
                if coeffs[r].sign() == Sign.NEGATIVE:
                    coeffs[r] = LogLinear()
            h = combination(coeffs)
            if theta_in(h).member or omega_in(h).member:
                accepted += 1
                assert in_gamma_n(h).in_cone

        # realizability spot check: product distributions hit 10 accepted
        # vectors with natural-number data exactly
        for _ in range(10):
            k1, k2, k3 = (rng.randrange(1, 4) for _ in range(3))
            k12 = rng.randrange(1, 4)
            m = rng.randrange(1, 4)
            pmf = _uniform_single(k1, 1)
            pmf = independent_product(pmf, _uniform_single(k2, 2))
            pmf = independent_product(pmf, _uniform_single(k3, 3))
            pmf = independent_product(pmf, _copied_pair(k12))
            pmf = independent_product(pmf, _modular_triple(m))
            target = combination(
                {
                    Ray.R1: LogLinear.from_log_int(k1),
                    Ray.R2: LogLinear.from_log_int(k2),
                    Ray.R3: LogLinear.from_log_int(k3),
                    Ray.R12: LogLinear.from_log_int(k12),
                    Ray.R123P: LogLinear.from_log_int(m),
                }
            )
            assert omega_in(target).member
            assert entropy_vector(pmf) == target


def test_criterion_7_search_validation():
    with criterion(7, "search validation", 120.0):
        parity_spec = SupportSpec(3, dict(zip(canonical_order(3), (2, 2, 2, 4, 4, 4, 4))))
        t0 = time.perf_counter()
        outcome = search(parity_spec)
        assert time.perf_counter() - t0 < 1.0
        assert outcome.status is SearchStatus.FOUND
        verdict = is_quasi_uniform(outcome.pmf)
        assert verdict.is_qu and verdict.support_sizes == parity_spec.m
        assert entropy_vector(outcome.pmf) == combination({Ray.R123P: LogLinear.from_log_int(2)})

        f_spec = spec_from_vector(f_vector())
        t0 = time.perf_counter()
        outcome_f = search(f_spec)
        assert time.perf_counter() - t0 < 60.0
        assert outcome_f.status is SearchStatus.FOUND
        verdict = is_quasi_uniform(outcome_f.pmf)
        assert verdict.is_qu and verdict.support_sizes == f_spec.m
        assert entropy_vector(outcome_f.pmf) == f_vector()

        checked = 0
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                for m12 in range(max(m1, m2), m1 * m2 + 1):
                    spec = SupportSpec(
                        2,
                        {
                            frozenset({1}): m1,
                            frozenset({2}): m2,
                            frozenset({1, 2}): m12,
                        },
                    )
                    ok, _ = check_feasibility_necessary(spec)
                    if not ok:
                        continue
                    checked += 1
                    assert search(spec).status == brute_force_oracle(spec).status
        assert checked >= 20


def test_criterion_8_open_problem_fixture():
    with criterion(8, "open-problem fixture", 10.0):
        vec = candidate_vector()
        spec = spec_from_vector(vec)
        assert spec is not None
        assert spec.m[frozenset({1, 2, 3})] == 216
        outcome = search(spec, budget=Budget(), hints=structural_hints(vec))
        assert outcome.status is SearchStatus.FOUND
        verdict = is_quasi_uniform(outcome.pmf)
        assert verdict.is_qu and verdict.support_sizes == spec.m
        assert entropy_vector(outcome.pmf) == vec


def test_criterion_9_inner_bounds_are_loose():
    # The support {(a, b, (a+b+t) mod k) : t < j} is quasi-uniform with sizes
    # (k,k,k,k^2,k^2,k^2,j*k^2), so its entropy vector is entropic and is the
    # log-size vector.  On theta's face it is log j * (e1 + e2 + e3) +
    # log(k/j) * e123': strictly inside for 2 <= j < k, and both inner bounds
    # accept it exactly when k/j is a natural.  So for every k with a j that
    # does not divide it, theta and omega reject an entropic vector of their
    # face: 43 witnesses for k <= 12.
    with criterion(9, "inner bounds are loose", 10.0):
        rejected = 0
        for k in range(2, 13):
            for j in range(2, k):
                support = {(a, b, (a + b + t) % k) for a in range(k) for b in range(k) for t in range(j)}
                verdict = is_quasi_uniform(JointPMF((k, k, k), dict.fromkeys(support, Fraction(1, len(support)))))
                assert verdict.is_qu
                sizes = (k, k, k, k * k, k * k, k * k, j * k * k)
                assert verdict.support_sizes == dict(zip(canonical_order(3), sizes))
                h = SupportSpec(3, verdict.support_sizes).vector()
                assert strict_in_face(h, THETA_FACE).position is FacePosition.STRICTLY_INSIDE
                theta, omega = theta_in(h), omega_in(h)
                assert theta.member == omega.member == (k % j == 0)
                if k % j:
                    rejected += 1
                    assert [c.name for c in theta.conditions if not c.holds] == ["natural_123p"]
                    assert [c.name for c in omega.conditions if not c.holds] == ["ceiling_12_123p", "natural_123p"]
        assert rejected == 43


def test_candidate_witness_fixture():
    # closed form, no search: cell (x1,x2) is used iff d = (x2-x1) mod 9 < 6,
    # and then holds the four x3 in 0..5 outside {2k, 2k+1}, k = d // 2
    pmf = parse_pmf(fixture_text("omega_candidate_witness.pmf"))
    assert set(pmf.mass) == {
        (x1, x2, x3)
        for x1, x2, x3 in itertools.product(range(9), range(9), range(6))
        if (x2 - x1) % 9 < 6 and x3 // 2 != (x2 - x1) % 9 // 2
    }
    verdict = is_quasi_uniform(pmf)
    assert verdict.is_qu
    assert [verdict.support_sizes[a] for a in canonical_order(3)] == [9, 9, 6, 54, 54, 54, 216]
    h = entropy_vector(pmf)
    assert h == parse_vector_json(json.loads(fixture_text("omega_candidate.vec")))
    assert omega_in(h).member
    assert not theta_in(h).member


def test_fixture_files_round_trip(table1_pmf, table2_pmf):
    # the shipped table files are the inputs the criteria run on
    assert parse_pmf(fixture_text("table1.pmf")) == table1_pmf
    assert len(table1_pmf.mass) == 48
    assert len(table2_pmf.mass) == 216
