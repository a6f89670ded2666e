import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocone.distributions import EntropyVector
from entrocone.logexact import LogLinear, Sign
from entrocone.polycone import (
    RAY_ORDER,
    FacePosition,
    FaceSpec,
    Ray,
    combination,
    cone_membership,
    elemental_inequalities,
    face_catalogue,
    face_for_generators,
    in_gamma_n,
    permute_ray,
    ray_by_label,
    sorted_rays,
    strict_in_face,
    variable_permutations,
)

from conftest import f_vector, g_vector, permute_vector, table2_pair_entropy, random_nonneg_loglinear, seeded_rng

THETA = face_for_generators({Ray.R1, Ray.R2, Ray.R3, Ray.R123P})
OMEGA = face_for_generators({Ray.R1, Ray.R2, Ray.R3, Ray.R12, Ray.R123P})


def bits_vector(entries):
    return EntropyVector(3, [LogLinear.from_log_int(2).scale(e) for e in entries])


def random_conic_combo(rng, rays=RAY_ORDER):
    coeffs = {r: random_nonneg_loglinear(rng) for r in rays}
    return coeffs, combination(coeffs)


def int_log_vector(per_prime):
    # per_prime[p] is an integer 7-vector: coordinate i gets c_i * log p
    return EntropyVector(
        3, [LogLinear({p: row[i] for p, row in per_prime.items()}) for i in range(7)]
    )


ray_weights_st = st.lists(st.integers(0, 3), min_size=8, max_size=8)
perturbation_st = st.one_of(
    st.just([0] * 7), st.lists(st.integers(-2, 2), min_size=7, max_size=7)
)


@st.composite
def int_log_vectors(draw):
    # a conic combination of the rays per prime, sometimes pushed off the
    # cone: about two thirds of the draws are members, one third are not
    per_prime = {}
    for p in (2, 3):
        weights = draw(ray_weights_st)
        shift = draw(perturbation_st)
        per_prime[p] = [
            sum(w * r.vector[i] for w, r in zip(weights, RAY_ORDER)) + shift[i]
            for i in range(7)
        ]
    return int_log_vector(per_prime)


class TestElemental:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 9), (4, 28), (5, 85)])
    def test_counts(self, n, count):
        # n monotonicity plus C(n,2) * 2^(n-2) submodularity instances
        assert len(elemental_inequalities(n)) == count

    def test_cap(self):
        with pytest.raises(ValueError):
            elemental_inequalities(7)
        with pytest.raises(ValueError):
            elemental_inequalities(0)

    def test_n1_is_nonnegativity(self):
        (fn,) = elemental_inequalities(1)
        assert fn.coeffs == (1,)

    def test_names_cover_both_kinds(self):
        names = {fn.name for fn in elemental_inequalities(3)}
        assert "mono:1" in names and "submod:1,2|3" in names and "submod:2,3|-" in names


class TestGammaMembership:
    def test_all_generators_inside(self):
        for ray in RAY_ORDER:
            assert in_gamma_n(bits_vector(ray.vector)).in_cone

    def test_f_inside(self):
        assert in_gamma_n(f_vector()).in_cone

    def test_g_inside(self):
        assert in_gamma_n(g_vector()).in_cone

    def test_submodularity_violation_with_witness(self):
        # h13+h23 >= h3+h123 and its siblings all fail by one bit here
        bad = bits_vector((1, 1, 1, 2, 2, 2, 4))
        verdict = in_gamma_n(bad)
        assert not verdict.in_cone
        assert verdict.violated.name in {"submod:1,2|3", "submod:1,3|2", "submod:2,3|1"}
        assert verdict.value.sign() == Sign.NEGATIVE
        assert verdict.violated.evaluate(bad).sign() == Sign.NEGATIVE

    def test_invariant_under_relabeling(self):
        rng = seeded_rng("perm-gamma")
        for _ in range(10):
            _, h = random_conic_combo(rng)
            for perm in variable_permutations():
                assert in_gamma_n(permute_vector(h, perm)).in_cone

    def test_permuting_rays_matches_permuting_coordinates(self):
        for perm in variable_permutations():
            for ray in RAY_ORDER:
                image = permute_vector(bits_vector(ray.vector), perm)
                assert image == bits_vector(permute_ray(ray, perm).vector)


class TestConicDecomposition:
    def test_f_over_theta(self):
        cert = cone_membership(f_vector(), THETA.generators)
        assert cert is not None
        log3 = LogLinear.from_log_int(3)
        assert cert.coefficients[Ray.R1] == log3
        assert cert.coefficients[Ray.R2] == log3
        assert cert.coefficients[Ray.R3] == log3
        assert cert.coefficients[Ray.R123P] == LogLinear.from_log_rational(4, 3)

    def test_g_over_omega(self):
        cert = cone_membership(g_vector(), OMEGA.generators)
        assert cert is not None
        c = table2_pair_entropy()
        assert cert.coefficients[Ray.R1] == LogLinear.from_log_int(4)
        assert cert.coefficients[Ray.R2] == LogLinear.from_log_int(4)
        assert cert.coefficients[Ray.R3] == LogLinear.from_log_int(216) - c
        assert cert.coefficients[Ray.R12] == LogLinear.from_log_int(81) - c
        assert cert.coefficients[Ray.R123P] == c - LogLinear.from_log_int(36)

    def test_g_not_in_theta(self):
        assert cone_membership(g_vector(), THETA.generators) is None

    def test_zero_vector(self):
        zero = EntropyVector(3, [LogLinear()] * 7)
        cert = cone_membership(zero, THETA.generators)
        assert cert is not None
        assert all(not lam for lam in cert.coefficients.values())

    def test_round_trip_random_combos(self):
        rng = seeded_rng("round-trip")
        for _ in range(60):
            coeffs, h = random_conic_combo(rng)
            cert = cone_membership(h, RAY_ORDER)
            assert cert is not None
            assert cert.vector() == h

    def test_round_trip_on_faces(self):
        rng = seeded_rng("face-trip")
        for face in face_catalogue():
            rays = sorted_rays(face.generators)
            for _ in range(3):
                coeffs = {r: random_nonneg_loglinear(rng) for r in rays}
                h = combination(coeffs)
                cert = cone_membership(h, face.generators)
                assert cert is not None and cert.vector() == h

    def test_first_certificate_deterministic(self):
        h = combination({r: LogLinear.from_log_int(3) for r in RAY_ORDER})
        c1 = cone_membership(h, RAY_ORDER)
        c2 = cone_membership(h, RAY_ORDER)
        assert c1.coefficients == c2.coefficients

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            cone_membership(EntropyVector(2, [LogLinear()] * 3), RAY_ORDER)

    @settings(max_examples=60, deadline=None)
    @given(int_log_vectors())
    def test_ray_decomposition_agrees_with_elemental_inequalities(self, h):
        # Gamma_3 is the conic hull of the eight rays, so the exact solver
        # and the elemental inequalities must give the same verdict
        assert (cone_membership(h, RAY_ORDER) is not None) == in_gamma_n(h).in_cone


class TestFaceCatalogue:
    def test_count_and_dimensions(self):
        faces = face_catalogue()
        assert len(faces) == 19
        by_dim = {}
        for f in faces:
            by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
        assert by_dim == {1: 1, 2: 2, 3: 4, 4: 6, 5: 4, 6: 2}

    def test_theta_and_omega_present(self):
        gens = [f.generators for f in face_catalogue()]
        assert THETA.generators in gens
        assert OMEGA.generators in gens
        assert THETA.canonical and OMEGA.canonical

    def test_orbits_closed_under_relabeling(self):
        for face in face_catalogue():
            for perm in variable_permutations():
                image = frozenset(permute_ray(r, perm) for r in face.generators)
                assert image in face.orbit

    def test_orbit_images_share_dim_and_orbit(self):
        # a relabeled face has the representative's dimension and orbit, and
        # only the representative itself is canonical
        for face in face_catalogue():
            assert face.canonical
            for image in face.orbit:
                spec = face_for_generators(image)
                assert spec.dim == face.dim
                assert spec.orbit == face.orbit
                assert spec.canonical == (image == face.generators)

    def test_face_is_its_generator_set(self):
        assert [f.name for f in dataclasses.fields(FaceSpec)] == ["generators"]
        assert face_for_generators(THETA.generators) == THETA
        assert hash(FaceSpec(frozenset(THETA.generators))) == hash(THETA)

    def test_orbit_sizes_divide_group_order(self):
        for face in face_catalogue():
            assert 6 % len(face.orbit) == 0

    def test_generator_sets_are_exactly_the_rays_on_the_face(self):
        # each catalogued face must list every extreme ray lying on it
        fns = elemental_inequalities(3)
        for face in face_catalogue():
            tight = [
                i
                for i, fn in enumerate(fns)
                if all(fn.evaluate_int(g.vector) == 0 for g in face.generators)
            ]
            rays_on_face = {
                r for r in RAY_ORDER if all(fns[i].evaluate_int(r.vector) == 0 for i in tight)
            }
            assert rays_on_face == set(face.generators)

    def test_subface_links_by_inclusion(self):
        faces = face_catalogue()
        theta_subs = [
            f.generators
            for f in faces
            if f.generators < THETA.generators
        ]
        assert frozenset({Ray.R1, Ray.R2, Ray.R123P}) in theta_subs


class TestStrictness:
    def test_f_strictly_in_theta(self):
        loc = strict_in_face(f_vector(), THETA)
        assert loc.position is FacePosition.STRICTLY_INSIDE

    def test_g_strictly_in_omega(self):
        loc = strict_in_face(g_vector(), OMEGA)
        assert loc.position is FacePosition.STRICTLY_INSIDE

    def test_f_outside_three_generator_subface(self):
        sub = face_for_generators({Ray.R1, Ray.R2, Ray.R123P})
        loc = strict_in_face(f_vector(), sub)
        assert loc.position is FacePosition.OUTSIDE
        # consistent with the subface's linear condition h12 = h123
        f = f_vector()
        assert (f.coord([1, 2]) - f.coord([1, 2, 3])).sign() != Sign.ZERO

    def test_point_on_apex_ray_is_in_subface_of_theta(self):
        h = combination({Ray.R123P: LogLinear.from_log_int(5)})
        loc = strict_in_face(h, THETA)
        assert loc.position is FacePosition.IN_SUBFACE
        assert loc.subface.generators == frozenset({Ray.R123P})

    def test_zero_vector_in_zero_subface(self):
        zero = EntropyVector(3, [LogLinear()] * 7)
        loc = strict_in_face(zero, THETA)
        assert loc.position is FacePosition.IN_SUBFACE
        assert loc.subface.generators == frozenset()

    def test_theta_subface_condition_is_h12_eq_h123(self):
        # sampled consistency of generator-set membership with the linear
        # condition characterizing the subface cone(e1,e2,e123p) inside theta
        rng = seeded_rng("theta-sub")
        sub = frozenset({Ray.R1, Ray.R2, Ray.R123P})
        for _ in range(100):
            coeffs = {
                r: random_nonneg_loglinear(rng)
                for r in (Ray.R1, Ray.R2, Ray.R3, Ray.R123P)
            }
            if rng.random() < 0.5:
                coeffs[Ray.R3] = LogLinear()
            h = combination(coeffs)
            in_sub = cone_membership(h, sub) is not None
            condition = (h.coord([1, 2]) - h.coord([1, 2, 3])).sign() == Sign.ZERO
            assert in_sub == condition

    def test_omega_subface_condition_is_h1_plus_h2_eq_h12(self):
        rng = seeded_rng("omega-sub")
        for _ in range(100):
            coeffs = {
                r: random_nonneg_loglinear(rng)
                for r in (Ray.R1, Ray.R2, Ray.R3, Ray.R12, Ray.R123P)
            }
            if rng.random() < 0.5:
                coeffs[Ray.R12] = LogLinear()
            h = combination(coeffs)
            in_theta = cone_membership(h, THETA.generators) is not None
            condition = (
                h.coord([1]) + h.coord([2]) - h.coord([1, 2])
            ).sign() == Sign.ZERO
            assert in_theta == condition


class TestSerialization:
    def test_face_labels(self):
        assert THETA.labels() == ("1", "2", "3", "123p")
        assert ray_by_label("123p") is Ray.R123P

    def test_certificate_json(self):
        cert = cone_membership(f_vector(), THETA.generators)
        blob = cert.to_json()
        assert blob["generators"] == ["1", "2", "3", "123p"]
        assert blob["coefficients"]["123p"]["log_terms"] == {"2": "2/1", "3": "-1/1"}
        assert blob["residual_zero"] is True
