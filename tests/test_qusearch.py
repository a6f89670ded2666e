import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from entrocone import qusearch
from entrocone.distributions import entropy_vector, is_quasi_uniform
from entrocone.logexact import LogLinear
from entrocone.polycone import in_gamma_n
from entrocone.qusearch import (
    _Engine,
    Budget,
    FunctionalDependence,
    SearchStatus,
    SupportSpec,
    check_feasibility_necessary,
    search,
    spec_from_vector,
    structural_hints,
)
from entrocone.subsets import canonical_order, subset_name

from conftest import brute_force_oracle, candidate_vector, f_vector, g_vector, independent_product, seeded_rng

VERDICTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "verdicts.json").read_text())


def mkspec(n, values):
    return SupportSpec(n, dict(zip(canonical_order(n), values)))


def truth_verdict(m):
    """The verdict table's truth-map entry for an n = 3 spec: the map is
    keyed by the least relabeling of the sizes, in canonical order."""
    order = canonical_order(3)
    relabeled = (
        tuple(m[order.index(frozenset(perm[i - 1] for i in a))] for a in order)
        for perm in itertools.permutations((1, 2, 3))
    )
    return VERDICTS["verdicts"][",".join(map(str, min(relabeled)))]


F_SPEC = mkspec(3, [4, 4, 4, 16, 16, 16, 48])
PARITY_SPEC = mkspec(3, [2, 2, 2, 4, 4, 4, 4])
CANDIDATE_SPEC = mkspec(3, [9, 9, 6, 54, 54, 54, 216])


def assert_realizes(outcome, spec):
    assert outcome.status is SearchStatus.FOUND
    verdict = is_quasi_uniform(outcome.pmf)
    assert verdict.is_qu
    assert verdict.support_sizes == spec.m
    ev = entropy_vector(outcome.pmf)
    assert list(ev.coords) == [LogLinear.from_log_int(spec.m[a]) for a in canonical_order(spec.n)]


class TestSpecFromVector:
    def test_f(self):
        spec = spec_from_vector(f_vector())
        assert spec is not None and spec.m == F_SPEC.m

    def test_candidate(self):
        spec = spec_from_vector(candidate_vector())
        assert spec is not None and spec.m == CANDIDATE_SPEC.m

    def test_g_not_liftable(self):
        assert spec_from_vector(g_vector()) is None

    def test_json_round_trip(self):
        blob = F_SPEC.to_json()
        assert blob["m"]["123"] == 48
        assert SupportSpec.from_json(blob) == F_SPEC

    @pytest.mark.parametrize("obj", [
        [],
        {"n": 2},
        {"n": 0, "m": {}},
        {"n": 20, "m": {"1": 2}},
        {"n": "3", "m": {"1": 2}},
        {"n": 2, "m": {"1": 2, "2": 2}},
        {"n": 2, "m": {"1": 0, "2": 2, "12": 2}},
        {"n": 2, "m": {"1": 2, "2": 2, "12": 4.0}},
        {"n": 2, "m": {"1": 2, "2": 2, "12": 4, "21": 4}},
        {"n": 2, "m": {"1": 2, "2": 2, "12": 4, "3": 2}},
    ], ids=["not_an_object", "no_sizes", "n0", "n20", "n_string", "missing_subset", "zero_size",
            "decimal_size", "named_twice", "unknown_variable"])
    def test_from_json_rejects_malformed_specs(self, obj):
        with pytest.raises(ValueError):
            SupportSpec.from_json(obj)

    @pytest.mark.parametrize("n,m", [
        (True, {frozenset({1}): 1}),
        (7, {}),
        (2, {frozenset({1}): 2, frozenset({2}): 2, frozenset({1, 2}): 4, frozenset({3}): 2}),
        (1, {frozenset({1}): 2.0}),
        (1, {frozenset({1}): 0}),
    ], ids=["n_bool", "n7", "unknown_subset", "float_size", "zero_size"])
    def test_constructor_rejects_malformed_specs(self, n, m):
        with pytest.raises(ValueError):
            SupportSpec(n, m)


class TestFeasibilityNecessary:
    def test_valid_specs(self):
        for spec in (F_SPEC, PARITY_SPEC, CANDIDATE_SPEC):
            ok, witness = check_feasibility_necessary(spec)
            assert ok and witness is None

    def test_divisibility_witness(self):
        ok, witness = check_feasibility_necessary(mkspec(2, [2, 2, 3]))
        assert not ok
        assert "does not divide" in witness

    def test_monotonicity_witness(self):
        ok, witness = check_feasibility_necessary(SupportSpec(2, {
            frozenset({1}): 4, frozenset({2}): 2, frozenset({1, 2}): 2,
        }))
        assert not ok
        assert "monotonicity" in witness

    def test_polymatroid_witness(self):
        # m12 beyond m1*m2 violates submodularity of the log-size vector
        ok, witness = check_feasibility_necessary(mkspec(2, [2, 2, 8]))
        assert not ok
        assert "violates" in witness

    @staticmethod
    def reference(spec):
        """The check on the exact log-size vector: the divisibility and
        monotonicity loop, then polycone.in_gamma_n."""
        for alpha in canonical_order(spec.n):
            for beta in (alpha | {i} for i in range(1, spec.n + 1) if i not in alpha):
                if spec.m[alpha] > spec.m[beta]:
                    return False, (
                        f"monotonicity fails: m_{subset_name(alpha)} = {spec.m[alpha]}"
                        f" > m_{subset_name(beta)} = {spec.m[beta]}"
                    )
                if spec.m[beta] % spec.m[alpha] != 0:
                    return False, (
                        f"divisibility fails: m_{subset_name(alpha)} = {spec.m[alpha]}"
                        f" does not divide m_{subset_name(beta)} = {spec.m[beta]}"
                    )
        verdict = in_gamma_n(spec.vector())
        if not verdict.in_cone:
            return False, f"log-size vector violates {verdict.violated.name}"
        return True, None

    def test_agrees_with_log_vector_check_on_verdict_table(self):
        for row in VERDICTS["specs"]:
            spec = mkspec(3, row["m"])
            assert check_feasibility_necessary(spec) == self.reference(spec), row["m"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_log_vector_check_on_seeded_specs(self, n):
        # sizes of functions of independent uniform coordinates pass every
        # check; every other spec scales one size and the sizes above it by
        # a prime, which can break submodularity, and every eighth spec gets
        # one random size, which can break monotonicity or divisibility
        rng = seeded_rng(f"feasibility:{n}")
        order = canonical_order(n)
        messages = set()
        for k in range(300):
            hidden = [rng.choice((2, 3, 4, 5)) for _ in range(n + 1)]
            owns = [{j for j in range(n + 1) if rng.random() < 0.5} for _ in range(n)]
            m = {a: math.prod(hidden[j] for j in set().union(*(owns[i - 1] for i in a))) for a in order}
            if k % 2:
                alpha, p = rng.choice(order), rng.choice((2, 3))
                for beta in order:
                    if alpha <= beta:
                        m[beta] *= p
            if k % 8 == 7:
                m[rng.choice(order)] = rng.randrange(1, 40)
            spec = SupportSpec(n, m)
            got = check_feasibility_necessary(spec)
            assert got == self.reference(spec), m
            messages.add(got[1].split(":")[0] if got[1] else None)
        if n > 1:
            assert {None, "log-size vector violates submod"} <= messages

    def test_missing_subset(self):
        # a spec without every subset cannot be built, so it never reaches the check
        with pytest.raises(ValueError, match="missing"):
            check_feasibility_necessary(SupportSpec(2, {frozenset({1}): 2}))


class TestSearch:
    def test_parity_instance(self):
        outcome = search(PARITY_SPEC)
        assert_realizes(outcome, PARITY_SPEC)
        # the witness class is the parity pattern: the apex coordinate is
        # determined by the first two
        support = sorted(outcome.pmf.mass)
        assert support == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_f_instance(self):
        outcome = search(F_SPEC)
        assert_realizes(outcome, F_SPEC)
        # complement of the support is one excluded cell per pair fiber,
        # i.e. the graph of a 4x4 Latin square
        holes = sorted(
            cell
            for cell in itertools.product(range(4), repeat=3)
            if cell not in outcome.pmf.mass
        )
        assert len(holes) == 16
        for i, j in ((0, 1), (0, 2), (1, 2)):
            pairs = {(h[i], h[j]) for h in holes}
            assert len(pairs) == 16

    def test_product_instance(self):
        spec = mkspec(2, [2, 3, 6])
        outcome = search(spec)
        assert_realizes(outcome, spec)
        assert sorted(outcome.pmf.mass) == list(itertools.product(range(2), range(3)))

    def test_bijection_instance(self):
        spec = mkspec(2, [2, 2, 2])
        outcome = search(spec)
        assert_realizes(outcome, spec)

    def test_determinism(self):
        a = search(F_SPEC, budget=Budget(max_nodes=100_000, max_seconds=30))
        b = search(F_SPEC, budget=Budget(max_nodes=100_000, max_seconds=30))
        assert a.status == b.status
        assert a.pmf == b.pmf
        assert a.nodes_explored == b.nodes_explored

    def test_budget_exceeded(self):
        outcome = search(CANDIDATE_SPEC, budget=Budget(max_nodes=2_000, max_seconds=30))
        assert outcome.status is SearchStatus.BUDGET_EXCEEDED
        assert outcome.pmf is None
        assert outcome.nodes_explored >= 2_000

    def test_rejects_invalid_spec(self):
        with pytest.raises(ValueError):
            search(mkspec(2, [2, 2, 3]))

    def test_size_too_large_to_factor_is_searched(self):
        # the feasibility check compares products of sizes and factors none
        outcome = search(SupportSpec(1, {frozenset({1}): 3 * (2**89 - 1)}), Budget(max_nodes=10))
        assert (outcome.status, outcome.nodes_explored) == (SearchStatus.BUDGET_EXCEEDED, 11)

    def test_hinted_search_factors_no_size(self):
        # the hint is checked on the integer sizes: X2 is a function of X1
        big = 3 * (2**89 - 1)
        spec = mkspec(2, [big, 1, big])
        fd = FunctionalDependence(frozenset({1}), frozenset({2}))
        outcome = search(spec, Budget(max_nodes=10), hints=[fd])
        assert (outcome.status, outcome.nodes_explored) == (SearchStatus.BUDGET_EXCEEDED, 11)
        with pytest.raises(ValueError, match="too large"):
            structural_hints(spec.vector())

    @pytest.mark.parametrize("kwargs", [
        {"max_nodes": 0},
        {"max_nodes": -5},
        {"max_nodes": True},
        {"max_nodes": 10.0},
        {"max_seconds": 0},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},
    ])
    def test_unmeetable_budget_rejected(self, kwargs):
        with pytest.raises(ValueError, match="max_"):
            Budget(**kwargs)

    def test_smallest_and_unlimited_budgets_accepted(self):
        outcome = search(PARITY_SPEC, budget=Budget(max_nodes=1, max_seconds=float("inf")))
        assert (outcome.status, outcome.nodes_explored) == (SearchStatus.BUDGET_EXCEEDED, 2)

    def test_deep_grid(self):
        # k**3 cells, all of them in the support: the walk over cells goes as
        # deep as the grid, one node per cell and one for the full placement;
        # past 64 cells it crosses the boundaries of the tables' chunks.
        # The engine runs alone, as search() finds the larger grids in its
        # orbit phase, one node per orbit of 33 cells past the first 2,048.
        for k in (10, 12, 33):
            spec = mkspec(3, [k, k, k, k * k, k * k, k * k, k**3])
            engine = _Engine(spec)
            status, support = engine.run(50_000, float("inf"))
            assert (status, engine.nodes) == (SearchStatus.FOUND, k**3 + 1)
            # k**3 points on k**3 cells are the whole grid, which realizes
            # the spec; the slower entropy check runs on the smaller grids
            grid = list(itertools.product(range(k), repeat=3))
            assert sorted(engine.pmf_from_support(support).mass) == grid
            if k < 33:
                assert_realizes(search(spec), spec)
        outcome = search(spec, budget=Budget(max_nodes=50_000, max_seconds=60))
        assert (outcome.status, outcome.nodes_explored, outcome.orbit_nodes) == (SearchStatus.FOUND, 2048 + 1090, 1090)
        assert sorted(outcome.pmf.mass) == grid

    def test_orbit_longer_than_a_chunk_is_not_tried(self):
        # orbits of 201 cells: the orbit phase, whose node would meet 1,206
        # fibers, is skipped, and the walk over cells spends the budget
        k = 201
        start = time.perf_counter()
        outcome = search(mkspec(3, [k, k, k] + [k * k] * 4), Budget(max_nodes=5000))
        assert time.perf_counter() - start < 0.5
        assert (outcome.status, outcome.nodes_explored, outcome.orbit_nodes) == (SearchStatus.BUDGET_EXCEEDED, 5001, 0)

    def test_orbit_phase_never_reports_exhausted(self, monkeypatch):
        # parity's supports x1 + x2 + x3 = c mod 2 are not invariant under
        # the diagonal shift, so the walk over orbits exhausts on a
        # feasible spec: its exhaustion proves nothing
        engine = _Engine(PARITY_SPEC, orbits=True)
        assert (engine.run(100, float("inf")), engine.nodes) == ((SearchStatus.EXHAUSTED_INFEASIBLE, None), 5)
        # with phases of 5 nodes, the walk over cells resumes after the
        # exhausted orbit phase and finds its own witness at its own count
        plain = search(PARITY_SPEC)
        monkeypatch.setattr(qusearch, "_PHASE_NODES", 5)
        outcome = search(PARITY_SPEC)
        assert (outcome.status, outcome.nodes_explored, outcome.orbit_nodes) == (SearchStatus.FOUND, 8 + 5, 5)
        assert outcome.pmf == plain.pmf
        # a budget spent after an exhausted orbit phase is BUDGET_EXCEEDED;
        # unbudgeted, this spec exhausts at 2,349 nodes over cells
        monkeypatch.undo()
        outcome = search(mkspec(3, [5, 5, 5, 20, 20, 10, 40]), budget=Budget(max_nodes=2048 + 534 + 10))
        assert (outcome.status, outcome.nodes_explored, outcome.orbit_nodes) == (
            SearchStatus.BUDGET_EXCEEDED, 2048 + 534 + 10 + 1, 534)

    @pytest.mark.parametrize("left,right", [
        ([2, 2, 2, 4, 4, 4, 4], [3, 3, 3, 9, 9, 9, 18]),
        ([3, 3, 3, 9, 9, 9, 18], [4, 4, 4, 16, 16, 16, 48]),
    ], ids=["parity_x_3-18", "3-18_x_4-48"])
    def test_products_of_witnesses_are_never_infeasible(self, left, right):
        # past the oracle's cap: the independent product of two witnesses is
        # quasi-uniform with the sizes multiplied, so the spec is feasible
        product = independent_product(search(mkspec(3, left)).pmf, search(mkspec(3, right)).pmf)
        spec = mkspec(3, [a * b for a, b in zip(left, right)])
        assert is_quasi_uniform(product).support_sizes == spec.m
        outcome = search(spec, budget=Budget(max_nodes=100_000, max_seconds=60))
        assert outcome.status in (SearchStatus.FOUND, SearchStatus.BUDGET_EXCEEDED)
        if outcome.status is SearchStatus.FOUND:
            assert_realizes(outcome, spec)


# Per spec at 100,000 nodes: (status, nodes) of the walk over cells alone,
# and (status, nodes_explored, orbit_nodes) of search().  Parity and f, then
# specs from perfbench/verdicts.json: fast and slow finds, exhausted ones and
# the candidate.  The orbit phase runs on specs the walk over cells leaves
# undecided at 2,048 nodes; of these rows only the candidate, which it
# finds.  (5,5,5,15,15,5,15) is where the nested counts' cap-1 case, a
# functional dependence, rejects placements.  Hints prune nothing the
# nested counts do not, so hinted and plain runs give the same counts.
FOUND, EXHAUSTED, CAPPED = SearchStatus.FOUND, SearchStatus.EXHAUSTED_INFEASIBLE, SearchStatus.BUDGET_EXCEEDED
NODE_COUNTS = [
    ([2, 2, 2, 4, 4, 4, 4], (FOUND, 8), (FOUND, 8, 0)),
    ([4, 4, 4, 16, 16, 16, 48], (FOUND, 76), (FOUND, 76, 0)),
    ([1, 3, 3, 3, 3, 6, 6], (FOUND, 11), (FOUND, 11, 0)),
    ([2, 2, 2, 2, 4, 4, 4], (FOUND, 9), (FOUND, 9, 0)),
    ([3, 5, 5, 15, 15, 15, 30], (FOUND, 790), (FOUND, 790, 0)),
    ([4, 4, 4, 12, 12, 12, 24], (FOUND, 732), (FOUND, 732, 0)),
    ([5, 5, 4, 20, 20, 20, 60], (FOUND, 16322), (FOUND, 16322, 0)),
    ([3, 3, 3, 6, 6, 6, 12], (EXHAUSTED, 45), (EXHAUSTED, 45, 0)),
    ([4, 4, 4, 12, 8, 12, 24], (EXHAUSTED, 282), (EXHAUSTED, 282, 0)),
    ([5, 5, 5, 20, 20, 20, 80], (EXHAUSTED, 200), (EXHAUSTED, 200, 0)),
    ([5, 5, 5, 10, 10, 10, 20], (EXHAUSTED, 539), (EXHAUSTED, 539, 0)),
    ([9, 9, 6, 54, 54, 54, 216], (CAPPED, 100_000), (FOUND, 2048 + 201, 201)),
    ([5, 5, 5, 15, 25, 25, 75], (FOUND, 166), (FOUND, 166, 0)),
    ([5, 5, 5, 15, 15, 5, 15], (FOUND, 189), (FOUND, 189, 0)),
]
# The table rows that a 100,000-node search left capped before the nested
# counts, with (nodes over cells, orbit nodes) of search(); the table's truth
# map records each as infeasible.  One outlasts 2,048 nodes over cells, so
# the orbit phase runs and exhausts before the walk over cells resumes.
FORMERLY_CAPPED = [
    ([5, 5, 5, 10, 15, 15, 30], 614, 0),
    ([5, 5, 5, 10, 20, 20, 40], 2776, 364),
    ([5, 5, 5, 15, 10, 15, 30], 737, 0),
    ([5, 5, 5, 15, 15, 10, 30], 723, 0),
    ([5, 5, 5, 15, 15, 15, 45], 425, 0),
]


class TestNodeCounts:
    @pytest.mark.parametrize("hinted", [False, True], ids=["plain", "hinted"])
    @pytest.mark.parametrize("m,walk,pinned", NODE_COUNTS, ids=[",".join(map(str, m)) for m, _, _ in NODE_COUNTS])
    def test_pinned(self, m, walk, pinned, hinted):
        spec = mkspec(3, m)
        budget = Budget(max_nodes=100_000, max_seconds=600)
        hints = structural_hints(spec.vector()) if hinted else ()
        engine = _Engine(spec)
        assert (engine.run(100_000, float("inf"))[0], engine.nodes) == walk
        outcome = search(spec, budget=budget, hints=hints)
        assert (outcome.status, outcome.nodes_explored, outcome.orbit_nodes) == pinned
        if outcome.status is SearchStatus.FOUND:
            assert_realizes(outcome, spec)
        if hinted:
            assert outcome.pmf == search(spec, budget=budget).pmf

    def test_formerly_capped_rows_exhaust(self):
        for m, cells, orbit_nodes in FORMERLY_CAPPED:
            outcome = search(mkspec(3, m), Budget(max_nodes=100_000, max_seconds=600))
            assert (outcome.status, outcome.nodes_explored, outcome.orbit_nodes) == (
                EXHAUSTED, cells + orbit_nodes, orbit_nodes), m
            assert truth_verdict(m) == EXHAUSTED.value

    def test_rejected_inclusion_leaves_no_trace(self):
        # The capacity and nested-count rules reject a placement after its
        # counters moved; the rejection must restore them exactly, or the
        # leftover capacity weakens later pruning.  The nested counts reject
        # placements on the second spec only.
        rejected = []

        class Checked(_Engine):
            def _try_include(self, ci):
                before = (list(self.counts), list(self.future), list(self.openable),
                          list(self.realized), list(self.nested), list(self.maxused), list(self.chosen))
                bumps = super()._try_include(ci)
                if bumps is None:
                    rejected.append(ci)
                    assert (self.counts, self.future, self.openable, self.realized,
                            self.nested, self.maxused, self.chosen) == before
                return bumps

        for m in ([5, 5, 5, 15, 25, 25, 75], [5, 5, 5, 15, 15, 5, 15]):
            rejected.clear()
            status, _ = Checked(mkspec(3, m)).run(100_000, float("inf"))
            assert status is SearchStatus.FOUND and rejected

    def test_exhausted_search_restores_the_start_state(self):
        # both walks exhaust on this spec; the start state of the slots they
        # gave out is that of a fresh engine with as many blocks tabulated
        spec = mkspec(3, [4, 4, 4, 12, 8, 12, 24])
        for orbits in (False, True):
            engine = _Engine(spec, orbits)
            assert engine.run(100_000, float("inf"))[0] is SearchStatus.EXHAUSTED_INFEASIBLE
            fresh = _Engine(spec, orbits)
            while len(fresh.block_fibers) < len(engine.block_fibers):
                fresh._extend()
            for name in ("counts", "future", "openable", "realized", "nested", "maxused", "chosen"):
                assert getattr(engine, name) == getattr(fresh, name)


class TestVerdictTable:
    def test_search_decides_every_row_soundly(self):
        # every spec of perfbench/verdicts.json at the table's budget: no row
        # is capped, no status contradicts the truth map (settled at
        # truth_nodes nodes), and every witness realizes its spec; the
        # recorded statuses and node counts of the rows are not read
        budget = Budget(max_nodes=VERDICTS["budget_nodes"], max_seconds=600)
        for row in VERDICTS["specs"]:
            spec = mkspec(3, row["m"])
            outcome = search(spec, budget)
            assert outcome.status is not CAPPED, row["m"]
            assert truth_verdict(row["m"]) in ("unknown", outcome.status.value), row["m"]
            if outcome.status is FOUND:
                verdict = is_quasi_uniform(outcome.pmf)
                assert verdict.is_qu and verdict.support_sizes == spec.m, row["m"]


class TestOracle:
    def test_agrees_on_parity(self):
        oracle = brute_force_oracle(PARITY_SPEC)
        assert oracle.status is SearchStatus.FOUND
        assert is_quasi_uniform(oracle.pmf).is_qu

    def test_raw_infeasible_spec_enumerates(self):
        outcome = brute_force_oracle(mkspec(2, [2, 2, 3]))
        assert outcome.status is SearchStatus.EXHAUSTED_INFEASIBLE
        assert outcome.nodes_explored == 4  # C(4,3) candidate supports

    def test_bijection(self):
        outcome = brute_force_oracle(mkspec(2, [2, 2, 2]))
        assert outcome.status is SearchStatus.FOUND
        xs = sorted(outcome.pmf.mass)
        assert len({x[0] for x in xs}) == 2 and len({x[1] for x in xs}) == 2

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_force_oracle(F_SPEC, cap=24)

    def test_search_matches_oracle_on_n2_sweep(self):
        # every monotone, divisibility-valid spec with sizes <= 4
        checked = 0
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                for m12 in range(max(m1, m2), m1 * m2 + 1):
                    spec = mkspec(2, [m1, m2, m12])
                    ok, _ = check_feasibility_necessary(spec)
                    if not ok:
                        continue
                    checked += 1
                    s = search(spec)
                    o = brute_force_oracle(spec)
                    assert s.status == o.status, spec.to_json()
                    if s.status is SearchStatus.FOUND:
                        assert_realizes(s, spec)
        assert checked >= 20

    def test_search_matches_oracle_on_small_n3_specs(self):
        checked = 0
        for sizes in ((2, 2, 2), (2, 2, 3), (1, 2, 4), (2, 3, 2), (2, 2, 4), (3, 2, 2)):
            m1, m2, m3 = sizes
            if m1 * m2 * m3 > 24:
                continue
            for m12 in range(1, m1 * m2 + 1):
                for m13 in range(1, m1 * m3 + 1):
                    for m23 in range(1, m2 * m3 + 1):
                        for m123 in range(1, m1 * m2 * m3 + 1):
                            spec = mkspec(3, [m1, m2, m3, m12, m13, m23, m123])
                            ok, _ = check_feasibility_necessary(spec)
                            if not ok:
                                continue
                            checked += 1
                            assert search(spec).status == brute_force_oracle(spec).status
        assert checked >= 20


class TestHints:
    def test_candidate_vector_hints(self):
        # independent pairs (h_13 = h_1 + h_3) are not hints; the candidate
        # has no functional dependence
        assert structural_hints(candidate_vector()) == ()

    def test_f_vector_has_no_hints(self):
        assert structural_hints(f_vector()) == ()

    def test_parity_vector_hints_include_functional_dependence(self):
        vec = entropy_vector(search(PARITY_SPEC).pmf)
        hints = structural_hints(vec)
        assert all(isinstance(h, FunctionalDependence) for h in hints)
        fd = {(tuple(sorted(h.base)), tuple(sorted(h.extension))) for h in hints}
        assert ((1, 2), (3,)) in fd

    def test_product_vector_hint(self):
        # X1 and X2 independent and uniform: no variable is a function of others
        spec = mkspec(2, [2, 2, 4])
        vec = entropy_vector(search(spec).pmf)
        assert structural_hints(vec) == ()

    def test_rejects_non_natural_vector(self):
        with pytest.raises(ValueError):
            structural_hints(g_vector())

    def test_hint_not_derived_from_spec_is_rejected(self):
        # h_12 != h_1 on the parity spec, so this dependence would prune
        # every realization of a feasible spec
        bogus = FunctionalDependence(frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError):
            search(PARITY_SPEC, hints=[bogus])
        assert search(PARITY_SPEC).status is SearchStatus.FOUND

    def test_hint_fields_must_be_frozensets(self):
        fd = next(h for h in structural_hints(PARITY_SPEC.vector()) if isinstance(h, FunctionalDependence))
        loose = FunctionalDependence(set(fd.base), set(fd.extension))
        assert loose == fd  # a set equals the frozenset, so membership alone passes
        with pytest.raises(ValueError, match="frozensets"):
            search(PARITY_SPEC, hints=[loose])

    def test_hint_indices_must_be_variables(self):
        with pytest.raises(ValueError, match="frozensets"):
            search(PARITY_SPEC, hints=[FunctionalDependence(frozenset({0}), frozenset({4}))])
        with pytest.raises(ValueError):
            search(PARITY_SPEC, hints=["not a hint"])

    def test_hint_check_matches_structural_hints_on_verdict_table(self):
        # the check compares integer sizes, structural_hints the exact logs
        hinted = 0
        for row in VERDICTS["specs"]:
            spec = mkspec(3, row["m"])
            derived = qusearch._dependences(spec.n, spec.m)
            assert derived == structural_hints(spec.vector()), row["m"]
            hinted += bool(derived)
        assert hinted > 0

    def test_spec_vector_is_log_sizes(self):
        assert F_SPEC.vector() == f_vector()
        assert CANDIDATE_SPEC.vector() == candidate_vector()

    def test_hints_preserve_feasibility_verdicts(self):
        # identities forced by counting can never exclude a realization
        for spec in (PARITY_SPEC, F_SPEC, mkspec(2, [2, 3, 6]), mkspec(2, [2, 2, 2])):
            vec = entropy_vector(search(spec).pmf)
            hints = structural_hints(vec)
            with_hints = search(spec, hints=hints)
            without = search(spec)
            assert with_hints.status == without.status is SearchStatus.FOUND
            assert_realizes(with_hints, spec)

    def test_hints_agree_with_oracle_on_n2_sweep(self):
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                for m12 in range(max(m1, m2), m1 * m2 + 1):
                    spec = mkspec(2, [m1, m2, m12])
                    ok, _ = check_feasibility_necessary(spec)
                    if not ok:
                        continue
                    vec = entropy_vector(brute_force_oracle(spec).pmf) \
                        if brute_force_oracle(spec).status is SearchStatus.FOUND else None
                    if vec is None:
                        continue
                    hints = structural_hints(vec)
                    assert search(spec, hints=hints).status is SearchStatus.FOUND
