"""Synthesis of quasi-uniform distributions matching target support sizes.

A quasi-uniform random vector with support sizes ``m_alpha`` is, up to
relabeling, a set S of ``m_[n]`` points in the grid ``prod_i [m_i]`` such
that for every nonempty subset alpha the projection of S onto alpha hits
exactly ``m_alpha`` distinct values, each with exactly
``m_[n] / m_alpha`` preimages in S.  The joint distribution is then
uniform on S and every marginal is constant on its support.

The search places support points in a fixed lexicographic cell order,
maintaining per-fiber counters with three families of pruning rules:

* overflow - a fiber may never exceed its quota, and a subset may never
  realize more distinct values than its target;
* completion - a realized fiber must still have enough cells ahead of the
  frontier to reach its quota, and enough fresh values (with full quota
  still available ahead) must remain to reach the target count;
* structure - optional hints derived from exact additive identities of
  the target vector: independence of two disjoint groups forces their
  joint projection to be the full product of the group projections, and
  an entropy-preserving extension forces a functional dependence.  Only
  identities that :func:`structural_hints` finds in the target are
  accepted, since any other hint could prune every realization.

Symmetry is broken by canonical relabeling: each variable's symbols must
appear in increasing order of first use along the placement order.  Every
support set is relabel-equivalent to one satisfying this rule, so the
rule is sound; it removes the ``prod_i m_i!`` relabeling factor.

An oracle that enumerates every support of the right size (for small
grids) provides an independent ground truth for validating the search.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import time
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .distributions import EntropyVector, JointPMF
from .logexact import LogLinear
from .polycone import in_gamma_n
from .subsets import Subset, canonical_order, parse_subset_name, subset_name

__all__ = [
    "Budget",
    "FunctionalDependence",
    "Independence",
    "SearchOutcome",
    "SearchStatus",
    "SupportSpec",
    "brute_force_oracle",
    "check_feasibility_necessary",
    "search",
    "spec_from_vector",
    "structural_hints",
]


@dataclass(frozen=True)
class SupportSpec:
    """Target support sizes per nonempty subset of variables."""

    n: int
    m: dict[Subset, int]

    def size(self, alpha: Iterable[int]) -> int:
        return self.m[frozenset(alpha)]

    @property
    def total(self) -> int:
        return self.m[frozenset(range(1, self.n + 1))]

    def alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(self.m[frozenset({i})] for i in range(1, self.n + 1))

    def vector(self) -> EntropyVector:
        """The log-size vector ``(log m_alpha)`` in canonical order."""
        return EntropyVector(self.n, [LogLinear.from_log_int(self.m[a]) for a in canonical_order(self.n)])

    def to_json(self) -> dict:
        return {"n": self.n, "m": {subset_name(a): v for a, v in sorted(self.m.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))}}

    @classmethod
    def from_json(cls, obj: dict) -> "SupportSpec":
        n = int(obj["n"])
        m = {parse_subset_name(name, n): int(v) for name, v in obj["m"].items()}
        return cls(n, m)


def check_feasibility_necessary(spec: SupportSpec) -> tuple[bool, Optional[str]]:
    """Validate the counting consequences of quasi-uniformity.

    True never guarantees a realization exists; False is a proof that none
    does, with the violated invariant as witness.
    """
    order = canonical_order(spec.n)
    for alpha in order:
        if alpha not in spec.m:
            return False, f"missing target size for subset {subset_name(alpha)}"
        if spec.m[alpha] < 1:
            return False, f"m_{subset_name(alpha)} must be a positive integer"
    for alpha in order:
        for i in range(1, spec.n + 1):
            if i in alpha:
                continue
            beta = alpha | {i}
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


def spec_from_vector(h: EntropyVector) -> Optional[SupportSpec]:
    """Lift a vector into a SupportSpec via the log-natural condition."""
    from .bounds import qu_necessary  # local import: bounds depends on polycone only

    sizes = qu_necessary(h)
    if sizes is None:
        return None
    spec = SupportSpec(h.n, dict(sizes))
    ok, _ = check_feasibility_necessary(spec)
    return spec if ok else None


# ---------------------------------------------------------------------------
# Structural hints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Independence:
    """Exact identity h_a + h_b = h_{a|b} for disjoint groups: the joint
    projection of any realization is the full product of the group
    projections."""

    alpha: Subset
    beta: Subset


@dataclass(frozen=True)
class FunctionalDependence:
    """Exact identity h_base = h_{base|ext}: on any realization the
    extension coordinates are a function of the base coordinates."""

    base: Subset
    extension: Subset


Hint = Independence | FunctionalDependence


def structural_hints(h: EntropyVector) -> tuple[Hint, ...]:
    """Detect additive identities of a log-natural target vector."""
    from .bounds import qu_necessary

    if qu_necessary(h) is None:
        raise ValueError("structural hints need a vector of logs of naturals")
    order = canonical_order(h.n)
    hints: list[Hint] = []
    for i, alpha in enumerate(order):
        for beta in order[i + 1:]:
            if alpha & beta:
                continue
            joint = h.coord(alpha | beta)
            if h.coord(alpha) + h.coord(beta) == joint:
                hints.append(Independence(alpha, beta))
    for alpha in order:
        for beta in order:
            if alpha & beta or not beta:
                continue
            if h.coord(alpha | beta) == h.coord(alpha):
                hints.append(FunctionalDependence(alpha, beta))
    return tuple(hints)


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 10_000_000
    max_seconds: float = 60.0


@unique
class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED_INFEASIBLE = "exhausted_infeasible"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    pmf: Optional[JointPMF]
    nodes_explored: int
    elapsed: float


class _FoundSupport(Exception):
    def __init__(self, support: list[int]):
        self.support = support


class _BudgetHit(Exception):
    pass


class _Engine:
    """Depth-first placement over grid cells with incremental fiber counts.

    Mutable state is per-instance; a fresh engine can explore any subtree
    independently, which is what the parallel driver relies on.
    """

    def __init__(self, spec: SupportSpec, hints: Sequence[Hint] = ()):
        self.n = spec.n
        self.sizes = spec.alphabet_sizes()
        self.m_total = spec.total
        self.subsets = list(canonical_order(spec.n))
        self.nsub = len(self.subsets)
        self.cells: list[tuple[int, ...]] = list(itertools.product(*[range(s) for s in self.sizes]))
        self.ncells = len(self.cells)

        # value enumeration per subset: mixed radix over the subset's coords
        self.sub_vars = [sorted(a) for a in self.subsets]
        self.nvals = [math.prod(self.sizes[i - 1] for i in sv) for sv in self.sub_vars]
        self.quota = [self.m_total // spec.m[a] for a in self.subsets]
        self.target = [spec.m[a] for a in self.subsets]

        self.pid: list[list[int]] = []
        for sv in self.sub_vars:
            strides = []
            acc = 1
            for i in reversed(sv):
                strides.append((i - 1, acc))
                acc *= self.sizes[i - 1]
            strides.reverse()
            self.pid.append([sum(cell[i] * s for i, s in strides) for cell in self.cells])

        grid_fiber = [self.ncells // nv for nv in self.nvals]
        self.counts = [[0] * nv for nv in self.nvals]
        self.future = [[grid_fiber[a]] * self.nvals[a] for a in range(self.nsub)]
        self.openable = [
            self.nvals[a] if grid_fiber[a] >= self.quota[a] else 0 for a in range(self.nsub)
        ]
        self.realized = [0] * self.nsub
        self.placed = 0
        self.maxused = [-1] * self.n
        self.chosen: list[int] = []

        sub_index = {a: k for k, a in enumerate(self.subsets)}
        # functional dependences: (base subset idx, joint subset idx)
        self.fd_pairs: list[tuple[int, int]] = []
        # independences: (a idx, b idx, joint idx, combine table, comp maps)
        self.indep: list[tuple[int, int, int, list[list[int]], list[int], list[int]]] = []
        self.realized_sets: dict[int, set[int]] = {}
        for hint in hints:
            if isinstance(hint, FunctionalDependence):
                self.fd_pairs.append((sub_index[hint.base], sub_index[hint.base | hint.extension]))
            elif isinstance(hint, Independence):
                ia, ib = sub_index[hint.alpha], sub_index[hint.beta]
                ij = sub_index[hint.alpha | hint.beta]
                table = [[0] * self.nvals[ib] for _ in range(self.nvals[ia])]
                comp_a = [0] * self.nvals[ij]
                comp_b = [0] * self.nvals[ij]
                for vj, tup in enumerate(itertools.product(*[range(self.sizes[i - 1]) for i in self.sub_vars[ij]])):
                    coord = dict(zip(self.sub_vars[ij], tup))
                    va = self._encode(ia, coord)
                    vb = self._encode(ib, coord)
                    table[va][vb] = vj
                    comp_a[vj] = va
                    comp_b[vj] = vb
                self.indep.append((ia, ib, ij, table, comp_a, comp_b))
                self.realized_sets.setdefault(ia, set())
                self.realized_sets.setdefault(ib, set())

        self.nodes = 0
        self._deadline = float("inf")
        self._max_nodes = 0

    def _encode(self, a: int, coord: dict[int, int]) -> int:
        vid = 0
        for i in self.sub_vars[a]:
            vid = vid * self.sizes[i - 1] + coord[i]
        return vid

    # -- frontier advance (shared by include and exclude) ------------------

    def _advance(self, ci: int) -> bool:
        """Move the frontier past cell ci; returns False when some fiber
        becomes impossible to finish.  Mutations are applied in full either
        way so that _retreat restores the state exactly."""
        ok = True
        for a in range(self.nsub):
            v = self.pid[a][ci]
            fut = self.future[a]
            fut[v] -= 1
            f = fut[v]
            c = self.counts[a][v]
            q = self.quota[a]
            if c > 0:
                if c < q and c + f < q:
                    ok = False
            else:
                if f == q - 1:
                    self.openable[a] -= 1
                    if self.openable[a] < self.target[a] - self.realized[a]:
                        ok = False
                if f < q:
                    for ia, ib, ij, _table, comp_a, comp_b in self.indep:
                        if ij == a:
                            if (
                                comp_a[v] in self.realized_sets[ia]
                                and comp_b[v] in self.realized_sets[ib]
                            ):
                                ok = False
        return ok

    def _retreat(self, ci: int) -> None:
        for a in range(self.nsub):
            v = self.pid[a][ci]
            fut = self.future[a]
            fut[v] += 1
            if self.counts[a][v] == 0 and fut[v] == self.quota[a]:
                self.openable[a] += 1

    # -- include / exclude -------------------------------------------------

    def _try_include(self, ci: int) -> Optional[list[int]]:
        """Place a support point at cell ci.  Returns the list of variables
        whose symbol high-water mark was bumped (undo data), or None if the
        placement is rejected; rejected placements leave no state change."""
        cell = self.cells[ci]
        for i in range(self.n):
            if cell[i] > self.maxused[i] + 1:
                return None
        for a in range(self.nsub):
            v = self.pid[a][ci]
            c = self.counts[a][v]
            if c >= self.quota[a]:
                return None
            if c == 0 and self.realized[a] >= self.target[a]:
                return None
        for base, joint in self.fd_pairs:
            if self.counts[base][self.pid[base][ci]] > 0 and self.counts[joint][self.pid[joint][ci]] == 0:
                return None

        realize_events: list[tuple[int, int]] = []
        for a in range(self.nsub):
            v = self.pid[a][ci]
            self.counts[a][v] += 1
            if self.counts[a][v] == 1:
                self.realized[a] += 1
                if self.future[a][v] >= self.quota[a]:
                    self.openable[a] -= 1
                if a in self.realized_sets:
                    self.realized_sets[a].add(v)
                realize_events.append((a, v))
        bumps: list[int] = []
        for i in range(self.n):
            if cell[i] == self.maxused[i] + 1:
                self.maxused[i] = cell[i]
                bumps.append(i)
        self.placed += 1
        self.chosen.append(ci)

        ok = True
        for ia, ib, ij, table, _ca, _cb in self.indep:
            for a, v in realize_events:
                if a == ia:
                    for vb in self.realized_sets[ib]:
                        vj = table[v][vb]
                        if self.counts[ij][vj] == 0 and self.future[ij][vj] < self.quota[ij]:
                            ok = False
                elif a == ib:
                    for va in self.realized_sets[ia]:
                        vj = table[va][v]
                        if self.counts[ij][vj] == 0 and self.future[ij][vj] < self.quota[ij]:
                            ok = False
        if ok:
            ok = self._advance(ci)
        if ok:
            return bumps
        self._undo_include(ci, bumps)
        return None

    def _undo_include(self, ci: int, bumps: list[int]) -> None:
        self._retreat(ci)
        self.chosen.pop()
        self.placed -= 1
        for i in bumps:
            self.maxused[i] -= 1
        for a in range(self.nsub):
            v = self.pid[a][ci]
            self.counts[a][v] -= 1
            if self.counts[a][v] == 0:
                self.realized[a] -= 1
                if self.future[a][v] >= self.quota[a]:
                    self.openable[a] += 1
                if a in self.realized_sets:
                    self.realized_sets[a].discard(v)

    # -- depth-first search --------------------------------------------------

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self._max_nodes:
            raise _BudgetHit
        if self.nodes % 2048 == 0 and time.monotonic() > self._deadline:
            raise _BudgetHit

    def _dfs(self, ci: int) -> None:
        self._tick()
        if self.placed == self.m_total:
            # quota accounting makes any full placement a valid support
            raise _FoundSupport(list(self.chosen))
        if ci == self.ncells or self.ncells - ci < self.m_total - self.placed:
            return
        bumps = self._try_include(ci)
        if bumps is not None:
            self._dfs(ci + 1)
            self._undo_include(ci, bumps)
        if self._advance(ci):
            self._dfs(ci + 1)
        self._retreat(ci)

    def replay_prefix(self, prefix: Sequence[bool]) -> bool:
        """Apply include/exclude decisions for cells 0..len(prefix)-1."""
        for ci, take in enumerate(prefix):
            if take:
                if self._try_include(ci) is None:
                    return False
            else:
                if not self._advance(ci):
                    self._retreat(ci)
                    return False
        return True

    def run(self, max_nodes: int, deadline: float, start_cell: int = 0) -> tuple[SearchStatus, Optional[list[int]]]:
        self._max_nodes = max_nodes
        self._deadline = deadline
        try:
            self._dfs(start_cell)
        except _FoundSupport as hit:
            return SearchStatus.FOUND, hit.support
        except _BudgetHit:
            return SearchStatus.BUDGET_EXCEEDED, None
        return SearchStatus.EXHAUSTED_INFEASIBLE, None

    def pmf_from_support(self, support: Sequence[int]) -> JointPMF:
        p = Fraction(1, self.m_total)
        return JointPMF(self.sizes, {self.cells[ci]: p for ci in support})


def _require_valid(spec: SupportSpec) -> None:
    ok, witness = check_feasibility_necessary(spec)
    if not ok:
        raise ValueError(f"spec fails necessary feasibility: {witness}")


def _parallel_task(payload) -> tuple[str, Optional[list[int]], int]:
    spec, hints, prefix, max_nodes, deadline = payload
    engine = _Engine(spec, hints)
    if not engine.replay_prefix(prefix):
        return SearchStatus.EXHAUSTED_INFEASIBLE.value, None, 0
    status, support = engine.run(max_nodes, deadline, start_cell=len(prefix))
    return status.value, support, engine.nodes


def _frontier_prefixes(spec: SupportSpec, hints: Sequence[Hint], min_leaves: int) -> tuple[Optional[list[int]], list[tuple[bool, ...]]]:
    """Expand the decision tree breadth-first until enough live subtree
    roots exist.  Returns (solution, prefixes); a solution short-circuits."""
    level: list[tuple[bool, ...]] = [()]
    depth = 0
    grid = math.prod(spec.alphabet_sizes())
    while len(level) < min_leaves and depth < grid:
        nxt: list[tuple[bool, ...]] = []
        for prefix in level:
            engine = _Engine(spec, hints)
            if not engine.replay_prefix(prefix):
                continue
            if engine.placed == engine.m_total:
                return list(engine.chosen), []
            for take in (True, False):
                nxt.append(prefix + (take,))
        if not nxt:
            return None, []
        level = nxt
        depth += 1
    return None, level


def search(
    spec: SupportSpec,
    budget: Optional[Budget] = None,
    hints: Sequence[Hint] = (),
    workers: int = 1,
) -> SearchOutcome:
    """Look for a support realizing the spec; uniform PMF on success.

    Single-worker mode (the default) is fully deterministic: identical
    spec, hints and budget reproduce the same outcome and witness.  With
    workers > 1 subtrees are explored in separate processes and the first
    witness wins, so the witness may vary between runs.

    Every hint must be one of ``structural_hints(spec.vector())``; any
    other hint raises ValueError, because it could prune every realization
    and turn a feasible spec into a false EXHAUSTED_INFEASIBLE.
    """
    _require_valid(spec)
    if hints:
        derived = structural_hints(spec.vector())
        if not all(hint in derived for hint in hints):
            raise ValueError("hints must be identities of the spec's log-size vector (structural_hints)")
    budget = budget or Budget()
    start = time.monotonic()
    deadline = start + budget.max_seconds

    if workers <= 1:
        engine = _Engine(spec, hints)
        status, support = engine.run(budget.max_nodes, deadline)
        pmf = engine.pmf_from_support(support) if support is not None else None
        return SearchOutcome(status, pmf, engine.nodes, time.monotonic() - start)

    solution, prefixes = _frontier_prefixes(spec, hints, min_leaves=workers * 4)
    if solution is not None:
        pmf = _Engine(spec, hints).pmf_from_support(solution)
        return SearchOutcome(SearchStatus.FOUND, pmf, len(solution), time.monotonic() - start)
    if not prefixes:
        return SearchOutcome(SearchStatus.EXHAUSTED_INFEASIBLE, None, 0, time.monotonic() - start)

    share = max(1, budget.max_nodes // len(prefixes))
    payloads = [
        (spec, hints, prefix, share, deadline) for prefix in prefixes
    ]
    total_nodes = 0
    budget_hit = False
    found: Optional[list[int]] = None
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=workers) as pool:
        for status_str, support, nodes in pool.imap_unordered(_parallel_task, payloads):
            total_nodes += nodes
            if status_str == SearchStatus.FOUND.value:
                found = support
                pool.terminate()
                break
            if status_str == SearchStatus.BUDGET_EXCEEDED.value:
                budget_hit = True
    elapsed = time.monotonic() - start
    if found is not None:
        return SearchOutcome(SearchStatus.FOUND, _Engine(spec, hints).pmf_from_support(found), total_nodes, elapsed)
    status = SearchStatus.BUDGET_EXCEEDED if budget_hit else SearchStatus.EXHAUSTED_INFEASIBLE
    return SearchOutcome(status, None, total_nodes, elapsed)


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
    for alpha in order:
        if alpha not in spec.m or spec.m[alpha] < 1:
            raise ValueError(f"missing or invalid target for {subset_name(alpha)}")
    total = spec.total
    start = time.monotonic()
    if total > grid:
        return SearchOutcome(SearchStatus.EXHAUSTED_INFEASIBLE, None, 0, time.monotonic() - start)

    cells = list(itertools.product(*[range(s) for s in sizes]))
    sub_vars = [sorted(a) for a in order]
    pid = []
    nvals = []
    for sv in sub_vars:
        table = []
        for cell in cells:
            vid = 0
            for i in sv:
                vid = vid * sizes[i - 1] + cell[i - 1]
            table.append(vid)
        pid.append(table)
        nvals.append(math.prod(sizes[i - 1] for i in sv))
    target = [spec.m[a] for a in order]

    examined = 0
    for combo in itertools.combinations(range(grid), total):
        examined += 1
        good = True
        for a in range(len(order)):
            counts: dict[int, int] = {}
            row = pid[a]
            for ci in combo:
                counts[row[ci]] = counts.get(row[ci], 0) + 1
            values = set(counts.values())
            if len(counts) != target[a] or len(values) != 1:
                good = False
                break
        if good:
            p = Fraction(1, total)
            pmf = JointPMF(sizes, {cells[ci]: p for ci in combo})
            return SearchOutcome(SearchStatus.FOUND, pmf, examined, time.monotonic() - start)
    return SearchOutcome(SearchStatus.EXHAUSTED_INFEASIBLE, None, examined, time.monotonic() - start)
