"""Synthesis of quasi-uniform distributions matching target support sizes.

A quasi-uniform random vector with support sizes ``m_alpha`` is, up to
relabeling, a set S of ``m_[n]`` points in the grid ``prod_i [m_i]`` such
that for every nonempty subset alpha the projection of S onto alpha hits
exactly ``m_alpha`` distinct values, each with exactly
``m_[n] / m_alpha`` preimages in S.  The joint distribution is then
uniform on S and every marginal is constant on its support.

The search is a depth-first walk over the grid cells in lexicographic
order that decides, cell by cell, to include the cell as a support point
or to leave it empty.  The walk is one loop over an explicit stack with
one entry per cell, so the grid size sets no recursion limit.  A fiber is
one value of one proper subset's projection (the full set's fibers are
single cells, whose rules reduce to a count of the cells left); flat
arrays indexed by fiber id hold the points placed in each fiber and the
cells still ahead of the frontier.  Each cell's ``(subset, fiber id)``
pairs are tabulated when the walk first reaches it, so one decision
touches ``2**n - 2`` array slots, and a run of N nodes tabulates at most
``max(2N, 1024)`` cells.  Three families of pruning rules run on these
counters:

* overflow - a fiber may never exceed its quota, and a subset may never
  realize more distinct values than its target;
* completion - a realized fiber must still have enough cells ahead of the
  frontier to reach its quota, and enough fresh values (with full quota
  still available ahead) must remain to reach the target count;
* structure - optional hints: an extension of a group of variables that
  leaves its target size unchanged forces a functional dependence, so a
  point may join a realized fiber of the group only inside the one joint
  fiber already realized there.  Only the dependences that
  :func:`structural_hints` finds in the target are accepted, since any
  other hint could prune every realization.  Hints become per-cell tuples
  of fiber ids checked on the same arrays; they are empty without hints,
  so hinted and plain runs share one code path.

Symmetry is broken by canonical relabeling: each variable's symbols must
appear in increasing order of first use along the placement order.  Every
support set is relabel-equivalent to one satisfying this rule, so the
rule is sound; it removes the ``prod_i m_i!`` relabeling factor.

One walk decides each spec, so the same spec, hints and budget always give
the same outcome, node count and witness.

An oracle that enumerates every support of the right size (for small
grids) provides an independent ground truth for validating the search.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .distributions import EntropyVector, JointPMF
from .logexact import LogLinear
from .polycone import in_gamma_n
from .subsets import MAX_VARS, Subset, canonical_order, parse_subset_name, subset_name

__all__ = [
    "Budget",
    "FunctionalDependence",
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

    def __post_init__(self) -> None:
        """The one definition of a valid spec; raises ValueError otherwise.
        n is an integer in 1..MAX_VARS (checked before any subset is
        listed), the keys of m are exactly the nonempty subsets of 1..n,
        and every size is an integer of at least 1."""
        if type(self.n) is not int or not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count {self.n!r} outside the supported range 1..{MAX_VARS}")
        order = canonical_order(self.n)
        for alpha in order:
            if alpha not in self.m:
                raise ValueError(f"missing target size for subset {subset_name(alpha)}")
            if type(self.m[alpha]) is not int or self.m[alpha] < 1:
                raise ValueError(f"m_{subset_name(alpha)} must be a positive integer, got {self.m[alpha]!r}")
        if len(self.m) != len(order):
            raise ValueError(f"a target size is given for a set that is not a nonempty subset of 1..{self.n}")

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
        """Parse ``{"n": .., "m": {name: size}}``; raises ValueError on a
        malformed spec.  Subset names are read without reference to n."""
        if not isinstance(obj, dict) or not isinstance(obj.get("m"), dict):
            raise ValueError("spec must be an object with 'n' and an object 'm'")
        m = {parse_subset_name(name): v for name, v in obj["m"].items()}
        if len(m) != len(obj["m"]):
            raise ValueError("a subset is named more than once")
        return cls(obj.get("n"), m)


def check_feasibility_necessary(spec: SupportSpec) -> tuple[bool, Optional[str]]:
    """Validate the counting consequences of quasi-uniformity.

    True never guarantees a realization exists; False is a proof that none
    does, with the violated invariant as witness.
    """
    for alpha in canonical_order(spec.n):
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
class FunctionalDependence:
    """Exact identity h_base = h_{base|ext}: on any realization the
    extension coordinates are a function of the base coordinates."""

    base: Subset
    extension: Subset


def structural_hints(h: EntropyVector) -> tuple[FunctionalDependence, ...]:
    """The functional dependences of a log-natural target vector: every
    pair of disjoint groups with h_base = h_{base|ext}."""
    from .bounds import qu_necessary

    if qu_necessary(h) is None:
        raise ValueError("structural hints need a vector of logs of naturals")
    order = canonical_order(h.n)
    return tuple(
        FunctionalDependence(alpha, beta)
        for alpha in order
        for beta in order
        if not alpha & beta and h.coord(alpha | beta) == h.coord(alpha)
    )


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 10_000_000
    max_seconds: float = 60.0

    def __post_init__(self):
        if type(self.max_nodes) is not int or self.max_nodes < 1:
            raise ValueError(f"max_nodes must be an integer of at least 1, not {self.max_nodes!r}")
        if not self.max_seconds > 0:  # also false for NaN; inf is no time limit
            raise ValueError(f"max_seconds must be positive, not {self.max_seconds!r}")


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


class _Engine:
    """Depth-first placement over grid cells with incremental fiber counts.

    The fibers of the proper subsets share the flat ``counts`` and
    ``future`` arrays, indexed by fiber id, and each cell carries the tuple
    of its ``(subset, fiber id)`` pairs, singletons first.  The full set's
    fibers hold no slot: their one live rule, enough cells left for the
    points still needed, is a count in :meth:`_advance`.  A cell's
    ``fd_checks`` tuple holds one ``(base fiber, joint fiber)`` pair per
    functional dependence hint: including the cell needs the joint fiber
    realized whenever the base fiber is.  A hint joint to the full set is
    dropped, as its base has quota 1 and the overflow rule already rejects
    those placements.  Without hints the tuples are empty, so hinted and
    plain runs take the same path.  :meth:`_extend` builds the per-cell
    tables in doubling chunks as the frontier reaches them.  :meth:`run`
    walks the tree in one loop; ``_try_include``/``_undo_include`` and
    ``_advance``/``_retreat`` are the two branches of a cell and their undo.
    """

    def __init__(self, spec: SupportSpec, hints: Sequence[FunctionalDependence] = ()):
        self.n = spec.n
        self.sizes = sizes = spec.alphabet_sizes()
        self.m_total = spec.total
        self.ncells = math.prod(sizes)
        subsets = canonical_order(spec.n)[:-1]

        # a cell's fiber id in subset a is a's offset plus the mixed-radix
        # value of the cell's coordinates in a; per variable, the part of the
        # id that each of its values gives (stride 0 outside a)
        self.id_parts, nvals = [], []
        for a in subsets:
            strides, nv = [0] * self.n, 1
            for i in sorted(a, reverse=True):
                strides[i - 1], nv = nv, nv * sizes[i - 1]
            self.id_parts.append([(sum(nvals),)] + [[x * w for x in range(s)] for s, w in zip(sizes, strides)])
            nvals.append(nv)
        offset = list(itertools.accumulate(nvals, initial=0))

        # per subset: points per realized fiber, fibers to realize, fibers
        # realized so far and empty fibers that can still reach the quota
        self.quota = [self.m_total // spec.m[a] for a in subsets]
        self.target = [spec.m[a] for a in subsets]
        self.realized = [0] * len(subsets)
        self.openable = [nv if self.ncells // nv >= q else 0 for nv, q in zip(nvals, self.quota)]
        # per fiber: points placed and cells not yet decided
        self.counts = [0] * offset[-1]
        self.future = list(itertools.chain.from_iterable([self.ncells // nv] * nv for nv in nvals))
        # per variable: the highest singleton fiber id used so far
        self.maxused = [offset[i] - 1 for i in range(self.n)]
        self.chosen: list[int] = []
        sub_index = {a: k for k, a in enumerate(subsets)}
        joints = [(h.base, h.base | h.extension) for h in hints]
        self.fd = [(sub_index[base], sub_index[joint]) for base, joint in joints if joint in sub_index]
        self.cell_fibers: list[tuple[tuple[int, int], ...]] = []
        self.fd_checks: list[tuple[tuple[int, int], ...]] = []
        self.nodes = 0

    def _extend(self) -> int:
        """Tabulate the next chunk of cells, as many again as are built (at
        least 1024, at most to the end of the grid); returns the cells built."""
        lo = len(self.cell_fibers)
        hi = min(max(2 * lo, 1024), self.ncells)
        # the product runs over the cells in grid order
        ids = [zip(itertools.repeat(k), map(sum, itertools.islice(itertools.product(*parts), lo, hi)))
               for k, parts in enumerate(self.id_parts)]
        # with n = 1 there is no proper subset, and a cell has no fiber
        chunk = list(zip(*ids)) or [()] * (hi - lo)
        self.cell_fibers += chunk
        fd = self.fd
        self.fd_checks += [tuple((fb[b][1], fb[j][1]) for b, j in fd) for fb in chunk] if fd else [()] * len(chunk)
        return len(self.cell_fibers)

    # -- frontier advance past an excluded cell ------------------------------

    def _advance(self, ci: int) -> bool:
        """Move the frontier past cell ci, left empty; returns False when
        some fiber becomes impossible to finish or too few cells are left
        for the points still needed.  Mutations are applied in full either
        way so that _retreat restores the state exactly."""
        counts, future, quota = self.counts, self.future, self.quota
        ok = self.ncells - ci - 1 >= self.m_total - len(self.chosen)
        for a, f in self.cell_fibers[ci]:
            fu = future[f] - 1
            future[f] = fu
            c = counts[f]
            q = quota[a]
            if c:
                if c < q and c + fu < q:
                    ok = False
            elif fu == q - 1:
                self.openable[a] -= 1
                if self.openable[a] < self.target[a] - self.realized[a]:
                    ok = False
        return ok

    def _retreat(self, ci: int) -> None:
        counts, future, quota, openable = self.counts, self.future, self.quota, self.openable
        for a, f in self.cell_fibers[ci]:
            fu = future[f] + 1
            future[f] = fu
            if fu == quota[a] and not counts[f]:
                openable[a] += 1

    # -- include / undo ------------------------------------------------------

    def _try_include(self, ci: int) -> Optional[tuple[int, ...]]:
        """Place a support point at cell ci and move the frontier past it.
        Returns the variables whose symbol high-water mark was bumped (undo
        data), or None if the placement is rejected; rejected placements
        leave no state change."""
        maxused = self.maxused
        fibers = self.cell_fibers[ci]
        bumps: tuple[int, ...] = ()
        # singleton i has subset index i; with n = 1 there is none, and the
        # one spec, every cell in the support, needs no relabeling rule
        for i, f in fibers[: self.n]:
            if f > maxused[i]:
                if f > maxused[i] + 1:
                    return None
                bumps += (i,)
        counts, quota, realized, target = self.counts, self.quota, self.realized, self.target
        for a, f in fibers:
            c = counts[f]
            if c >= quota[a] or not c and realized[a] >= target[a]:
                return None
        for base, joint in self.fd_checks[ci]:
            if counts[base] and not counts[joint]:
                return None

        # place the point and move the frontier in one pass: the point is one
        # of those still needed and its fibers are not empty, so of
        # _advance's rules only the capacity rule applies
        future, openable = self.future, self.openable
        ok = True
        for a, f in fibers:
            c = counts[f] + 1
            counts[f] = c
            fu = future[f] - 1
            future[f] = fu
            q = quota[a]
            if c == 1:
                realized[a] += 1
                if fu >= q - 1:
                    openable[a] -= 1
            if c < q and c + fu < q:
                ok = False
        for i in bumps:
            maxused[i] += 1
        self.chosen.append(ci)
        if ok:
            return bumps
        self._undo_include(ci, bumps)
        return None

    def _undo_include(self, ci: int, bumps: tuple[int, ...]) -> None:
        self.chosen.pop()
        for i in bumps:
            self.maxused[i] -= 1
        counts, future, quota, realized, openable = self.counts, self.future, self.quota, self.realized, self.openable
        for a, f in self.cell_fibers[ci]:
            fu = future[f] + 1
            future[f] = fu
            c = counts[f] - 1
            counts[f] = c
            if not c:
                realized[a] -= 1
                if fu >= quota[a]:
                    openable[a] += 1

    # -- depth-first search --------------------------------------------------

    def run(self, max_nodes: int, deadline: float) -> tuple[SearchStatus, Optional[list[int]]]:
        """Explore every completion of the start state, cell 0 first, and
        return the verdict with the support found, if any.

        ``branch`` is the stack, one entry per cell before the frontier ci:
        the undo bumps of the placement being explored there, or None once
        only the empty branch is left.  Each cell tries the placement before
        leaving the cell empty.  One node is counted per visited state; the
        budget is checked at each count and the clock every 2048 nodes.  A
        node moves the frontier by at most one cell, so N nodes reach no
        cell past N - 1, and a cell's tables are built when it is reached."""
        m_total, chosen = self.m_total, self.chosen
        try_include, undo_include = self._try_include, self._undo_include
        advance, retreat, clock = self._advance, self._retreat, time.monotonic
        branch: list[Optional[tuple[int, ...]]] = []
        built = len(self.cell_fibers)
        nodes = self.nodes
        ci = 0
        while True:
            # visit the state whose frontier is cell ci
            nodes += 1
            if nodes > max_nodes or not nodes % 2048 and clock() > deadline:
                self.nodes = nodes
                return SearchStatus.BUDGET_EXCEEDED, None
            if len(chosen) == m_total:
                # quota accounting makes any full placement a valid support
                self.nodes = nodes
                return SearchStatus.FOUND, list(chosen)
            # _advance keeps a cell for every point still needed, so the
            # frontier is still inside the grid
            if ci == built:
                built = self._extend()
            bumps = try_include(ci)
            if bumps is not None or advance(ci):
                branch.append(bumps)
                ci += 1
                continue
            retreat(ci)
            # the subtree is done: back up to the deepest cell with a branch left
            while True:
                if not branch:
                    self.nodes = nodes
                    return SearchStatus.EXHAUSTED_INFEASIBLE, None
                ci -= 1
                bumps = branch.pop()
                if bumps is None:
                    retreat(ci)
                    continue
                undo_include(ci, bumps)
                if advance(ci):
                    branch.append(None)
                    ci += 1
                    break
                retreat(ci)

    def pmf_from_support(self, support: Sequence[int]) -> JointPMF:
        p = Fraction(1, self.m_total)
        radix = [(math.prod(self.sizes[i + 1:]), s) for i, s in enumerate(self.sizes)]  # last variable fastest
        return JointPMF(self.sizes, dict.fromkeys(zip(*[[ci // d % s for ci in support] for d, s in radix]), p))


def _check_hints(spec: SupportSpec, hints: Sequence[FunctionalDependence]) -> None:
    """Reject any hint that is not one of the spec's structural hints.  The
    fields must be frozensets too: a set field compares equal to one."""
    derived = structural_hints(spec.vector())
    for hint in hints:
        if hint not in derived or not all(isinstance(g, frozenset) for g in (hint.base, hint.extension)):
            raise ValueError(f"hint {hint!r} is not one of structural_hints(spec.vector()) with frozensets for fields")


def search(
    spec: SupportSpec, budget: Optional[Budget] = None, hints: Sequence[FunctionalDependence] = ()
) -> SearchOutcome:
    """Look for a support realizing the spec; uniform PMF on success.

    Deterministic: identical spec, hints and budget reproduce the same
    outcome, node count and witness.

    Every hint must be one of the functional dependences that
    ``structural_hints(spec.vector())`` returns, with frozenset fields;
    any other hint raises ValueError, because it could prune every
    realization and turn a feasible spec into a false EXHAUSTED_INFEASIBLE.
    """
    ok, witness = check_feasibility_necessary(spec)
    if not ok:
        raise ValueError(f"spec fails necessary feasibility: {witness}")
    if hints:
        _check_hints(spec, hints)
    budget = budget or Budget()
    start = time.monotonic()
    engine = _Engine(spec, hints)
    status, support = engine.run(budget.max_nodes, start + budget.max_seconds)
    pmf = engine.pmf_from_support(support) if support is not None else None
    return SearchOutcome(status, pmf, engine.nodes, time.monotonic() - start)


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
