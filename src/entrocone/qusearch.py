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
one value of one subset's projection; every fiber of every subset has one
id, and flat arrays indexed by it hold the points placed in the fiber and
the cells still ahead of the frontier.
Each cell lists its ``(subset, fiber id)`` pairs once, at engine build, so
one decision touches ``2**n - 1`` array slots.  Three families of pruning
rules run on these counters:

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

    A fiber is one value of one subset's projection.  All fibers share the
    flat ``counts`` and ``future`` arrays, indexed by a fiber id (the
    subset's offset plus the mixed-radix value of its coordinates), and
    each cell carries the tuple of its ``(subset, fiber id)`` pairs.  Its
    ``fd_checks`` tuple holds one ``(base fiber, joint fiber)`` pair per
    functional dependence hint: including the cell needs the joint fiber
    realized whenever the base fiber is.  Without hints the tuples are
    empty, so hinted and plain runs take the same path.  :meth:`run` walks
    the tree in one loop; ``_try_include``/``_undo_include`` and
    ``_advance``/``_retreat`` are the two branches of a cell and their undo.
    """

    def __init__(self, spec: SupportSpec, hints: Sequence[FunctionalDependence] = ()):
        self.n = spec.n
        self.sizes = sizes = spec.alphabet_sizes()
        self.m_total = spec.total
        subsets = canonical_order(spec.n)
        self.cells: list[tuple[int, ...]] = list(itertools.product(*[range(s) for s in sizes]))
        self.ncells = ncells = len(self.cells)

        # fiber id = offset of the subset + sum of coord * stride
        strides: list[list[tuple[int, int]]] = []
        nvals = []
        for a in subsets:
            acc = 1
            strides.append([])
            for i in sorted(a, reverse=True):
                strides[-1].append((i - 1, acc))
                acc *= sizes[i - 1]
            nvals.append(acc)
        offset = list(itertools.accumulate(nvals, initial=0))
        columns = list(zip(*self.cells))
        fiber_columns = []
        for a, subset_strides in enumerate(strides):
            col = [offset[a]] * ncells
            for i, s in subset_strides:
                col = [f + x * s for f, x in zip(col, columns[i])]
            fiber_columns.append(zip(itertools.repeat(a), col))
        self.cell_fibers: list[tuple[tuple[int, int], ...]] = list(zip(*fiber_columns))

        # per subset: points per realized fiber, fibers to realize, fibers
        # realized so far and empty fibers that can still reach the quota
        self.quota = [self.m_total // spec.m[a] for a in subsets]
        self.target = [spec.m[a] for a in subsets]
        self.realized = [0] * len(subsets)
        self.openable = []
        # per fiber: points placed and cells not yet decided
        self.counts = [0] * offset[-1]
        self.future = []
        for a, nv in enumerate(nvals):
            grid_fiber = ncells // nv
            self.future += [grid_fiber] * nv
            self.openable.append(nv if grid_fiber >= self.quota[a] else 0)
        self.maxused = [-1] * self.n
        self.chosen: list[int] = []
        sub_index = {a: k for k, a in enumerate(subsets)}
        fd = [(sub_index[h.base], sub_index[h.base | h.extension]) for h in hints]
        self.fd_checks: list[tuple[tuple[int, int], ...]] = [()] * ncells
        if fd:
            self.fd_checks = [tuple((fibers[b][1], fibers[j][1]) for b, j in fd) for fibers in self.cell_fibers]

        self.nodes = 0

    # -- frontier advance past an excluded cell ------------------------------

    def _advance(self, ci: int) -> bool:
        """Move the frontier past cell ci, left empty; returns False when
        some fiber becomes impossible to finish.  Mutations are applied in
        full either way so that _retreat restores the state exactly."""
        counts, future, quota = self.counts, self.future, self.quota
        ok = True
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
        bumps: tuple[int, ...] = ()
        for i, x in enumerate(self.cells[ci]):
            if x > maxused[i]:
                if x > maxused[i] + 1:
                    return None
                bumps += (i,)
        counts, quota, realized, target = self.counts, self.quota, self.realized, self.target
        fibers = self.cell_fibers[ci]
        for a, f in fibers:
            c = counts[f]
            if c >= quota[a] or not c and realized[a] >= target[a]:
                return None
        for base, joint in self.fd_checks[ci]:
            if counts[base] and not counts[joint]:
                return None

        # place the point and move the frontier in one pass: a fiber holding
        # the point is never empty, so of _advance's rules only the capacity
        # rule applies
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

        The walk keeps its stack in ``branch``: the depth is the cell index,
        and ``branch[ci]`` holds the undo bumps of the placement at cell ci
        being explored, or None once only the empty branch is left there.
        Each cell tries the placement before leaving the cell empty.  One
        node is counted per visited state; the budget is checked at each
        count and the clock every 2048 nodes."""
        ncells, m_total, chosen = self.ncells, self.m_total, self.chosen
        try_include, undo_include = self._try_include, self._undo_include
        advance, retreat, clock = self._advance, self._retreat, time.monotonic
        branch: list[Optional[tuple[int, ...]]] = [None] * ncells
        nodes = self.nodes
        ci = 0
        while True:
            # visit the state whose frontier is cell ci
            nodes += 1
            if nodes > max_nodes or not nodes % 2048 and clock() > deadline:
                self.nodes = nodes
                return SearchStatus.BUDGET_EXCEEDED, None
            need = m_total - len(chosen)
            if not need:
                # quota accounting makes any full placement a valid support
                self.nodes = nodes
                return SearchStatus.FOUND, list(chosen)
            if ncells - ci >= need:
                bumps = try_include(ci)
                if bumps is None and not advance(ci):
                    retreat(ci)
                else:
                    branch[ci] = bumps
                    ci += 1
                    continue
            # the subtree is done: back up to the deepest cell with a branch left
            while True:
                ci -= 1
                if ci < 0:
                    self.nodes = nodes
                    return SearchStatus.EXHAUSTED_INFEASIBLE, None
                bumps = branch[ci]
                if bumps is None:
                    retreat(ci)
                    continue
                undo_include(ci, bumps)
                if advance(ci):
                    branch[ci] = None
                    ci += 1
                    break
                retreat(ci)

    def pmf_from_support(self, support: Sequence[int]) -> JointPMF:
        p = Fraction(1, self.m_total)
        return JointPMF(self.sizes, {self.cells[ci]: p for ci in support})


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
