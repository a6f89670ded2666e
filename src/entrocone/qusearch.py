"""Synthesis of quasi-uniform distributions matching target support sizes.

A quasi-uniform random vector with support sizes ``m_alpha`` is, up to
relabeling, a set S of ``m_[n]`` points in the grid ``prod_i [m_i]`` such
that for every nonempty subset alpha the projection of S onto alpha hits
exactly ``m_alpha`` distinct values, each with exactly
``m_[n] / m_alpha`` preimages in S.  The joint distribution is then
uniform on S and every marginal is constant on its support.

The search is a depth-first walk over decision blocks in a fixed order
that decides, block by block, to include the block in the support or to
leave it empty.  A block is one grid cell, or one orbit of the diagonal
shift ``g: x -> x + (1,..,1) mod (m_1,..,m_n)``.  :func:`search` runs in
three fixed steps, counted in nodes so that results are deterministic:

1. the walk over cells, in lexicographic order, for up to 2,048 nodes;
2. if still undecided, the orbit phase, a walk over the orbits of g, for up
   to 2,048 nodes; it searches only supports invariant under g;
3. if that finds nothing, the walk over cells resumes where it stopped,
   on what is left of the budget.

Only FOUND ends the search in the orbit phase.  An exhausted orbit walk
means only that no support is invariant under g, never that the spec is
infeasible, so it is not reported.

The walk is one loop over an explicit stack with one entry per block, so
the grid size sets no recursion limit.  A fiber is one value of one proper
subset's projection (the full set's fibers are single cells, whose rules
reduce to a count of the blocks left); flat arrays indexed by fiber slot
hold the points placed in each fiber and the points still ahead of the
frontier.  An orbit puts the same number of points in each fiber of a
subset that it meets, so fibers are counted in units of that number and
both kinds of block share every rule.  Each block's ``(subset, slot)``
pairs are tabulated, and fiber slots given out, when the walk first
reaches the block, so a run of N nodes tabulates at most ``max(2N, 64)``
cells or the orbits of as many cells.  Three families of pruning rules run
on these counters:

* overflow - a fiber may never exceed its quota, and a subset may never
  realize more distinct values than its target;
* completion - a realized fiber must still have enough points ahead of the
  frontier to reach its quota, and enough fresh values (with full quota
  still available ahead) must remain to reach the target count;
* nested counts, for the walk over cells - for subsets a < b, each fiber
  of a holds exactly ``m_b / m_a`` realized fibers of b, since it has
  ``m_[n] / m_a`` points and each fiber of b in it has ``m_[n] / m_b``
  (T. H. Chan, "A combinatorial approach to information inequalities",
  Comm. Inf. Syst. 1(3), 2001); a point may not open a fiber of b inside
  a fiber of a that already holds that many.  When b is a prefix
  ``{1..k}`` the cell order implies the rule, as the fibers of b are runs
  of cells that completion fills in turn, so those pairs are skipped.  The
  case ``m_b = m_a`` is a functional dependence, so the optional hints of
  :func:`search` prune nothing more.

The walk over cells breaks symmetry by canonical relabeling: each
variable's symbols must appear in increasing order of first use along the
placement order.  Every support set is relabel-equivalent to one
satisfying this rule, so the rule is sound; it removes the
``prod_i m_i!`` relabeling factor.  The rule is off in the orbit phase: a
relabeled invariant support is invariant under a conjugate of g, not
under g, so the rule could cut every invariant support.  Orbit witnesses
are therefore not relabel-canonical.

The same spec and budget always give the same outcome, node count and
witness.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .distributions import EntropyVector, JointPMF
from .logexact import LogLinear
# in_gamma_n is not used here; it stays a name of this module because
# perfbench/trace.py patches qusearch.in_gamma_n
from .polycone import elemental_inequalities, in_gamma_n  # noqa: F401
from .subsets import MAX_VARS, Subset, canonical_order, parse_subset_name, subset_name

__all__ = [
    "Budget",
    "FunctionalDependence",
    "SearchOutcome",
    "SearchStatus",
    "SupportSpec",
    "check_feasibility_necessary",
    "qu_necessary",
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

    @property
    def total(self) -> int:
        return self.m[frozenset(range(1, self.n + 1))]

    def alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(self.m[frozenset({i})] for i in range(1, self.n + 1))

    def vector(self) -> EntropyVector:
        """The log-size vector ``(log m_alpha)`` in canonical order."""
        return EntropyVector(self.n, [LogLinear.from_log_int(self.m[a]) for a in canonical_order(self.n)])

    def to_json(self) -> dict:
        return {"n": self.n, "m": {subset_name(a): self.m[a] for a in canonical_order(self.n)}}

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

    The elemental inequalities are checked on the sizes, in the order of
    :func:`polycone.elemental_inequalities`: each has coefficients in
    {-1, 0, +1}, and as log is increasing, ``sum_a c_a log m_a >= 0``
    holds exactly when the product of the ``m_a`` with ``c_a = +1`` is at
    least the product of those with ``c_a = -1``.  The integer comparison
    is exact and factors no size.
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
    sizes = [spec.m[a] for a in canonical_order(spec.n)]
    for fn in elemental_inequalities(spec.n):
        plus = minus = 1
        for c, m in zip(fn.coeffs, sizes):
            if c > 0:
                plus *= m
            elif c < 0:
                minus *= m
        if plus < minus:
            return False, f"log-size vector violates {fn.name}"
    return True, None


def qu_necessary(h: EntropyVector) -> Optional[dict[Subset, int]]:
    """Support sizes implied by quasi-uniformity: every coordinate must be
    the log of a natural number; returns the full map or None."""
    out: dict[Subset, int] = {}
    for alpha, coord in zip(canonical_order(h.n), h.coords):
        m = coord.as_log_natural()
        if m is None:
            return None
        out[alpha] = m
    return out


def spec_from_vector(h: EntropyVector) -> Optional[SupportSpec]:
    """Lift a vector into a SupportSpec via the log-natural condition."""
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
    sizes = qu_necessary(h)
    if sizes is None:
        raise ValueError("structural hints need a vector of logs of naturals")
    return _dependences(h.n, sizes)


def _dependences(n: int, m: Mapping[Subset, int]) -> tuple[FunctionalDependence, ...]:
    """Every pair of disjoint groups with m_{base|ext} = m_base, on the
    integer sizes: log is injective, so this is h_{base|ext} = h_base."""
    order = canonical_order(n)
    return tuple(
        FunctionalDependence(alpha, beta)
        for alpha in order
        for beta in order
        if not alpha & beta and m[alpha | beta] == m[alpha]
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
    orbit_nodes: int = 0


# plain nodes before the orbit phase, and the orbit phase's node allowance
_PHASE_NODES = 2048
# cells in the first chunk of block tables; an orbit of more cells is not tried
_CHUNK = 64


class _Engine:
    """Depth-first placement over decision blocks with incremental fiber counts.

    A block is one grid cell or, with ``orbits``, one orbit of the diagonal
    shift g.  Every orbit has ``L = lcm(m_i)`` cells ``first + t*(1,..,1)``,
    ``t < L``, and puts ``L / lcm_{i in a} m_i`` points, the subset's
    weight, in each of the ``lcm_{i in a} m_i`` fibers of subset a that it
    meets.  Fibers are counted in units of the weight, so a block adds one
    to each fiber it meets, as a cell does.  Blocks are numbered in the grid
    order of their first cell, whose coordinates for an orbit are
    ``x_i < gcd(lcm(m_1..m_{i-1}), m_i)``.

    The fibers of the proper subsets share the flat ``counts`` and
    ``future`` arrays, indexed by slot, and each block carries the tuple of
    its ``(subset, slot)`` pairs, singletons first for a cell.  A cell's
    fiber in subset k has slot ``k + nsub * id``, where id, the mixed-radix
    value of the cell's coordinates in the subset, is at most the cell's
    index; an orbit meets fibers all over the grid, so each takes the next
    free slot when first met.  The full set's fibers hold no slot: their one
    live rule, enough blocks left for the points still needed, is a count in
    :meth:`_advance`.  For the nested counts, ``nest[b]`` lists the
    ``(a, m_b // m_a)`` pairs of b's checked subsets a, and the flat
    ``nested`` array, indexed ``a_slot * nsub + b`` and grown beside
    ``counts``, holds the fibers of b realized in each fiber of a; only a
    fiber's opening and closing touch it.  The rule's caps would be in
    orbit units, so ``nest`` is empty for orbits.
    :meth:`_extend` builds the per-block tables and slots in doubling chunks
    as the frontier reaches them.  :meth:`run` walks the tree in one loop
    and resumes a walk that it stopped at its node limit;
    ``_try_include``/``_undo_include`` and ``_advance``/``_retreat`` are the
    two branches of a block and their undo.
    """

    def __init__(self, spec: SupportSpec, orbits: bool = False):
        self.n = n = spec.n
        self.sizes = sizes = spec.alphabet_sizes()
        self.m_total = spec.total
        ncells = math.prod(sizes)
        subsets = canonical_order(n)[:-1]
        self.nsub = nsub = len(subsets)
        self.blen = math.lcm(*sizes) if orbits else 1
        radix = [math.gcd(math.lcm(*sizes[:i]), s) for i, s in enumerate(sizes)] if orbits else sizes
        # divisor and radix of each coordinate of a block's first cell
        self.radix = [(math.prod(radix[i + 1:]), r) for i, r in enumerate(radix)]
        self.nblocks = ncells // self.blen
        self.need = self.m_total // self.blen

        # per subset: each variable's stride in the fiber slots (0 outside
        # the subset), the fibers a block meets and its points in each
        self.strides, nvals = [], []
        for a in subsets:
            strides, nv = [0] * n, 1
            for i in sorted(a, reverse=True):
                strides[i - 1], nv = nv * nsub, nv * sizes[i - 1]
            self.strides.append(strides)
            nvals.append(nv)
        self.span = [math.lcm(*(sizes[i - 1] for i in a)) if orbits else 1 for a in subsets]
        weight = [self.blen // s for s in self.span]
        quota = [self.m_total // spec.m[a] for a in subsets]
        self.divisible = all(q % w == 0 for q, w in zip(quota, weight))
        # per subset, in units: points per realized fiber, fibers to realize,
        # fibers realized so far, points per fiber and empty fibers that can
        # still reach the quota
        self.quota = [q // w for q, w in zip(quota, weight)]
        self.target = [spec.m[a] for a in subsets]
        self.realized = [0] * nsub
        self.fiber_units = [ncells // nv // w for nv, w in zip(nvals, weight)]
        self.openable = [nv if fu >= q else 0 for nv, fu, q in zip(nvals, self.fiber_units, self.quota)]
        # per slot: units placed and units in blocks not yet decided
        self.counts: list[int] = []
        self.future: list[int] = []
        # orbits: the (subset, slot) pair of each fiber met, by its cell slot
        self.slots: dict[int, tuple[int, int]] = {}
        # the relabeling rule runs on cells only; per variable, the slot of
        # the last symbol used so far
        self.relabel = 0 if orbits else n
        self.maxused = [i - nsub for i in range(n)]
        self.chosen: list[int] = []
        # the nested counts' pairs, none for a prefix b = {1..k}
        self.nest = [
            () if orbits or b == frozenset(range(1, len(b) + 1)) else
            tuple((j, spec.m[b] // spec.m[a]) for j, a in enumerate(subsets) if a < b)
            for b in subsets
        ]
        self.nested: list[int] = []
        self.block_fibers: list[tuple[tuple[int, int], ...]] = []
        # the walk: nodes visited, the frontier and the branch stack
        self.nodes = 0
        self.ci = 0
        self.branch: list[Optional[tuple[int, ...]]] = []

    def viable(self, max_nodes: int) -> bool:
        """Whether a run of max_nodes nodes can find a support: every quota
        is a whole number of units, the walk places at most one block per
        node and needs one more node to see the full placement, and a block
        has at most _CHUNK = 64 cells, which bounds the work of a node."""
        return self.divisible and self.need < max_nodes and self.blen <= _CHUNK

    def _extend(self) -> int:
        """Tabulate the next chunk of blocks, as many again as are built (at
        least _CHUNK cells and one block, at most to the end of the grid);
        returns the blocks built."""
        lo = len(self.block_fibers)
        hi = min(max(2 * lo, _CHUNK // self.blen, 1), self.nblocks)
        if self.blen == 1:
            # the cells before hi are the first ones of the box of values
            # x_i < ceil(hi / d_i), which the product runs over in grid order
            values = [range(min(r, -(-hi // d))) for d, r in self.radix]
            columns = [
                zip(itertools.repeat(k), map(sum, itertools.islice(
                    itertools.product((k,), *[[x * w for x in xs] for xs, w in zip(values, strides)]), lo, hi)))
                for k, strides in enumerate(self.strides)
            ]
            # no cell of the chunk has a slot at or past hi * nsub
            self.counts += [0] * (self.nsub * (hi - lo))
            self.nested += [0] * (self.nsub * self.nsub * (hi - lo))
            self.future += self.fiber_units * (hi - lo)
        else:
            firsts = [[b // d % r for b in range(lo, hi)] for d, r in self.radix]
            slots, columns = self.slots, []
            for t in range(max(self.span, default=0)):
                # per variable, the coordinates of each orbit's cell first + t*(1,..,1)
                cells = [[(x + t) % s for x in xs] for xs, s in zip(firsts, self.sizes)]
                for k, strides in enumerate(self.strides):
                    if t < self.span[k]:
                        column = []
                        for f in map(sum, zip(itertools.repeat(k), *[[x * w for x in xs] for xs, w in zip(cells, strides)])):
                            pair = slots.get(f)
                            if pair is None:
                                pair = slots[f] = (k, len(self.counts))
                                self.counts.append(0)
                                self.future.append(self.fiber_units[k])
                            column.append(pair)
                        columns.append(column)
        # with n = 1 there is no proper subset, and a block has no fiber
        chunk = list(zip(*columns)) or [()] * (hi - lo)
        self.block_fibers += chunk
        return len(self.block_fibers)

    # -- frontier advance past an excluded block -----------------------------

    def _advance(self, ci: int) -> bool:
        """Move the frontier past block ci, left empty; returns False when
        some fiber becomes impossible to finish or too few blocks are left
        for the points still needed.  Mutations are applied in full either
        way so that _retreat restores the state exactly."""
        counts, future, quota = self.counts, self.future, self.quota
        ok = self.nblocks - ci - 1 >= self.need - len(self.chosen)
        for a, f in self.block_fibers[ci]:
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
        for a, f in self.block_fibers[ci]:
            fu = future[f] + 1
            future[f] = fu
            if fu == quota[a] and not counts[f]:
                openable[a] += 1

    # -- include / undo ------------------------------------------------------

    def _try_include(self, ci: int) -> Optional[tuple[int, ...]]:
        """Place block ci in the support and move the frontier past it.
        Returns the variables whose symbol high-water mark was bumped (undo
        data), or None if the placement is rejected; rejected placements
        leave no state change."""
        maxused, nsub = self.maxused, self.nsub
        fibers = self.block_fibers[ci]
        bumps: tuple[int, ...] = ()
        # singleton i has subset index i; with n = 1 there is none, and the
        # one spec, every cell in the support, needs no relabeling rule
        for i, f in fibers[: self.relabel]:
            if f > maxused[i]:
                if f > maxused[i] + nsub:
                    return None
                bumps += (i,)
        counts, quota, realized, target = self.counts, self.quota, self.realized, self.target
        for a, f in fibers:
            c = counts[f]
            if c >= quota[a] or not c and realized[a] >= target[a]:
                return None

        # place the points and move the frontier in one pass: the points are
        # among those still needed and their fibers are not empty, so of
        # _advance's rules only the capacity rule applies
        future, openable, nest, nested = self.future, self.openable, self.nest, self.nested
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
                # nested counts: one more fiber of a inside the cell's fiber of each j < a
                for j, cap in nest[a]:
                    g = fibers[j][1] * nsub + a
                    h = nested[g] + 1
                    nested[g] = h
                    if h > cap:
                        ok = False
            if c < q and c + fu < q:
                ok = False
        for i in bumps:
            maxused[i] += nsub
        self.chosen.append(ci)
        if ok:
            return bumps
        self._undo_include(ci, bumps)
        return None

    def _undo_include(self, ci: int, bumps: tuple[int, ...]) -> None:
        self.chosen.pop()
        for i in bumps:
            self.maxused[i] -= self.nsub
        counts, future, quota, realized, openable = self.counts, self.future, self.quota, self.realized, self.openable
        nest, nested, nsub = self.nest, self.nested, self.nsub
        fibers = self.block_fibers[ci]
        for a, f in fibers:
            fu = future[f] + 1
            future[f] = fu
            c = counts[f] - 1
            counts[f] = c
            if not c:
                realized[a] -= 1
                if fu >= quota[a]:
                    openable[a] += 1
                for j, _ in nest[a]:
                    nested[fibers[j][1] * nsub + a] -= 1

    # -- depth-first search --------------------------------------------------

    def run(self, max_nodes: int, deadline: float) -> tuple[SearchStatus, Optional[list[int]]]:
        """Walk the completions of the start state, block 0 first, until a
        support is found, the tree is exhausted, the count of visited nodes
        reaches max_nodes or the clock passes the deadline; return the
        verdict with the blocks chosen, if any.

        ``branch`` is the stack, one entry per block before the frontier ci:
        the undo bumps of the placement being explored there, or None once
        only the empty branch is left.  Each block tries the placement before
        leaving the block empty.  One node is counted per visited state, and
        the clock is read every 2048 nodes.  BUDGET_EXCEEDED leaves the
        state at ci unvisited and uncounted, so a later call with a larger
        max_nodes resumes the same walk there.  A node moves the frontier by
        at most one block, so N nodes reach no block past N - 1, and a
        block's tables are built when it is reached."""
        need, chosen, branch = self.need, self.chosen, self.branch
        try_include, undo_include = self._try_include, self._undo_include
        advance, retreat, clock = self._advance, self._retreat, time.monotonic
        built = len(self.block_fibers)
        nodes, ci = self.nodes, self.ci
        while True:
            if nodes >= max_nodes or not nodes % 2048 and clock() > deadline:
                self.nodes, self.ci = nodes, ci
                return SearchStatus.BUDGET_EXCEEDED, None
            # visit the state whose frontier is block ci
            nodes += 1
            if len(chosen) == need:
                # quota accounting makes any full placement a valid support
                self.nodes = nodes
                return SearchStatus.FOUND, list(chosen)
            # _advance keeps a block for every one still needed, so the
            # frontier is still inside the grid
            if ci == built:
                built = self._extend()
            bumps = try_include(ci)
            if bumps is not None or advance(ci):
                branch.append(bumps)
                ci += 1
                continue
            retreat(ci)
            # the subtree is done: back up to the deepest block with a branch left
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
        """The uniform PMF on the cells of the given blocks."""
        coords = [[b // d % r for b in support] for d, r in self.radix]
        if self.blen > 1:
            coords = [[(x + t) % s for x in xs for t in range(self.blen)] for xs, s in zip(coords, self.sizes)]
        return JointPMF(self.sizes, dict.fromkeys(zip(*coords), Fraction(1, self.m_total)))


def _check_hints(spec: SupportSpec, hints: Sequence[FunctionalDependence]) -> None:
    """Reject any hint that is not one of the spec's structural hints.  The
    fields must be frozensets too: a set field compares equal to one."""
    derived = _dependences(spec.n, spec.m)
    for hint in hints:
        if hint not in derived or not all(isinstance(g, frozenset) for g in (hint.base, hint.extension)):
            raise ValueError(f"hint {hint!r} is not one of structural_hints(spec.vector()) with frozensets for fields")


def search(
    spec: SupportSpec, budget: Optional[Budget] = None, hints: Sequence[FunctionalDependence] = ()
) -> SearchOutcome:
    """Look for a support realizing the spec; uniform PMF on success.

    Runs the three steps of the module docstring, the first two for up to
    _PHASE_NODES nodes each; the orbit phase is skipped when it cannot find
    a support in its allowance.  Orbit nodes count toward
    ``budget.max_nodes`` and are reported as ``orbit_nodes``.

    Deterministic: identical spec and budget reproduce the same outcome,
    node count and witness.

    ``hints``, kept only for perfbench's cli answer check and the hinted
    pass of ``scripts/verdict_sweep.py``, must each be a functional
    dependence of ``structural_hints(spec.vector())`` with frozenset
    fields, or ValueError is raised.  They prune nothing: the nested counts
    enforce every functional dependence.
    """
    ok, witness = check_feasibility_necessary(spec)
    if not ok:
        raise ValueError(f"spec fails necessary feasibility: {witness}")
    if hints:
        _check_hints(spec, hints)
    budget = budget or Budget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    engine = plain = _Engine(spec)
    status, support = plain.run(min(budget.max_nodes, _PHASE_NODES), deadline)
    orbit_nodes = 0
    if status is SearchStatus.BUDGET_EXCEEDED and budget.max_nodes > _PHASE_NODES:
        allowance = min(_PHASE_NODES, budget.max_nodes - _PHASE_NODES)
        orbit = _Engine(spec, orbits=True)
        if orbit.viable(allowance):
            status, support = orbit.run(allowance, deadline)
            orbit_nodes = orbit.nodes
        if status is SearchStatus.FOUND:
            engine = orbit
        else:
            status, support = plain.run(budget.max_nodes - orbit_nodes, deadline)
    pmf = engine.pmf_from_support(support) if support is not None else None
    # a capped search also counts the visit that found the budget spent
    nodes = plain.nodes + orbit_nodes + (status is SearchStatus.BUDGET_EXCEEDED)
    return SearchOutcome(status, pmf, nodes, time.monotonic() - start, orbit_nodes)
