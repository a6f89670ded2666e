"""Run every spec of perfbench/verdicts.json through the search and check
the verdicts against the table.

    python3 scripts/verdict_sweep.py [--table perfbench/verdicts.json]

Each spec runs twice at the table's node budget (`budget_nodes`): once
plain and once with `structural_hints`, through the library's
`search(hints=)`.  The run fails (exit 1) when a definite verdict of
either pass differs from the table: an EXHAUSTED_INFEASIBLE the table did
not record, or a FOUND on a row recorded as infeasible.  A FOUND on a row
the table left budget-capped passes once its witness is checked to be
quasi-uniform with the target sizes.  A row the table decided that comes
out budget-capped fails too.

The table's `nodes` count the walk over cells alone, which `search` runs
first, for up to 2,048 nodes, and resumes after the orbit phase if that
finds nothing.  The walk is deterministic, so the plain pass checks the
nodes of each phase (`nodes_explored` is their total, `orbit_nodes` the
orbit phase's share) and fails on any drift:

- a row recorded at 2,048 nodes or fewer keeps its count, with no orbit
  node;
- a row the orbit phase found has exactly 2,048 nodes of the walk over
  cells;
- a row still budget-capped has the recorded total, `budget_nodes + 1`;
- on every other row, the walk over cells has the recorded count.

The hinted pass also fails when a spec the plain pass decided gets another
status or witness, or more nodes: a hint prunes only subtrees that hold no
support, so the walk must meet the same first witness no later.  The table
is read, never written.  Each pass ends with its total node count, its
orbit nodes, its node rate and the median time of one `search` call over
the specs decided within 2,048 nodes, where the fixed cost of a call
around the walk shows; both times depend on the machine and gate nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from entrocone.distributions import is_quasi_uniform  # noqa: E402
from entrocone.qusearch import _PHASE_NODES, Budget, SearchOutcome, SearchStatus, SupportSpec, search, structural_hints  # noqa: E402
from entrocone.subsets import canonical_order  # noqa: E402


def phase_drift(outcome: SearchOutcome, recorded: int) -> str | None:
    """How the nodes of each phase differ from the row's recorded count of
    the walk over cells, or None when they agree."""
    cells = outcome.nodes_explored - outcome.orbit_nodes
    counts = f"{cells} nodes over cells and {outcome.orbit_nodes} over orbits"
    if recorded <= _PHASE_NODES:
        ok = (outcome.nodes_explored, outcome.orbit_nodes) == (recorded, 0)
    elif outcome.status is SearchStatus.FOUND and cells == _PHASE_NODES:
        ok = outcome.orbit_nodes > 0  # found in the orbit phase
    elif outcome.status is SearchStatus.BUDGET_EXCEEDED:
        ok = outcome.nodes_explored == recorded
    else:
        ok = cells == recorded
    return None if ok else f"{counts}, table says {recorded}"


def sweep(table: dict, plain: list[SearchOutcome] | None = None) -> tuple[bool, list[SearchOutcome]]:
    """Search every spec of the table, plain or, given the plain pass's
    outcomes, hinted; print the totals.  Returns False on a contradiction,
    and the outcomes."""
    hinted = plain is not None
    budget = Budget(max_nodes=table["budget_nodes"], max_seconds=float("inf"))
    order = canonical_order(3)
    failures: list[str] = []
    statuses = {status: 0 for status in SearchStatus}
    lost = 0
    nodes = orbit_nodes = 0
    outcomes = []
    fast_ms = []  # per search call decided within _PHASE_NODES nodes
    start = time.perf_counter()
    for k, row in enumerate(table["specs"]):
        spec = SupportSpec(3, dict(zip(order, row["m"])))
        hints = structural_hints(spec.vector()) if hinted else ()
        called = time.perf_counter()
        outcome = search(spec, budget, hints)
        call_ms = 1000 * (time.perf_counter() - called)
        outcomes.append(outcome)
        if outcome.status is not SearchStatus.BUDGET_EXCEEDED and outcome.nodes_explored <= _PHASE_NODES:
            fast_ms.append(call_ms)
        nodes += outcome.nodes_explored
        orbit_nodes += outcome.orbit_nodes
        statuses[outcome.status] += 1
        recorded = SearchStatus(row["status"])
        if outcome.status is SearchStatus.BUDGET_EXCEEDED:
            if recorded is not SearchStatus.BUDGET_EXCEEDED:
                lost += 1
                failures.append(f"{row['m']}: budget_exceeded, table says {recorded.value}")
        elif outcome.status is SearchStatus.FOUND:
            verdict = is_quasi_uniform(outcome.pmf)
            if recorded is SearchStatus.EXHAUSTED_INFEASIBLE or not verdict.is_qu or verdict.support_sizes != spec.m:
                failures.append(f"{row['m']}: found, table says {recorded.value}")
        elif recorded is not SearchStatus.EXHAUSTED_INFEASIBLE:
            failures.append(f"{row['m']}: exhausted_infeasible, table says {recorded.value}")
        if not hinted and (drift := phase_drift(outcome, row["nodes"])):
            failures.append(f"{row['m']}: {drift}")
        base = plain[k] if hinted else None
        if base and base.status is not SearchStatus.BUDGET_EXCEEDED and (
            (outcome.status, outcome.pmf) != (base.status, base.pmf) or outcome.nodes_explored > base.nodes_explored
        ):
            witness = "same witness" if outcome.pmf == base.pmf else "another witness"
            failures.append(
                f"{row['m']}: {outcome.status.value} at {outcome.nodes_explored} nodes with {witness},"
                f" plain run {base.status.value} at {base.nodes_explored}"
            )
    elapsed = time.perf_counter() - start

    mode = "hinted" if hinted else "plain"
    for line in failures:
        print(f"MISMATCH ({mode}) {line}")
    print(f"{mode}: {len(table['specs'])} specs at budget {table['budget_nodes']} nodes; "
          + ", ".join(f"{status.value} {count}" for status, count in statuses.items()))
    print(f"{mode}: decided in the table but budget-capped here: {lost}")
    print(f"{mode}: total nodes: {nodes}, of which orbit nodes: {orbit_nodes}")
    print(f"{mode}: elapsed: {elapsed:.2f} s, {nodes / elapsed:,.0f} nodes/s")
    if fast_ms:
        print(f"{mode}: median search call over the {len(fast_ms)} specs decided within {_PHASE_NODES:,} nodes:"
              f" {statistics.median(fast_ms):.3f} ms")
    return not failures, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--table", default=str(ROOT / "perfbench" / "verdicts.json"))
    args = parser.parse_args(argv)
    table = json.loads(Path(args.table).read_text(encoding="utf-8"))
    plain_ok, plain = sweep(table)
    hinted_ok, _ = sweep(table, plain)
    return 0 if plain_ok and hinted_ok else 1


if __name__ == "__main__":
    sys.exit(main())
