"""Record the search verdict table and the input properties.

    python3 perfbench/record.py verdicts     # writes perfbench/verdicts.json
    python3 perfbench/record.py properties   # writes perfbench/properties.json

The verdict table lists every n=3 spec with alphabets <= 5 that passes
``check_feasibility_necessary``, in every variable order, plus the open
candidate spec, with the status and node count of a single-worker search
at the benchmark's node budget.  It is recorded once, at the commit that
defines the benchmark: the search workload draws its strata from it and
checks every FOUND / EXHAUSTED_INFEASIBLE verdict against it.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import gen  # noqa: E402

BUDGET_NODES = 100_000
TRUTH_NODES = 1_000_000  # budget for settling specs that every order leaves capped
CANDIDATE = (9, 9, 6, 54, 54, 54, 216)


def universe(spec_of) -> list[tuple]:
    from entrocone import qusearch

    out = []
    for m1, m2, m3 in itertools.product(range(1, 6), repeat=3):
        for m12 in range(math.lcm(m1, m2), m1 * m2 + 1, math.lcm(m1, m2)):
            for m13 in range(math.lcm(m1, m3), m1 * m3 + 1, math.lcm(m1, m3)):
                for m23 in range(math.lcm(m2, m3), m2 * m3 + 1, math.lcm(m2, m3)):
                    step = math.lcm(m12, m13, m23)
                    for m123 in range(step, m12 * m13 * m23 + 1, step):
                        m = (m1, m2, m3, m12, m13, m23, m123)
                        if qusearch.check_feasibility_necessary(spec_of(m))[0]:
                            out.append(m)
    return out


def record_verdicts() -> None:
    from entrocone import qusearch
    from entrocone.subsets import canonical_order

    def spec_of(m):
        return qusearch.SupportSpec(3, dict(zip(canonical_order(3), m)))

    def run(m, nodes):
        out = qusearch.search(spec_of(m), qusearch.Budget(max_nodes=nodes, max_seconds=1e9))
        return out.status.value, out.nodes_explored

    specs = universe(spec_of)
    specs += sorted({exact.permute(CANDIDATE, p) for p in itertools.permutations((1, 2, 3))})
    entries = []
    truth: dict[tuple, str] = {}
    for m in specs:
        status, nodes = run(m, BUDGET_NODES)
        entries.append({"m": list(m), "status": status, "nodes": nodes})
        if status != "budget_exceeded":
            truth[exact.canonical(m)] = status
    for m in specs:
        key = exact.canonical(m)
        if key not in truth and key != exact.canonical(CANDIDATE):
            status, _ = run(m, TRUTH_NODES)
            if status != "budget_exceeded":
                truth[key] = status
    verdicts = {",".join(map(str, k)): truth.get(k, "unknown") for k in sorted({exact.canonical(m) for m in specs})}
    lines = [f'{{"budget_nodes": {BUDGET_NODES}, "truth_nodes": {TRUTH_NODES},', ' "specs": [']
    lines.append(",\n".join("  " + json.dumps(e) for e in entries))
    lines.append(' ],\n "verdicts": {')
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in verdicts.items()))
    lines.append(" }\n}\n")
    (HERE / "verdicts.json").write_text("\n".join(lines), encoding="utf-8")


def _hist(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def record_properties(seed: int = 1, blocks: int = 100) -> None:
    """Describe the first inputs a run with `seed` draws."""
    items = [it for _, b in zip(range(blocks), gen.certify_blocks(seed)) for it in b]
    pmfs = [it for it in items if "text" in it]
    vectors = [exact.entropy_vector_terms(it["weights"]) if "text" in it else it["h"] for it in items]
    keys = [gen.input_key(it) for it in items]
    table = gen.load_verdicts()
    search_ops = [e for _, b in zip(range(blocks), gen.search_blocks(seed, table)) for e in b]
    strata = gen.search_strata(table)
    props = {
        "seed": seed,
        "certify": {
            "items": len(items),
            "kinds": _hist(it["kind"] for it in items),
            "alphabet_sizes": _hist(s for it in pmfs for s in it["sizes"]),
            "support_sizes_by_100": _hist(len(it["weights"]) // 100 * 100 for it in pmfs),
            "support_size_median": statistics.median(len(it["weights"]) for it in pmfs),
            "distinct_primes_per_vector": _hist(len({p for t in h for p in t}) for h in vectors),
            "repeated_input_share": 1 - len(set(keys)) / len(keys),
        },
        "search": {
            "universe_ordered_specs": len(table["specs"]),
            "universe_canonical_specs": len(table["verdicts"]),
            "truth_at_seed_commit": _hist(table["verdicts"].values()),
            "status_at_budget": _hist(e["status"] for e in table["specs"]),
            "strata_sizes": {k: len(v) for k, v in strata.items()},
            "ops": len(search_ops),
            "op_status_mix": _hist(e["status"] for e in search_ops),
            "op_alphabet_max": _hist(max(e["m"][:3]) for e in search_ops),
        },
    }
    (HERE / "properties.json").write_text(json.dumps(props, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    {"verdicts": record_verdicts, "properties": record_properties}[sys.argv[1]]()
