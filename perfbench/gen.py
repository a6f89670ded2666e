"""Seeded input generators for the three workloads.

Every generator draws from ``random.Random(f"{seed}:{name}")``, so the
same seed yields byte-identical inputs and the program sees only the
generated inputs, never the seed.  Workloads consume inputs in blocks of
fixed composition, and a run always ends on a block boundary, so the mix
of input kinds is the same in every run.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import exact

HERE = Path(__file__).resolve().parent
PRIMES = (2, 3, 5, 7, 11, 13)
MAX_SUPPORT = 600
CERTIFY_BLOCK = ("qu", "qu", "pmf", "pmf", "theta", "theta", "omega", "omega")
SLOW_NODES = 2000  # search specs deciding in at least this many nodes form the "slow" stratum
FAST_BANDS = 6


def rng_for(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


# -- certify ------------------------------------------------------------------


def pmf_text(sizes, weights: dict) -> str:
    total = sum(weights.values())
    lines = [f"pmf n=3 sizes={','.join(map(str, sizes))}"]
    for x in sorted(weights):
        m = Fraction(weights[x], total)
        lines.append(f"{x[0]} {x[1]} {x[2]} : {m.numerator}/{m.denominator}")
    return "\n".join(lines) + "\n"


def qu_item(rng: random.Random) -> dict:
    """Uniform distribution over a product of sources, each source private
    to one variable, common to several, or one of two summands whose sum
    mod k goes to a third variable.  Quasi-uniform by construction."""
    while True:
        src: list[int] = []
        comps: list[list[tuple]] = [[], [], []]
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("private", "private", "common", "sum"))
            if kind == "private":
                src.append(rng.randint(2, 10))
                comps[rng.randrange(3)].append((len(src) - 1,))
            elif kind == "common":
                src.append(rng.randint(2, 5))
                for i in rng.choice(((0, 1), (0, 2), (1, 2), (0, 1, 2))):
                    comps[i].append((len(src) - 1,))
            else:
                k = rng.randint(2, 5)
                src += [k, k]
                a, b = len(src) - 2, len(src) - 1
                va, vb, vc = rng.sample(range(3), 3)
                comps[va].append((a,))
                comps[vb].append((b,))
                comps[vc].append((a, b, k))
        sizes = [math.prod(src[c[0]] if len(c) == 1 else c[2] for c in cs) for cs in comps]
        if all(2 <= s <= 10 for s in sizes) and 4 <= math.prod(src) <= MAX_SUPPORT:
            break
    relabel = [rng.sample(range(s), s) for s in sizes]
    points = []
    for assign in itertools.product(*(range(k) for k in src)):
        x = []
        for i, cs in enumerate(comps):
            v = 0
            for c in cs:
                if len(c) == 1:
                    v = v * src[c[0]] + assign[c[0]]
                else:
                    v = v * c[2] + (assign[c[0]] + assign[c[1]]) % c[2]
            x.append(relabel[i][v])
        points.append(tuple(x))
    weights = {x: 1 for x in points}
    return {"kind": "qu", "sizes": sizes, "weights": weights, "text": pmf_text(sizes, weights),
            "m": exact.projection_sizes(points)}


def pmf_item(rng: random.Random) -> dict:
    """Random support with random integer weights, not all equal."""
    sizes = [rng.randint(2, 10) for _ in range(3)]
    cells = math.prod(sizes)
    support = rng.sample(range(cells), rng.randint(2, min(cells, MAX_SUPPORT)))
    top = rng.randint(2, 12)
    weights = {}
    for c in support:
        weights[(c // (sizes[1] * sizes[2]), c // sizes[2] % sizes[1], c % sizes[2])] = rng.randint(1, top)
    if len(set(weights.values())) == 1:
        weights[next(iter(weights))] += 1
    return {"kind": "pmf", "sizes": sizes, "weights": weights, "text": pmf_text(sizes, weights)}


def _coefficient(rng: random.Random, natural: bool) -> dict:
    """A nonnegative exact coefficient built from small primes."""
    pairs = []
    for _ in range(rng.randint(1, 2)):
        num = math.prod(rng.choice(PRIMES) for _ in range(rng.randint(1, 3)))
        t = exact.log_int(num)
        if not natural and rng.random() < 0.3:
            den = rng.choice([d for d in range(1, num) if num % d]) if num > 2 else 1
            t = exact.sub(t, exact.log_int(den))
        c = Fraction(rng.randint(1, 3)) if natural else Fraction(rng.randint(1, 4), rng.choice((1, 2, 3, 4, 6)))
        pairs.append((c, t))
    return exact.combine(pairs)


def face_item(rng: random.Random, kind: str) -> dict:
    """Conic combination over the theta or omega face rays."""
    face = exact.THETA if kind == "theta" else exact.OMEGA
    while True:
        coeffs = {}
        for r in face:
            if rng.random() < 0.15:
                coeffs[r] = {}
            else:
                coeffs[r] = _coefficient(rng, natural=(r == "123p" and rng.random() < 0.5))
        if sum(1 for t in coeffs.values() if t) >= 2:
            break
    return {"kind": kind, "coeffs": coeffs, "h": exact.recombine(coeffs)}


def input_key(item: dict) -> str:
    if "text" in item:
        return item["text"]
    return repr([sorted(t.items()) for t in item["h"]])


def certify_blocks(seed: int):
    """Endless blocks of certify items; no item repeats within a run."""
    rng = rng_for(seed, "certify")
    seen: set[str] = set()
    while True:
        block = []
        for kind in rng.sample(CERTIFY_BLOCK, len(CERTIFY_BLOCK)):
            while True:
                if kind == "qu":
                    item = qu_item(rng)
                elif kind == "pmf":
                    item = pmf_item(rng)
                else:
                    item = face_item(rng, kind)
                key = input_key(item)
                if key not in seen:
                    seen.add(key)
                    break
            block.append(item)
        yield block


# -- search ---------------------------------------------------------------------


def load_verdicts() -> dict:
    with open(HERE / "verdicts.json", encoding="utf-8") as fh:
        return json.load(fh)


def search_strata(table: dict) -> dict:
    """Budget-capped, slow-deciding, and six equal bands of fast-deciding
    specs by recorded node count, so every block spans the fast range."""
    strata = {"capped": [], "slow": []}
    fast = []
    for entry in table["specs"]:
        if entry["status"] == "budget_exceeded":
            strata["capped"].append(entry)
        elif entry["nodes"] >= SLOW_NODES:
            strata["slow"].append(entry)
        else:
            fast.append(entry)
    fast.sort(key=lambda e: (e["nodes"], e["m"]))
    for band in range(FAST_BANDS):
        strata[f"fast{band}"] = fast[band * len(fast) // FAST_BANDS : (band + 1) * len(fast) // FAST_BANDS]
    return strata


def _cycle(rng: random.Random, items: list):
    while True:
        yield from rng.sample(items, len(items))


def search_blocks(seed: int, table: dict):
    """Blocks of one spec from each stratum recorded at the seed commit:
    one budget-capped, one slow-deciding and six fast, each stratum cycled
    in a seeded order."""
    rng = rng_for(seed, "search")
    strata = search_strata(table)
    streams = {name: _cycle(rng, items) for name, items in strata.items()}
    while True:
        yield [next(streams[name]) for name in rng.sample(list(strata), len(strata))]


# -- cli ------------------------------------------------------------------------

CLI_COMMANDS = ("entropy", "qu-check", "gamma", "decompose", "face", "inner", "spec", "search", "catalog")
CLI_SEARCH_NODES = 3000


def vector_json(h: list) -> dict:
    return {
        "n": 3,
        "coords": [{"log_terms": {str(p): f"{q.numerator}/{q.denominator}" for p, q in sorted(t.items())}} for t in h],
    }


def cli_files(seed: int, root: Path, workdir: Path, table: dict) -> dict:
    """Write the generated input files; pools join them to the fixtures."""
    rng = rng_for(seed, "cli-files")
    fixtures = root / "src" / "entrocone" / "fixtures"
    pools = {
        "pmf": [str(fixtures / "table1.pmf"), str(fixtures / "table2.pmf")],
        "vec": [str(fixtures / n) for n in ("f.vec", "g.vec", "omega_candidate.vec")],
        "spec": [str(fixtures / "spec_f.json"), str(fixtures / "spec_omega_candidate.json")],
    }
    for i in range(4):
        item = qu_item(rng) if i < 2 else pmf_item(rng)
        path = workdir / f"gen{i}.pmf"
        path.write_text(item["text"], encoding="utf-8")
        pools["pmf"].append(str(path))
        if i == 3:
            vec = exact.entropy_vector_terms(item["weights"])
            path = workdir / "gen_entropy.vec"
            path.write_text(json.dumps(vector_json(vec)), encoding="utf-8")
            pools["vec"].append(str(path))
    for i, kind in enumerate(("theta", "theta", "omega", "omega")):
        path = workdir / f"gen{i}.vec"
        path.write_text(json.dumps(vector_json(face_item(rng, kind)["h"])), encoding="utf-8")
        pools["vec"].append(str(path))
    strata = search_strata(table)
    for i, name in enumerate(("fast0", "fast5", "slow", "capped")):
        entry = rng.choice(strata[name])
        names = ["".join(map(str, a)) for a in exact.SUBSETS]
        path = workdir / f"gen{i}.json"
        path.write_text(json.dumps({"n": 3, "m": dict(zip(names, entry["m"]))}), encoding="utf-8")
        pools["spec"].append(str(path))
    return pools


def cli_blocks(seed: int, pools: dict):
    """Blocks holding each of the nine commands once, in a seeded order;
    each command cycles through all its argument lists in a seeded order."""
    rng = rng_for(seed, "cli")
    faces = ("theta", "omega", "full")
    args = {
        "entropy": [[f] for f in pools["pmf"]],
        "qu-check": [[f] for f in pools["pmf"]],
        "gamma": [[f] for f in pools["vec"]],
        "spec": [[f] for f in pools["vec"]],
        "decompose": [[f, face] for f in pools["vec"] for face in faces],
        "face": [[f, face] for f in pools["vec"] for face in faces],
        "inner": [[f, bound] for f in pools["vec"] for bound in ("theta", "omega")],
        "search": [[f, "--budget-nodes", str(CLI_SEARCH_NODES)] for f in pools["spec"]],
        "catalog": [[]],
    }
    streams = {cmd: _cycle(rng, args[cmd]) for cmd in CLI_COMMANDS}
    while True:
        yield [(cmd, *next(streams[cmd])) for cmd in rng.sample(CLI_COMMANDS, len(CLI_COMMANDS))]
