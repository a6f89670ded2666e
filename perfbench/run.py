"""End-to-end and per-layer benchmark of entrocone.

    python3 perfbench/run.py --workload certify|search|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process acts as one closed-loop client: it runs an op, waits for it,
checks its answer off the clock and starts the next.  Ops come in blocks
of fixed composition and a run ends on a block boundary once the ops have
been busy for ``--seconds`` and at least MIN_OPS ops ran.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics of a traced
run.  The exit code is 1 when any answer check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import exact
import gen
from trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
PROCESS_PROBES = 5
MIN_OPS = 120  # so that at least 12 samples lie beyond op_p90_ms
# Calibration: the host's speed swings by up to ~1.7x for seconds to
# minutes at a time, and how much a piece of code slows depends on its
# memory traffic.  The calibration kernel therefore mixes Fraction
# additions over a pool larger than the caches with counter updates in a
# small list-of-lists table.  Over 150 s of swings, bucket medians of the
# ratio of op time to either half varied by 1-3% where raw op times varied
# by 8-13%.  The kernel is timed before every op, and each timing is
# reported at the reference speed: wall time * REFERENCE_KERNEL_S /
# (median kernel time around the op).  REFERENCE_KERNEL_S is the kernel's
# time on a quiet 2-core x86-64 box with Python 3.11.
KERNEL_POOL = 60_000
KERNEL_STEPS = 800
REFERENCE_KERNEL_S = 3.2e-3


@functools.cache
def _kernel_data() -> tuple[list[Fraction], list[list[int]]]:
    return [Fraction(i % 97 + 1, i % 89 + 2) for i in range(KERNEL_POOL)], [[0] * 64 for _ in range(200)]


def kernel_seconds() -> float:
    pool, table = _kernel_data()
    t0 = perf_counter()
    seen, j = {}, 0
    for i in range(KERNEL_STEPS):
        j = (j + 7919) % KERNEL_POOL
        x = pool[j] + pool[j * 31 % KERNEL_POOL]
        seen[x.numerator & 255] = (x, i)
    for i in range(KERNEL_STEPS * 12):
        j = (j * 5 + 17) % 12_800
        row = table[j >> 6]
        row[j & 63] += 1
        if row[j & 63] > 3:
            row[j & 63] -= 2
    return perf_counter() - t0


def calibrated_seconds(fn) -> float:
    """Wall time of fn(), at the reference speed of the kernels timed
    just before and just after it."""
    before = [kernel_seconds() for _ in range(3)]
    t0 = perf_counter()
    fn()
    dt = perf_counter() - t0
    after = [kernel_seconds() for _ in range(3)]
    return dt * REFERENCE_KERNEL_S / statistics.median(before + after)


def pin_to_one_cpu() -> None:
    """Run the benchmark, its kernel and every child it starts on one CPU,
    so each kernel sample sees the CPU the op it calibrates ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def require_source() -> None:
    if not (SRC / "entrocone" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'entrocone'} not found; run from the root of an entrocone checkout")
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _coefficients(cert) -> dict:
    return {r.label: lam.terms for r, lam in cert.coefficients.items()}


# -- workloads ----------------------------------------------------------------


class Certify:
    """Certify one generated PMF text or exact face vector per op."""

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed

    def blocks(self):
        return gen.certify_blocks(self.seed)

    def warmup_input(self):
        return gen.qu_item(random.Random("warmup"))

    def bind(self) -> None:
        from entrocone import bounds, distributions, logexact, polycone

        self.lib = (bounds, distributions, logexact, polycone)
        self.full = polycone.face_for_generators(polycone.RAY_ORDER)

    def prepare(self, item):
        return item

    def run(self, item):
        bounds, distributions, logexact, polycone = self.lib
        qu = None
        if "text" in item:
            pmf = distributions.parse_pmf(item["text"])
            h = distributions.entropy_vector(pmf)
            qu = distributions.is_quasi_uniform(pmf)
            face = self.full
        else:
            h = distributions.EntropyVector(3, [logexact.LogLinear(t) for t in item["h"]])
            face = bounds.THETA_FACE if item["kind"] == "theta" else bounds.OMEGA_FACE
        gamma = polycone.in_gamma_n(h)
        cert = polycone.cone_membership(h, polycone.RAY_ORDER)
        loc = polycone.strict_in_face(h, face)
        return h, qu, gamma, cert, loc, bounds.theta_in(h), bounds.omega_in(h)

    def decided(self, out) -> bool:
        return True

    def check(self, item, out) -> str | None:
        return check_certify(item, out)


def check_certify(item: dict, out) -> str | None:
    h, qu, gamma, cert, loc, theta, omega = out
    got = [c.terms for c in h.coords]
    if item["kind"] == "qu":
        want = [exact.log_int(m) for m in item["m"]]
        if got != want:
            return "h_alpha != log m_alpha on a uniform-on-support construction"
        sizes = [qu.support_sizes[frozenset(a)] for a in exact.SUBSETS] if qu.is_qu else None
        if sizes != item["m"]:
            return f"quasi-uniform verdict {qu.is_qu} with sizes {sizes}, expected sizes {item['m']}"
    elif item["kind"] == "pmf":
        want = exact.entropy_vector_terms(item["weights"])
        if got != want:
            return "entropy vector differs from the integer-count reference"
        if qu.is_qu:
            return "non-uniform PMF reported quasi-uniform"
    else:
        want = item["h"]
        if got != want:
            return "exact vector changed on construction"
    if not gamma.in_cone:
        return "entropic vector reported outside Gamma_3"
    if cert is None or exact.recombine(_coefficients(cert)) != want:
        return "no exact decomposition over the 8 rays"
    if any(exact.sign(t) < 0 for t in _coefficients(cert).values()):
        return "negative coefficient in the 8-ray certificate"

    face = tuple(exact.RAYS) if "text" in item else (exact.THETA if item["kind"] == "theta" else exact.OMEGA)
    tight = exact.tight_set(want)
    position = "strictly_inside" if tight == exact.face_tight_set(face) else "in_subface"
    if loc.position.value != position:
        return f"face position {loc.position.value}, expected {position}"
    if position == "in_subface" and set(loc.subface.labels()) != exact.minimal_face(tight):
        return f"subface {loc.subface.labels()}, expected {sorted(exact.minimal_face(tight))}"
    if exact.recombine(_coefficients(loc.certificate)) != want:
        return "face certificate does not reproduce the vector"

    if "text" in item:
        theta_member, theta_lam, omega_member, omega_lam = exact.inner_verdicts(want)
    else:
        lam = item["coeffs"]
        if _coefficients(loc.certificate) != lam:
            return "face certificate differs from the construction coefficients"
        lam12 = lam.get("12", {})
        theta_lam = None if lam12 else {r: lam[r] for r in exact.THETA}
        theta_member = theta_lam is not None and exact.is_log_natural(lam["123p"])
        omega_lam = {r: lam.get(r, {}) for r in exact.OMEGA}
        omega_member = exact.omega_condition(lam12, lam["123p"])
    for name, verdict, member, lam in (("theta", theta, theta_member, theta_lam), ("omega", omega, omega_member, omega_lam)):
        if verdict.member != member:
            return f"{name} verdict {verdict.member}, expected {member}"
        got_lam = _coefficients(verdict.decomposition) if verdict.decomposition else None
        if got_lam != lam:
            return f"{name} decomposition differs from the expected coefficients"
    return None


class Search:
    """One single-worker search per op under a fixed node budget."""

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed
        self.table = gen.load_verdicts()
        self.nodes = self.table["budget_nodes"]

    def blocks(self):
        return gen.search_blocks(self.seed, self.table)

    def warmup_input(self):
        return {"m": [4, 4, 4, 16, 16, 16, 48]}

    def bind(self) -> None:
        from entrocone import qusearch
        from entrocone.subsets import canonical_order

        self.qusearch = qusearch
        self.order = canonical_order(3)
        self.budget = qusearch.Budget(max_nodes=self.nodes, max_seconds=1e9)

    def prepare(self, entry):
        return self.qusearch.SupportSpec(3, dict(zip(self.order, entry["m"])))

    def run(self, spec):
        return self.qusearch.search(spec, self.budget)

    def decided(self, out) -> bool:
        return out.status.value != "budget_exceeded"

    def check(self, entry, out) -> str | None:
        return check_search(entry["m"], out, self.table)


def check_search(m: list, out, table: dict) -> str | None:
    status = out.status.value
    if status == "budget_exceeded":
        if out.nodes_explored != table["budget_nodes"] + 1:
            return f"budget-capped after {out.nodes_explored} nodes: the wall clock decided"
        return None
    truth = table["verdicts"][",".join(map(str, exact.canonical(tuple(m))))]
    if truth != "unknown" and status != truth:
        return f"verdict {status}, recorded verdict {truth}"
    if status == "found":
        points = list(out.pmf.mass) if out.pmf is not None else []
        uniform = out.pmf is not None and set(out.pmf.mass.values()) == {Fraction(1, m[6])}
        if not uniform or list(out.pmf.alphabet_sizes) != m[:3] or not exact.is_quasi_uniform_support(points, m):
            return "witness is not quasi-uniform with the target support sizes"
    return None


class Cli:
    """One ``python -m entrocone.cli`` subprocess per op."""

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.expected: dict[tuple, tuple] = {}
        self.max_rss_kb = 0
        self.report_bytes: list[int] = []

    def blocks(self):
        return gen.cli_blocks(self.seed, gen.cli_files(self.seed, ROOT, self.workdir, gen.load_verdicts()))

    def warmup_input(self):
        return ("catalog",)

    def bind(self) -> None:
        import entrocone  # noqa: F401  (set-up cost; the answers below import lazily)

    def prepare(self, op):
        return op

    def run(self, op):
        proc = subprocess.Popen(
            [sys.executable, "-m", "entrocone.cli", *op],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
            cwd=ROOT,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        self.report_bytes.append(len(out))
        return proc.returncode, out

    def decided(self, out) -> bool:
        return out[0] in (0, 1)

    def check(self, op, out) -> str | None:
        code, raw = out
        try:
            report = json.loads(raw)
        except ValueError:
            return f"{op[0]}: stdout is not JSON (exit {code})"
        if op not in self.expected:
            self.expected[op] = cli_answer(op)
        want_code, fields = self.expected[op]
        if code != want_code:
            return f"{op[0]}: exit {code}, expected {want_code}"
        for key, value in fields.items():
            if report.get(key) != value:
                return f"{op[0]}: field {key!r} differs from the in-process answer"
        return None


def cli_answer(op: tuple) -> tuple[int, dict]:
    """Exit code and verdict fields computed in process for a CLI op."""
    from entrocone import bounds, cli, distributions, polycone, qusearch
    from entrocone.logexact import LogLinear
    from entrocone.subsets import canonical_order, subset_name

    cmd, *args = op
    if cmd in ("entropy", "qu-check"):
        pmf = distributions.parse_pmf(Path(args[0]).read_text(encoding="utf-8"))
        if cmd == "entropy":
            return 0, {"coords": [c.to_json() for c in distributions.entropy_vector(pmf).coords]}
        v = distributions.is_quasi_uniform(pmf)
        fields = {"is_quasi_uniform": v.is_qu}
        if v.is_qu:
            fields["support_sizes"] = {subset_name(a): v.support_sizes[a] for a in canonical_order(3)}
        return (0 if v.is_qu else 1), fields
    if cmd == "catalog":
        faces = polycone.face_catalogue()
        return 0, {"count": len(faces), "faces": [f.to_json() for f in faces]}
    if cmd == "search":
        spec = qusearch.SupportSpec.from_json(json.loads(Path(args[0]).read_text(encoding="utf-8")))
        vec = distributions.EntropyVector(3, [LogLinear.from_log_int(spec.m[a]) for a in canonical_order(3)])
        budget = qusearch.Budget(max_nodes=int(args[2]))
        out = qusearch.search(spec, budget, hints=qusearch.structural_hints(vec))
        code = {"found": 0, "exhausted_infeasible": 1, "budget_exceeded": 2}[out.status.value]
        return code, {"status": out.status.value, "nodes_explored": out.nodes_explored}
    h = cli.parse_vector_json(json.loads(Path(args[0]).read_text(encoding="utf-8")))
    if cmd == "gamma":
        v = polycone.in_gamma_n(h)
        return (0 if v.in_cone else 1), {"in_cone": v.in_cone}
    if cmd == "spec":
        spec = qusearch.spec_from_vector(h)
        return (0 if spec else 1), {"liftable": spec is not None, "spec": spec.to_json() if spec else None}
    if cmd == "inner":
        v = bounds.theta_in(h) if args[1] == "theta" else bounds.omega_in(h)
        return (0 if v.member else 1), {"member": v.member}
    labels = {"theta": exact.THETA, "omega": exact.OMEGA, "full": tuple(exact.RAYS)}[args[1]]
    face = polycone.face_for_generators(polycone.ray_by_label(r) for r in labels)
    if cmd == "decompose":
        cert = polycone.cone_membership(h, face.generators)
        return (0 if cert else 1), {"member": cert is not None, "certificate": cert.to_json() if cert else None}
    loc = polycone.strict_in_face(h, face)
    inside = loc.position is polycone.FacePosition.STRICTLY_INSIDE
    return (0 if inside else 1), {
        "position": loc.position.value,
        "subface": list(loc.subface.labels()) if loc.subface else None,
    }


WORKLOADS = {"certify": Certify, "search": Search, "cli": Cli}


# -- measurement --------------------------------------------------------------


class Tally:
    def __init__(self):
        self.blocks: list[list] = []
        self.latency: list[float] = []  # wall seconds per op
        self.kernel: list[float] = []  # kernel seconds before each op, and once after the last
        self.failures: list[str] = []
        self.decided = 0
        self.busy = 0.0

    def factors(self) -> list[float]:
        """Per op: reference kernel time over the median kernel time around the op."""
        k = self.kernel
        return [REFERENCE_KERNEL_S / statistics.median(k[max(0, i - 2) : i + 4]) for i in range(len(self.latency))]

    def calibrated(self) -> list[float]:
        return [dt * f for dt, f in zip(self.latency, self.factors())]


def measure(wl, blocks, seconds: float, tracer: Tracer | None = None, min_ops: int = MIN_OPS) -> Tally:
    """Run whole blocks until the ops have been busy for `seconds` and at
    least `min_ops` ops ran."""
    tally = Tally()
    for block in blocks:
        if tally.busy >= seconds and len(tally.latency) >= min_ops:
            break
        tally.blocks.append(block)
        for item in block:
            x = wl.prepare(item)
            tally.kernel.append(kernel_seconds())
            if tracer is not None:
                tracer.begin_op(len(tally.latency))
            t0 = perf_counter()
            try:
                out, error = wl.run(x), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            tally.busy += dt
            tally.latency.append(dt)
            if error is None:
                try:
                    error = wl.check(item, out)
                except Exception as exc:
                    error = f"answer check raised {type(exc).__name__}: {exc}"
            if error is None and wl.decided(out):
                tally.decided += 1
            if error is not None:
                tally.failures.append(error)
    tally.kernel.append(kernel_seconds())
    return tally


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of import plus one warm-up op,
    calibrated in each interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def setup_probe(workload: str) -> None:
    wl = WORKLOADS[workload](0, None)
    x = wl.warmup_input()

    def set_up():
        wl.bind()
        wl.run(wl.prepare(x))

    print(calibrated_seconds(set_up))


def process_ms(code: str) -> float:
    argv = [sys.executable, "-c", code]
    samples = [
        calibrated_seconds(lambda: subprocess.run(argv, env=child_env(), cwd=ROOT, check=True))
        for _ in range(PROCESS_PROBES)
    ]
    return statistics.median(samples) * 1e3


def end_to_end(wl, tally: Tally, setup: float) -> dict:
    if isinstance(wl, Cli):
        rss_kb = wl.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latency = tally.calibrated()
    return {
        "setup_s": setup,
        "ops_per_s": len(latency) / sum(latency),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_p90_ms": statistics.quantiles(latency, n=10)[-1] * 1e3,
        "decided_frac": tally.decided / len(tally.latency),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(wl, traced: Tally, plain: Tally, tracer: Tracer) -> dict:
    metrics = tracer.layer_metrics(traced.factors())
    interpreter = process_ms("pass")
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = process_ms("import entrocone") - interpreter
    per_command: dict[str, list[float]] = {}
    if isinstance(wl, Cli):
        for tally in (traced, plain):
            for op, dt in zip((op for block in tally.blocks for op in block), tally.calibrated()):
                per_command.setdefault(op[0], []).append(dt)
    for cmd in gen.CLI_COMMANDS:
        times = per_command.get(cmd)
        metrics[f"cli.{cmd}_ms"] = statistics.median(times) * 1e3 if times else 0.0
    sizes = getattr(wl, "report_bytes", [])
    metrics["cli.report_bytes"] = statistics.fmean(sizes) if sizes else 0.0
    metrics["trace.overhead_frac"] = sum(traced.calibrated()) / sum(plain.calibrated()) - 1
    return metrics


def traced_run(wl, seconds: float) -> tuple[Tally, Tally, Tracer]:
    """Half the time traced, then the same ops again untraced."""
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched_objects
    try:
        traced = measure(wl, wl.blocks(), seconds / 2, tracer, min_ops=0)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"tracing left {attr} patched")
    plain = measure(wl, iter(traced.blocks), float("inf"))
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{type(wl).__name__.lower()}-{wl.seed}.json")
    return traced, plain, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_source()
    pin_to_one_cpu()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.bind()
        wl.run(wl.prepare(wl.warmup_input()))
        if args.trace:
            traced, plain, tracer = traced_run(wl, args.seconds)
            values, tallies, listed = per_layer(wl, traced, plain, tracer), (traced, plain), spec["per_layer"]
        else:
            setup = setup_seconds(args.workload)
            tally = measure(wl, wl.blocks(), args.seconds)
            values, tallies, listed = end_to_end(wl, tally, setup), (tally,), spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for t in tallies for f in t.failures]
    attempted = sum(len(t.latency) for t in tallies)
    for line in failures[:10]:
        print(f"perfbench: failed op: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
