"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that inputs are a pure function of the seed, that tracing leaves
the program unpatched, that every answer check rejects a planted wrong
answer, and that BENCHMARK.json, the layer map and the metrics the
benchmark computes name the same metrics.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pickle
import shutil
import types
import unittest

import exact
import gen
import run
from trace import Tracer

run.require_source()


def first_blocks(blocks, k: int = 6) -> bytes:
    return pickle.dumps(list(itertools.islice(blocks, k)))


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        table = gen.load_verdicts()
        for seed in (1, 7):
            self.assertEqual(first_blocks(gen.certify_blocks(seed)), first_blocks(gen.certify_blocks(seed)))
            self.assertEqual(first_blocks(gen.search_blocks(seed, table)), first_blocks(gen.search_blocks(seed, table)))
        self.assertNotEqual(first_blocks(gen.certify_blocks(1)), first_blocks(gen.certify_blocks(2)))

    def test_cli_files_and_ops(self):
        table = gen.load_verdicts()
        texts = []
        workdir = run.WORK / "selftest"
        for _ in range(2):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                pools = gen.cli_files(3, run.ROOT, workdir, table)
                files = sorted(workdir.iterdir())
                texts.append(([f.read_bytes() for f in files], first_blocks(gen.cli_blocks(3, pools))))
            finally:
                shutil.rmtree(workdir)
        self.assertEqual(texts[0], texts[1])

    def test_no_repeated_certify_input(self):
        items = [it for b in itertools.islice(gen.certify_blocks(5), 40) for it in b]
        keys = [gen.input_key(it) for it in items]
        self.assertEqual(len(keys), len(set(keys)))


class TracingRestoresProgram(unittest.TestCase):
    def test_every_wrapped_function_is_original_again(self):
        from entrocone import bounds, distributions, logexact, polycone, qusearch

        modules = (bounds, distributions, polycone, qusearch)
        before = [dict(vars(m)) for m in modules] + [dict(vars(logexact.LogLinear))]
        wl = run.Certify(4, None)
        wl.bind()
        tracer = Tracer()
        tracer.install()
        patched = tracer.patched_objects
        self.assertEqual(len(patched), 16)
        try:
            tally = run.measure(wl, wl.blocks(), 0.2, tracer, min_ops=0)
        finally:
            tracer.uninstall()
        self.assertEqual(tally.failures, [])
        for owner, attr, original in patched:
            current = vars(owner)[attr]
            self.assertIs(current, original, attr)
        after = [dict(vars(m)) for m in modules] + [dict(vars(logexact.LogLinear))]
        for b, a in zip(before, after):
            self.assertEqual(b.keys(), a.keys())
            for key in b:
                self.assertIs(a[key], b[key], key)
        metrics = tracer.layer_metrics()
        self.assertGreater(metrics["logexact.sign_calls"], 0)
        self.assertEqual(metrics["polycone.decomp_calls"], 4)


class ChecksRejectPlantedAnswers(unittest.TestCase):
    def certify_output(self, kind: str):
        wl = run.Certify(0, None)
        wl.bind()
        item = next(it for b in gen.certify_blocks(9) for it in b if it["kind"] == kind)
        out = wl.run(item)
        self.assertIsNone(run.check_certify(item, out))
        return item, out

    def test_flipped_inner_verdict(self):
        for kind in ("theta", "omega", "qu"):
            item, out = self.certify_output(kind)
            for slot in (5, 6):
                bad = list(out)
                bad[slot] = dataclasses.replace(out[slot], member=not out[slot].member)
                self.assertIsNotNone(run.check_certify(item, tuple(bad)), (kind, slot))

    def test_perturbed_certificate_coefficient(self):
        from entrocone.logexact import LogLinear

        for kind in ("pmf", "omega"):
            item, out = self.certify_output(kind)
            for slot in (3, 4):
                cert = out[3] if slot == 3 else out[4].certificate
                coeffs = dict(cert.coefficients)
                ray = next(iter(coeffs))
                coeffs[ray] = coeffs[ray] + LogLinear({2: 1})
                bad_cert = dataclasses.replace(cert, coefficients=coeffs)
                bad = list(out)
                bad[slot] = bad_cert if slot == 3 else dataclasses.replace(out[4], certificate=bad_cert)
                self.assertIsNotNone(run.check_certify(item, tuple(bad)), (kind, slot))

    def search_outcome(self, m):
        wl = run.Search(0, None)
        wl.bind()
        out = wl.run(wl.prepare({"m": m}))
        self.assertIsNone(run.check_search(m, out, wl.table))
        return wl, out

    def test_witness_missing_a_point(self):
        m = [4, 4, 4, 16, 16, 16, 48]
        wl, out = self.search_outcome(m)
        self.assertEqual(out.status.value, "found")
        mass = dict(out.pmf.mass)
        mass.pop(next(iter(mass)))
        pmf = types.SimpleNamespace(mass=mass, alphabet_sizes=out.pmf.alphabet_sizes)
        self.assertIsNotNone(run.check_search(m, dataclasses.replace(out, pmf=pmf), wl.table))

    def test_flipped_search_verdict_and_clock_cap(self):
        from entrocone.qusearch import SearchStatus

        m = [4, 4, 4, 16, 16, 16, 48]
        wl, out = self.search_outcome(m)
        flipped = dataclasses.replace(out, status=SearchStatus.EXHAUSTED_INFEASIBLE, pmf=None)
        self.assertIsNotNone(run.check_search(m, flipped, wl.table))
        clock = dataclasses.replace(out, status=SearchStatus.BUDGET_EXCEEDED, pmf=None, nodes_explored=500)
        self.assertIsNotNone(run.check_search(m, clock, wl.table))

    def test_cli_checks(self):
        wl = run.Cli(0, None)
        fixtures = run.SRC / "entrocone" / "fixtures"
        op = ("inner", str(fixtures / "g.vec"), "omega")
        code, raw = wl.run(op)
        self.assertIsNone(wl.check(op, (code, raw)))
        self.assertIsNotNone(wl.check(op, (1 - code, raw)))
        report = json.loads(raw)
        report["member"] = not report["member"]
        self.assertIsNotNone(wl.check(op, (code, json.dumps(report).encode())))
        self.assertIsNotNone(wl.check(op, (code, b"not json")))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_layer_map_and_metrics_agree(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer_map = json.loads((run.HERE / "layer_map.json").read_text(encoding="utf-8"))
        listed = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(listed, list(layer_map))
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        workloads = {w["name"] for w in spec["workloads"]}
        for name, targets in layer_map.items():
            self.assertLessEqual(set(targets), workloads, name)
            for moved in targets.values():
                self.assertLessEqual(set(moved), end_to_end, name)
        computed = set(Tracer().layer_metrics())
        computed |= {"cli.interpreter_ms", "cli.import_ms", "cli.report_bytes", "trace.overhead_frac"}
        computed |= {f"cli.{c}_ms" for c in gen.CLI_COMMANDS}
        self.assertEqual(set(listed), computed)
        tally = run.Tally()
        tally.latency = [0.1, 0.2, 0.3]
        tally.kernel = [run.REFERENCE_KERNEL_S] * 4
        tally.busy, tally.decided = 0.6, 3
        self.assertEqual(set(run.end_to_end(run.Certify(0, None), tally, 1.0)), end_to_end)


class ExactReference(unittest.TestCase):
    def test_ceiling_and_sign(self):
        from fractions import Fraction

        self.assertEqual(exact.ceil_antilog({2: Fraction(1, 2)}), 2)  # sqrt 2
        self.assertEqual(exact.ceil_antilog({3: Fraction(2)}), 9)
        self.assertEqual(exact.ceil_antilog({2: Fraction(-1), 5: Fraction(1)}), 3)  # 5/2
        self.assertEqual(exact.sign({2: Fraction(10), 3: Fraction(-6)}), 1)  # 1024 > 729
        self.assertEqual(exact.sign({2: Fraction(-1, 3), 3: Fraction(1, 5)}), -1)


if __name__ == "__main__":
    unittest.main()
