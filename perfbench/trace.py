"""Spans around the public calls into each entrocone module.

``Tracer.install`` replaces each traced function in the namespace its
callers look it up in (a module global, or a class attribute for the
``LogLinear`` methods) with a wrapper that records a span; ``uninstall``
puts every original object back.  Spans are recorded only while an op is
open, so the benchmark's own answer checks never count.  They stay in
memory and are written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.results: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._open("op")

    def end_op(self) -> None:
        self._close()
        self.op = None

    def _open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])

    def _close(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def _wrap(self, name: str, fn, keep_result: bool, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if keep_result:
                tracer.results[name].append(result)
            return result

        return traced

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from entrocone import bounds, distributions, logexact, polycone, qusearch

        def marginal(tracer, args):
            tracer.counts["marginals"] += 1
            tracer.counts["marginal_points"] += len(args[0].mass)

        ll = logexact.LogLinear
        self._patch(ll, "sign", self._wrap("sign", ll.sign, False))
        self._patch(ll, "pow2_ceil", self._wrap("pow2_ceil", ll.pow2_ceil, False))
        self._patch(ll, "__init__", self._count("values", ll.__init__))
        for fn in ("parse_pmf", "entropy_vector", "is_quasi_uniform"):
            self._patch(distributions, fn, self._wrap(fn, getattr(distributions, fn), False))
        self._patch(distributions, "marginalize", self._wrap("marginalize", distributions.marginalize, False, marginal))
        gamma = self._wrap("in_gamma_n", polycone.in_gamma_n, False)
        decomp = self._wrap("cone_membership", polycone.cone_membership, True)
        for module in (polycone, qusearch):
            self._patch(module, "in_gamma_n", gamma)
        for module in (polycone, bounds):
            self._patch(module, "cone_membership", decomp)
        self._patch(polycone, "strict_in_face", self._wrap("strict_in_face", polycone.strict_in_face, False))
        for fn in ("theta_in", "omega_in"):
            self._patch(bounds, fn, self._wrap(fn, getattr(bounds, fn), True))
        self._patch(qusearch, "search", self._wrap("search", qusearch.search, True))
        self._patch(
            qusearch,
            "check_feasibility_necessary",
            self._wrap("check_feasibility_necessary", qusearch.check_feasibility_necessary, False),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched_objects(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- analysis ------------------------------------------------------------

    def totals(self, factors=None) -> tuple[dict, dict, dict]:
        """Per span name: call count, total time, self time; times scaled
        by the calibration factor of the span's op when given."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            f = factors[op] if factors else 1.0
            calls[name] += 1
            total[name] += (end - start) * f
            self_time[name] += (end - start - child_time[i]) * f
        return calls, total, self_time

    def layer_metrics(self, factors=None) -> dict:
        calls, total, self_time = self.totals(factors)
        ops = max(calls["op"], 1)
        decomp = self.results["cone_membership"]
        verdicts = self.results["theta_in"] + self.results["omega_in"]
        outcomes = self.results["search"]
        statuses = [o.status.value for o in outcomes]
        nodes = sum(o.nodes_explored for o in outcomes)

        def per_op(x):
            return x / ops

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "logexact.sign_calls": per_op(calls["sign"]),
            "logexact.sign_self_s": per_op(self_time["sign"]),
            "logexact.pow2_ceil_calls": per_op(calls["pow2_ceil"]),
            "logexact.pow2_ceil_self_s": per_op(self_time["pow2_ceil"]),
            "logexact.values_built": per_op(self.counts["values"]),
            "distributions.parse_self_s": per_op(self_time["parse_pmf"]),
            "distributions.entropy_self_s": per_op(self_time["entropy_vector"]),
            "distributions.qu_self_s": per_op(self_time["is_quasi_uniform"]),
            "distributions.marginalize_self_s": per_op(self_time["marginalize"]),
            "distributions.marginals_built": per_op(self.counts["marginals"]),
            "distributions.support_points": per_op(self.counts["marginal_points"]),
            "polycone.gamma_calls": per_op(calls["in_gamma_n"]),
            "polycone.gamma_self_s": per_op(self_time["in_gamma_n"]),
            "polycone.decomp_calls": per_op(calls["cone_membership"]),
            "polycone.decomp_self_s": per_op(self_time["cone_membership"]),
            "polycone.decomp_found_ratio": ratio(sum(c is not None for c in decomp), len(decomp)),
            "polycone.face_self_s": per_op(self_time["strict_in_face"]),
            "bounds.theta_self_s": per_op(self_time["theta_in"]),
            "bounds.omega_self_s": per_op(self_time["omega_in"]),
            "bounds.member_ratio": ratio(sum(v.member for v in verdicts), len(verdicts)),
            "qusearch.nodes": per_op(nodes),
            "qusearch.nodes_per_s": ratio(nodes, self_time["search"]),
            "qusearch.search_self_s": per_op(self_time["search"]),
            "qusearch.feasibility_s": per_op(total["check_feasibility_necessary"]),
            "qusearch.found": ratio(statuses.count("found"), len(statuses)),
            "qusearch.exhausted": ratio(statuses.count("exhausted_infeasible"), len(statuses)),
            "qusearch.budget_hit": ratio(statuses.count("budget_exceeded"), len(statuses)),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
