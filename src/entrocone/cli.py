"""Command-line front end.

Every command reads files, prints one JSON report to stdout and encodes
its verdict in the exit code:

    0   success / membership holds
    1   verdict is negative (not a member, not quasi-uniform, ...)
    2   inconclusive (search budget exceeded, or an exact sign left
        unresolved at the precision cap)
    64  usage error (also a search budget that cannot be met)
    65  data error in an input file
    70  internal error (an uncaught exception; the traceback goes to stderr)

Vector files are JSON objects ``{"n": .., "coords": [..]}`` where each
coordinate is either the shorthand string ``"log a"`` / ``"log a/b"`` or
an exact ``{"log_terms": {...}}`` object.  Decimal coordinates are
rejected: irrational values (such as entropies of non-uniform marginals)
must be given exactly through their log-terms.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional, Sequence

# only what every command uses: each command imports the rest itself
from .distributions import (
    EntropyVector,
    JointPMF,
    PMFFormatError,
    entropy_vector,
    is_quasi_uniform,
    parse_pmf,
    serialize_pmf,
)
from .logexact import LogLinear, PrecisionExhausted
from .subsets import MAX_VARS, canonical_order, subset_name

EX_FALSE = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70


class DataError(Exception):
    """Invalid input file contents; mapped to exit code 65."""


class UsageError(Exception):
    """An argument the command cannot act on; mapped to exit code 64."""


_SHORTHAND_RE = re.compile(r"^log\s+(\d+)\s*(?:/\s*(\d+))?$")


def parse_vector_json(obj) -> EntropyVector:
    if not isinstance(obj, dict) or "n" not in obj or "coords" not in obj:
        raise DataError("vector file must be an object with 'n' and 'coords'")
    n = obj["n"]
    if type(n) is not int or not 1 <= n <= MAX_VARS:
        raise DataError(f"variable count {n!r} outside the supported range 1..{MAX_VARS}")
    order = canonical_order(n)
    if "order" in obj:
        expected = [subset_name(a) for a in order]
        if obj["order"] != expected:
            raise DataError(f"coordinate order must be {expected}")
    raw = obj["coords"]
    if not isinstance(raw, list) or len(raw) != len(order):
        raise DataError(f"expected {len(order)} coordinates for n={n}")
    coords = []
    for k, entry in enumerate(raw):
        name = subset_name(order[k])
        if isinstance(entry, str):
            m = _SHORTHAND_RE.match(entry.strip())
            if not m:
                raise DataError(
                    f"coordinate {name}: bad shorthand {entry!r}"
                    " (decimals are rejected; use 'log a/b' or log_terms)"
                )
            try:
                coords.append(LogLinear.from_log_rational(int(m.group(1)), int(m.group(2) or 1)))
            except ValueError as exc:
                raise DataError(f"coordinate {name}: {exc}") from None
        elif isinstance(entry, dict):
            try:
                coords.append(LogLinear.from_json(entry))
            except (ValueError, TypeError) as exc:
                raise DataError(f"coordinate {name}: {exc}") from None
        else:
            raise DataError(
                f"coordinate {name}: numeric literals are rejected to protect exactness"
            )
    return EntropyVector(n, coords)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that rejects an object naming a key twice,
    where plain ``json.load`` would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is repeated in one object")
        obj[key] = value
    return obj


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # malformed JSON, not UTF-8, or a repeated key
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def _load_vector(path: str) -> EntropyVector:
    return parse_vector_json(_load_json(path))


def _load_pmf(path: str) -> JointPMF:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        return parse_pmf(text)
    except PMFFormatError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_face(name: str):
    from . import polycone

    alias = name.lower()
    if alias in ("theta", "omega"):
        from . import bounds

        return bounds.THETA_FACE if alias == "theta" else bounds.OMEGA_FACE
    if alias == "full":
        return polycone.FaceSpec(frozenset(polycone.RAY_ORDER))
    try:
        rays = frozenset(polycone.ray_by_label(lbl) for lbl in name.split(",") if lbl)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if not rays:
        raise DataError(f"empty face specification {name!r}")
    return polycone.FaceSpec(rays)


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _vector_report(h: EntropyVector) -> dict:
    return {
        "n": h.n,
        "order": [subset_name(a) for a in canonical_order(h.n)],
        "coords": [c.to_json() for c in h.coords],
        "bits": [c.approx_bits(4) for c in h.coords],
    }


# -- commands ----------------------------------------------------------------


def _cmd_entropy(args) -> int:
    pmf = _load_pmf(args.pmf_file)
    try:
        h = entropy_vector(pmf)
    except ValueError as exc:
        raise DataError(f"{args.pmf_file}: {exc}") from None
    report = {"command": "entropy", **_vector_report(h)}
    _emit(report)
    return 0


def _cmd_qu_check(args) -> int:
    pmf = _load_pmf(args.pmf_file)
    verdict = is_quasi_uniform(pmf)
    report = {"command": "qu_check", "is_quasi_uniform": verdict.is_qu}
    if verdict.is_qu:
        report["support_sizes"] = {
            subset_name(a): verdict.support_sizes[a] for a in canonical_order(pmf.n)
        }
    else:
        w = verdict.witness
        report["witness"] = {
            "subset": subset_name(w.alpha),
            "point_a": list(w.point_a),
            "mass_a": str(w.mass_a),
            "point_b": list(w.point_b),
            "mass_b": str(w.mass_b),
        }
    _emit(report)
    return 0 if verdict.is_qu else EX_FALSE


def _cmd_gamma(args) -> int:
    from . import polycone

    h = _load_vector(args.vector_file)
    verdict = polycone.in_gamma_n(h)
    report = {"command": "gamma", "n": h.n, "in_cone": verdict.in_cone}
    if not verdict.in_cone:
        report["violated"] = {
            "name": verdict.violated.name,
            "coefficients": list(verdict.violated.coeffs),
            "value": verdict.value.to_json(),
        }
    _emit(report)
    return 0 if verdict.in_cone else EX_FALSE


def _cmd_decompose(args) -> int:
    from . import polycone

    h = _load_vector(args.vector_file)
    face = _parse_face(args.face)
    if h.n != 3:
        raise DataError("conic decomposition requires a 3-variable vector")
    cert = polycone.cone_membership(h, face.generators)
    report = {
        "command": "decompose",
        "face": list(face.labels()),
        "member": cert is not None,
        "certificate": cert.to_json() if cert else None,
    }
    _emit(report)
    return 0 if cert is not None else EX_FALSE


def _cmd_face(args) -> int:
    from . import polycone

    h = _load_vector(args.vector_file)
    face = _parse_face(args.face)
    if h.n != 3:
        raise DataError("face location requires a 3-variable vector")
    loc = polycone.strict_in_face(h, face)
    report = {
        "command": "face",
        "face": list(face.labels()),
        "position": loc.position.value,
        "subface": list(loc.subface.labels()) if loc.subface else None,
        "certificate": loc.certificate.to_json() if loc.certificate else None,
    }
    _emit(report)
    return 0 if loc.position is polycone.FacePosition.STRICTLY_INSIDE else EX_FALSE


def _cmd_inner(args) -> int:
    from . import bounds

    h = _load_vector(args.vector_file)
    if h.n != 3:
        raise DataError("inner bounds are defined for 3-variable vectors")
    try:
        verdict = bounds.theta_in(h) if args.bound == "theta" else bounds.omega_in(h)
    except ValueError as exc:
        raise DataError(f"{args.vector_file}: {exc}") from None
    report = {"command": "inner", "bound": args.bound, **verdict.to_json()}
    _emit(report)
    return 0 if verdict.member else EX_FALSE


def _cmd_spec(args) -> int:
    from . import qusearch

    h = _load_vector(args.vector_file)
    try:
        spec = qusearch.spec_from_vector(h)
    except ValueError as exc:
        raise DataError(f"{args.vector_file}: {exc}") from None
    report = {
        "command": "spec",
        "liftable": spec is not None,
        "spec": spec.to_json() if spec else None,
    }
    _emit(report)
    return 0 if spec is not None else EX_FALSE


def _cmd_search(args) -> int:
    from . import qusearch

    limits = {"max_nodes": args.budget_nodes, "max_seconds": args.budget_seconds}
    try:
        budget = qusearch.Budget(**{k: v for k, v in limits.items() if v is not None})
    except ValueError as exc:
        raise UsageError(f"search budget: {exc}") from None
    # fail before the search on the common case; the write below catches the rest
    if args.witness_out and not os.path.isdir(os.path.dirname(args.witness_out) or "."):
        raise UsageError(f"--witness-out {args.witness_out}: no such directory")
    try:
        spec = qusearch.SupportSpec.from_json(_load_json(args.spec_file))
        ok, witness = qusearch.check_feasibility_necessary(spec)
    except ValueError as exc:
        raise DataError(f"{args.spec_file}: {exc}") from None
    if not ok:
        _emit({"command": "search", "status": "infeasible_necessary", "witness": witness})
        return EX_FALSE
    outcome = qusearch.search(spec, budget=budget)
    report = {
        "command": "search",
        "status": outcome.status.value,
        "nodes_explored": outcome.nodes_explored,
        "witness": serialize_pmf(outcome.pmf) if outcome.pmf else None,
    }
    if outcome.pmf is not None and args.witness_out:
        try:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                fh.write(serialize_pmf(outcome.pmf))
        except OSError as exc:
            raise UsageError(f"--witness-out: cannot write {args.witness_out}: {exc}") from None
    _emit(report)
    if outcome.status is qusearch.SearchStatus.FOUND:
        return 0
    if outcome.status is qusearch.SearchStatus.BUDGET_EXCEEDED:
        return EX_INCONCLUSIVE
    return EX_FALSE


def _cmd_catalog(_args) -> int:
    from . import polycone

    faces = polycone.face_catalogue()
    report = {
        "command": "catalog",
        "count": len(faces),
        "faces": [f.to_json() for f in faces],
    }
    _emit(report)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entrocone",
        description="Exact entropy vectors, cone membership and quasi-uniform synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="exact entropy vector of a PMF file")
    p.add_argument("pmf_file")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("qu-check", help="quasi-uniformity verdict for a PMF file")
    p.add_argument("pmf_file")
    p.set_defaults(func=_cmd_qu_check)

    p = sub.add_parser("gamma", help="elemental-inequality membership of a vector")
    p.add_argument("vector_file")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("decompose", help="conic decomposition over a face's rays")
    p.add_argument("vector_file")
    p.add_argument("face", help="'theta', 'omega', 'full' or ray labels like 1,2,123p")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("face", help="strictly-inside / subface / outside location")
    p.add_argument("vector_file")
    p.add_argument("face", help="'theta', 'omega', 'full' or ray labels like 1,2,123p")
    p.set_defaults(func=_cmd_face)

    p = sub.add_parser("inner", help="inner-bound membership on theta or omega")
    p.add_argument("vector_file")
    p.add_argument("bound", choices=("theta", "omega"))
    p.set_defaults(func=_cmd_inner)

    p = sub.add_parser("spec", help="lift a vector to quasi-uniform support sizes")
    p.add_argument("vector_file")
    p.set_defaults(func=_cmd_spec)

    p = sub.add_parser("search", help="synthesize a quasi-uniform distribution")
    p.add_argument("spec_file")
    # unset limits keep qusearch.Budget's defaults
    p.add_argument("--budget-nodes", type=int)
    p.add_argument("--budget-seconds", type=float)
    p.add_argument("--witness-out", metavar="FILE", help="also write the witness PMF to FILE")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("catalog", help="the canonical proper faces holding non-entropy vectors")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"entrocone: {exc}", file=sys.stderr)
        return EX_USAGE
    except DataError as exc:
        print(f"entrocone: {exc}", file=sys.stderr)
        return EX_DATAERR
    except PrecisionExhausted as exc:  # an answer left open, like a spent budget
        print(f"entrocone: {exc}", file=sys.stderr)
        return EX_INCONCLUSIVE
    except Exception:  # a crash must not read as the negative verdict (1)
        import traceback

        traceback.print_exc()
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
