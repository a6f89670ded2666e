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


_SHORTHAND_RE = re.compile(r"^log\s+([0-9]+)\s*(?:/\s*([0-9]+))?$")  # ASCII digits only


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


def _vector_report(h: EntropyVector) -> dict:
    return {
        "n": h.n,
        "order": [subset_name(a) for a in canonical_order(h.n)],
        "coords": [c.to_json() for c in h.coords],
        "bits": [c.approx_bits(4) for c in h.coords],
    }


def _load_vector3(path: str) -> EntropyVector:
    """A vector file for the commands defined on three variables only."""
    h = _load_vector(path)
    if h.n != 3:
        raise DataError(f"{path}: this command is defined for 3-variable vectors, not n={h.n}")
    return h


# -- commands ----------------------------------------------------------------
# Each returns (verdict, report), the verdict True, False or None (left open);
# main adds "command", prints the report and maps the verdict to the exit code.


def _cmd_entropy(args) -> tuple[Optional[bool], dict]:
    pmf = _load_pmf(args.pmf_file)
    try:
        h = entropy_vector(pmf)
    except ValueError as exc:
        raise DataError(f"{args.pmf_file}: {exc}") from None
    return True, _vector_report(h)


def _cmd_qu_check(args) -> tuple[Optional[bool], dict]:
    pmf = _load_pmf(args.pmf_file)
    verdict = is_quasi_uniform(pmf)
    report = {"is_quasi_uniform": verdict.is_qu}
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
    return verdict.is_qu, report


def _cmd_gamma(args) -> tuple[Optional[bool], dict]:
    from . import polycone

    h = _load_vector(args.vector_file)
    verdict = polycone.in_gamma_n(h)
    report = {"n": h.n, "in_cone": verdict.in_cone}
    if not verdict.in_cone:
        report["violated"] = {
            "name": verdict.violated.name,
            "coefficients": list(verdict.violated.coeffs),
            "value": verdict.value.to_json(),
        }
    return verdict.in_cone, report


def _cmd_decompose(args) -> tuple[Optional[bool], dict]:
    from . import polycone

    h = _load_vector3(args.vector_file)
    face = _parse_face(args.face)
    cert = polycone.cone_membership(h, face.generators)
    return cert is not None, {
        "face": list(face.labels()),
        "member": cert is not None,
        "certificate": cert.to_json() if cert else None,
    }


def _cmd_face(args) -> tuple[Optional[bool], dict]:
    from . import polycone

    h = _load_vector3(args.vector_file)
    face = _parse_face(args.face)
    loc = polycone.strict_in_face(h, face)
    return loc.position is polycone.FacePosition.STRICTLY_INSIDE, {
        "face": list(face.labels()),
        "position": loc.position.value,
        "subface": list(loc.subface.labels()) if loc.subface else None,
        "certificate": loc.certificate.to_json() if loc.certificate else None,
    }


def _cmd_inner(args) -> tuple[Optional[bool], dict]:
    from . import bounds

    h = _load_vector3(args.vector_file)
    try:
        verdict = bounds.theta_in(h) if args.bound == "theta" else bounds.omega_in(h)
    except ValueError as exc:
        raise DataError(f"{args.vector_file}: {exc}") from None
    return verdict.member, {"bound": args.bound, **verdict.to_json()}


def _cmd_spec(args) -> tuple[Optional[bool], dict]:
    from . import qusearch

    h = _load_vector(args.vector_file)
    try:
        spec = qusearch.spec_from_vector(h)
    except ValueError as exc:
        raise DataError(f"{args.vector_file}: {exc}") from None
    return spec is not None, {
        "liftable": spec is not None,
        "spec": spec.to_json() if spec else None,
    }


def _cmd_search(args) -> tuple[Optional[bool], dict]:
    from . import qusearch

    limits = {"max_nodes": args.budget_nodes, "max_seconds": args.budget_seconds}
    try:
        budget = qusearch.Budget(**{k: v for k, v in limits.items() if v is not None})
    except ValueError as exc:
        raise UsageError(f"search budget: {exc}") from None
    try:
        spec = qusearch.SupportSpec.from_json(_load_json(args.spec_file))
        ok, witness = qusearch.check_feasibility_necessary(spec)
    except ValueError as exc:
        raise DataError(f"{args.spec_file}: {exc}") from None
    if not ok:
        return False, {"status": "infeasible_necessary", "witness": witness}
    outcome = qusearch.search(spec, budget=budget)
    found = outcome.status is qusearch.SearchStatus.FOUND
    spent = outcome.status is qusearch.SearchStatus.BUDGET_EXCEEDED
    return None if spent else found, {
        "status": outcome.status.value,
        "nodes_explored": outcome.nodes_explored,
        "witness": serialize_pmf(outcome.pmf) if outcome.pmf else None,
    }


def _cmd_catalog(_args) -> tuple[Optional[bool], dict]:
    from . import polycone

    faces = polycone.face_catalogue()
    return True, {
        "count": len(faces),
        "faces": [f.to_json() for f in faces],
    }


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
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("catalog", help="the canonical proper faces holding non-entropy vectors")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        verdict, report = args.func(args)
        json.dump({"command": args.command.replace("-", "_"), **report}, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
    return {True: 0, False: EX_FALSE, None: EX_INCONCLUSIVE}[verdict]


if __name__ == "__main__":
    sys.exit(main())
