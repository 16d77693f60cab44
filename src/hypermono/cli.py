"""Command-line interface: classification, family construction, Levelt
generators, Gram/gate reports, thinness certificates, growth probes, and the
rank-3 appendix checks, all as stable JSON (CSV for growth)."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import distgraph, growth, lattice, levelt, spin
from .appendix_data import EXAMPLES
from .exponents import (
    FAMILIES,
    ExponentPair,
    FamilyId,
    classify,
    landau_integral,
    make_family,
    match_family,
    to_factorial_form,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


class CliError(ValueError):
    """Invalid input that only the CLI can see; exits 2, as the library's
    own ValueErrors do."""


def _parse_rational_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed rational list {text!r}: {exc}")


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _vec(v) -> list[str]:
    return [str(int(x)) for x in v]


def _mat(m) -> list[list[str]]:
    return [[str(int(x)) for x in row] for row in m]


def _pair_json(pair: ExponentPair) -> dict:
    return {"alpha": [_rat(a) for a in pair.alpha],
            "beta": [_rat(b) for b in pair.beta]}


def _make_pair(args) -> ExponentPair:
    if args.alpha is None or args.beta is None:
        raise CliError("--alpha and --beta are required")
    return ExponentPair.make(_parse_rational_list(args.alpha),
                             _parse_rational_list(args.beta))


def _resolve_pair(args) -> ExponentPair:
    if args.name is not None:
        return _family_pair(args)
    return _make_pair(args)


def _family_pair(args) -> ExponentPair:
    if args.n is None:
        raise CliError("--n is required with --name")
    j = args.j if args.j is not None else 1
    fid = FamilyId(args.name, j, args.k, args.n)
    try:
        return make_family(fid)
    except ValueError as exc:  # the message already names fid
        raise CliError(f"invalid family parameters {exc}")


def _report(out: dict, code: int = EXIT_OK) -> tuple[str, int]:
    return json.dumps(out, indent=2, sort_keys=True) + "\n", code


def _classification_json(cls) -> dict:
    return {
        "cyclotomic": cls.cyclotomic,
        "disjoint": cls.disjoint,
        "category": cls.category,
        "hyperbolic": cls.hyperbolic,
        "sig_defect": cls.sig_defect,
    }


def cmd_classify(args) -> tuple[str, int]:
    pair = _make_pair(args)
    cls = classify(pair)
    if not cls.disjoint:
        raise CliError(levelt.SHARED_EXPONENT)
    out = _pair_json(pair)
    out.update(_classification_json(cls))
    out["families"] = [str(f) for f in match_family(pair)]
    return _report(out)


def cmd_family(args) -> tuple[str, int]:
    pair = _family_pair(args)
    out = _pair_json(pair)
    out.update(_classification_json(classify(pair)))
    return _report(out)


def _build(args) -> levelt.MonodromySystem:
    return levelt.build(_resolve_pair(args))


def cmd_build(args) -> tuple[str, int]:
    m = _build(args)
    return _report({
        **_pair_json(m.pair),
        "A": _mat(m.A),
        "B": _mat(m.B),
        "C": _mat(m.C),
        "v": _vec(m.v),
        "rotation_generator": m.rotation_generator,
        "rotation_order": m.rotation_order,
    })


def cmd_gram(args) -> tuple[str, int]:
    m = _build(args)
    lat = lattice.invariant_form(m)
    try:
        gate = lattice.quotient_gate(lat)
    except ValueError:  # the lattice is not hyperbolic: no gate applies
        gate = None
    return _report({
        "gram": _mat(lat.gram),
        "parity": lat.parity,
        "invariant_factors": [int(d) for d in lat.inv_factors],
        "signature": lat.signature,
        "gate": None if gate is None else {"verdict": gate.verdict,
                                           "reason": gate.reason},
    })


def cmd_certify(args) -> tuple[str, int]:
    rep = distgraph.certify(_build(args), max_depth=args.max_depth,
                            node_budget=args.budget)
    out = {
        "status": rep.status,
        "detail": rep.detail,
        "path": [_vec(p) for p in rep.path],
        "factorization": [
            {"first": _vec(a.vec), "first_norm": a.norm,
             "second": _vec(b.vec), "second_norm": b.norm}
            for a, b in rep.factorization
        ],
        "gate": {"verdict": rep.gate.verdict, "reason": rep.gate.reason},
    }
    return _report(out, EXIT_BUDGET if rep.budget_exhausted else EXIT_OK)


def cmd_growth(args) -> tuple[str, int]:
    m = _build(args)
    run = growth.growth_run([m.A, m.B], args.tmin, args.tmax, args.points,
                            args.word_limit, margin=args.margin)
    lines = run.csv_lines()
    meta = {"slope": run.slope, "residual": run.residual,
            "word_limit": run.word_limit, "margin": run.margin}
    lines.append(json.dumps(meta, sort_keys=True))
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_landau(args) -> tuple[str, int]:
    pair = _resolve_pair(args)
    form = to_factorial_form(pair)
    return _report({
        **_pair_json(pair),
        "a_list": sorted(form.a_list),
        "b_list": sorted(form.b_list),
        "d": form.d,
        "integral": landau_integral(form),
    })


def cmd_appendix(args) -> tuple[str, int]:
    if args.example not in EXAMPLES:
        raise CliError("example must be between 1 and 6")
    ex = EXAMPLES[args.example]
    rep = spin.verify_basis_change(args.example)
    out = {
        "example": args.example,
        "alpha": [_rat(a) for a in ex.alpha],
        "beta": [_rat(b) for b in ex.beta],
        "isotropic": ex.isotropic,
        "checks": [{"name": name, "passed": ok} for name, ok in rep.checks],
    }
    region = spin.appendix_dirichlet_region(args.example, args.depth)
    out["dirichlet"] = {
        "bounded": region.bounded,
        "vertices": [[u, v] for u, v in region.vertices],
        "epsilon": region.epsilon,
    }
    return _report(out)


def _add_pair_flags(p):
    p.add_argument("--alpha", help="comma-separated rationals p/q")
    p.add_argument("--beta", help="comma-separated rationals p/q")
    p.add_argument("--name", choices=FAMILIES)
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared: argparse keeps no state
    between parse_args calls."""
    parser = argparse.ArgumentParser(prog="hypermono")
    parser.add_argument("--output", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("family")
    p.add_argument("--name", required=True, choices=FAMILIES)
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, required=True)

    for name in ("build", "gram", "landau"):
        p = sub.add_parser(name)
        _add_pair_flags(p)

    p = sub.add_parser("certify")
    _add_pair_flags(p)
    p.add_argument("--max-depth", type=int, default=distgraph.MAX_DEPTH)
    p.add_argument("--budget", type=int, default=distgraph.NODE_BUDGET)

    p = sub.add_parser("growth")
    _add_pair_flags(p)
    p.add_argument("--tmin", type=int, default=10)
    p.add_argument("--tmax", type=int, default=10_000)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--word-limit", type=int, default=None)
    p.add_argument("--margin", type=int, default=growth.MARGIN)

    p = sub.add_parser("appendix")
    p.add_argument("--example", type=int, required=True)
    p.add_argument("--depth", type=int, default=8)
    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "family": cmd_family,
    "build": cmd_build,
    "gram": cmd_gram,
    "certify": cmd_certify,
    "growth": cmd_growth,
    "landau": cmd_landau,
    "appendix": cmd_appendix,
}


def run(argv) -> int:
    """Parse, run one command, write its report; returns the exit code.
    Every invalid input, the CLI's own or the library's ValueError, exits 2
    with {"error": message}."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        text, code = _COMMANDS[args.command](args)
    except ValueError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, indent=2) + "\n")
        return EXIT_INVALID
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
