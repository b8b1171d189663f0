"""Command-line front end.

Subcommands: valuate, reduce, perron divide, perron monomialize, defect,
chain value.  Exit codes are a stable contract: 0 success, 2 bad input or
precondition, 3 defect suspected, 4 bound exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .defect import ExtensionData, FamilyDecomposition, SimpleFamily, consistency, jump_total, ostrowski
from .errors import InputError, PerronvalError
from .oracle import (
    DOCUMENT_VERSION,
    ArcValuation,
    AugmentedChain,
    MonomialValuation,
    load_oracle,
    oracle_from_document,
    read_document,
)
from .perron import DEFAULT_STEP_BOUND, build_a6_divide, monomialize
from .poly import parse_polynomial
from .reduce import Bounds, run_reduction, trace_document
from .scalars import parse_integer

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEFECT = 3
EXIT_BOUND = 4


def _write(value, out: list, pad: str):
    """Append to ``out`` the text ``json.dumps(value, indent=2,
    sort_keys=True)`` gives ``value`` at the indentation ``pad`` (a newline,
    then two blanks a level).  Keys are strs, as ``json.load`` and the
    library give them; strings and ints (not bools) are printed by the
    functions the encoder calls, every other scalar by ``json.dumps``
    itself.  One call a nesting level, as the encoder's."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _quote(key) + ": ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:
        out.append(json.dumps(value))


def _dump(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.  Below
    Python 3.13 that encoder indents in pure Python, and ``_write`` gives
    the same bytes in less time; from 3.13 on it indents in C, and runs."""
    try:
        if sys.version_info >= (3, 13):
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        out = []
        _write(doc, out, "\n")
        out.append("\n")
        return "".join(out)
    except ValueError as exc:  # an integer above the int-to-text limit
        raise InputError(f"value too long to print: {exc}") from exc
    except RecursionError as exc:
        raise InputError("document nested too deeply to print") from exc


def _parse_monomial(oracle, text):
    poly = parse_polynomial(oracle.frame, oracle.field, text)
    if len(poly.terms) != 1:
        raise InputError(f"{text!r} is not a monomial")
    (mono, _coeff), = poly.terms.items()
    return mono


def _bound(value, option: str) -> int:
    """A step bound read with ``parse_integer`` (ASCII digits, no ``_``);
    a negative bound is refused rather than taken as zero."""
    bound = parse_integer(value, option)
    if bound < 0:
        raise InputError(f"{option} must be nonnegative, got {bound}")
    return bound


def cmd_valuate(args) -> int:
    """``valuate``, and ``chain value``: the same on chain documents only."""
    oracle = load_oracle(args.oracle)
    if args.command == "chain" and not isinstance(oracle, AugmentedChain):
        raise InputError("chain value needs a chain oracle document")
    poly = parse_polynomial(oracle.frame, oracle.field, args.poly)
    print(oracle.value(poly))
    return EXIT_OK


def cmd_reduce(args) -> int:
    bounds = Bounds(
        max_translations=_bound(args.max_translations, "--max-translations"),
        max_perron_steps=_bound(args.max_perron_steps, "--max-perron-steps"),
        max_approx_steps=_bound(args.max_approx_steps, "--max-approx-steps"),
    )
    oracle_doc = read_document(args.oracle)
    # --trunc replaces the document's window, and the trace records it
    if args.trunc is not None and isinstance(oracle_doc, dict):
        oracle_doc["trunc"] = args.trunc
    oracle = oracle_from_document(oracle_doc)
    if not isinstance(oracle, ArcValuation):
        raise InputError("reduce needs an arc oracle document")
    if not oracle.arc_consistency():
        raise InputError("arc is inconsistent with the hypersurface")
    result = run_reduction(oracle, bounds)
    doc = trace_document(result, oracle_doc)
    text = _dump(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if result.status == "DEFECT-SUSPECTED":
        return EXIT_DEFECT
    if result.status == "BOUND-EXHAUSTED":
        return EXIT_BOUND
    return EXIT_OK


def cmd_perron_divide(args) -> int:
    bound = _bound(args.max_perron_steps, "--max-perron-steps")
    oracle = load_oracle(args.weights)
    if not isinstance(oracle, MonomialValuation):
        raise InputError("perron divide needs a monomial oracle document")
    m1 = _parse_monomial(oracle, args.m1)
    m2 = _parse_monomial(oracle, args.m2)
    tau = build_a6_divide(m1, m2, oracle.weights, oracle.frame, bound=bound)
    doc = {"version": DOCUMENT_VERSION, **tau.document()}
    sys.stdout.write(_dump(doc))
    return EXIT_OK


def cmd_perron_monomialize(args) -> int:
    bound = _bound(args.max_perron_steps, "--max-perron-steps")
    oracle = load_oracle(args.weights)
    if not isinstance(oracle, MonomialValuation):
        raise InputError("perron monomialize needs a monomial oracle document")
    poly = parse_polynomial(oracle.frame, oracle.field, args.poly)
    result = monomialize(poly, oracle.weights, oracle.frame, bound=bound)
    doc = {
        "version": DOCUMENT_VERSION,
        "transforms": [t.document() for t in result.transforms],
        "exponents": list(result.exponents),
        "unit": str(result.unit),
    }
    sys.stdout.write(_dump(doc))
    return EXIT_OK


def cmd_defect(args) -> int:
    families = []
    for text in args.family or ():
        first, _, stable = text.partition(":")
        families.append(SimpleFamily(parse_integer(first, "family degree"),
                                     parse_integer(stable or first, "family degree")))
    data = ExtensionData(degree=parse_integer(args.degree, "--degree"),
                         e=parse_integer(args.e, "--e"),
                         fres=parse_integer(args.f, "--f"),
                         p=parse_integer(args.p, "--p"))
    lines = [f"delta={ostrowski(data)}"]
    if families:
        decomposition = FamilyDecomposition(tuple(families))
        lines.append(f"jump_total={jump_total(decomposition)}")
        lines.append(f"consistent={'true' if consistency(data, decomposition) else 'false'}")
    # everything is computed before the first line is printed, so an error
    # leaves no partial output
    print("\n".join(lines))
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perronval",
        description="Exact Perron transforms and reduction of multiplicity "
        "along rank-1 valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("valuate", help="value of a polynomial under an oracle")
    p.add_argument("--oracle", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_valuate)

    p = sub.add_parser("reduce", help="run the multiplicity reduction")
    p.add_argument("--oracle", required=True, help="arc oracle document (curve)")
    p.add_argument("--out", help="write the trace document here (default stdout)")
    p.add_argument("--trunc", help="override the arc truncation")
    defaults = Bounds()
    p.add_argument("--max-translations", default=defaults.max_translations)
    p.add_argument("--max-perron-steps", default=defaults.max_perron_steps)
    p.add_argument("--max-approx-steps", default=defaults.max_approx_steps,
                   help="steps of the best-approximation ladder per translation")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("perron", help="Perron transform constructions")
    psub = p.add_subparsers(dest="subcommand", required=True)
    d = psub.add_parser("divide", help="A6 transform making M1 divide M2")
    d.add_argument("--weights", required=True, help="monomial oracle document")
    d.add_argument("--m1", required=True)
    d.add_argument("--m2", required=True)
    d.add_argument("--max-perron-steps", default=DEFAULT_STEP_BOUND)
    d.set_defaults(func=cmd_perron_divide)
    mo = psub.add_parser("monomialize", help="monomial-times-unit factorization")
    mo.add_argument("--weights", required=True)
    mo.add_argument("--poly", required=True)
    mo.add_argument("--max-perron-steps", default=DEFAULT_STEP_BOUND)
    mo.set_defaults(func=cmd_perron_monomialize)

    p = sub.add_parser("defect", help="defect from Ostrowski's identity")
    p.add_argument("--degree", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--f", default=1)
    p.add_argument("--p", required=True)
    p.add_argument(
        "--family", action="append",
        help="simple family as first_degree:stable_degree (repeatable)",
    )
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("chain", help="augmented-chain oracles")
    csub = p.add_subparsers(dest="subcommand", required=True)
    cv = csub.add_parser("value", help="value of a polynomial under a chain")
    cv.add_argument("--oracle", required=True)
    cv.add_argument("--poly", required=True)
    cv.set_defaults(func=cmd_valuate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PerronvalError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
