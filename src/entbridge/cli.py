"""Command line front end.

Three subcommands:

* ``verify``: read an instance JSON (file or stdin), validate it against
  the shipped instance schema, run the matching bridge, self-check the
  report against the report schema and print it.  Output is canonical
  (sorted keys, fixed indentation), so identical inputs produce
  byte-identical reports.  Both checks run on every verify, through
  :mod:`entbridge.schemacheck`, which compiles both shipped schemas once
  when it is imported; jsonschema is imported only to word a refusal,
  whose message is then the same as validating against the full schema.
  The instance schema caps ``steps`` and ``height`` at 64, the
  matrices, ``moduli`` and ``subgroup`` at 16 items a side, moduli and
  qp integer entries at 2^128 in absolute value, and string entries at
  16 (qp) or 32 (real) characters with an exponent of at most one (qp)
  or three (real) digits.
* ``generate``: emit a random instance of a kind that
  :func:`~entbridge.bridge.verify_instance` dispatches, deterministic in
  the seed.
* ``schema``: print one of the shipped schemas.

The instance JSON is read with one rule for numbers: an integral number
such as ``3.0`` or ``1e30`` is read exactly as an integer (JSON Schema
already counts it as an integer), and ``NaN``, ``Infinity`` or a number
that overflows to an infinity, such as ``1e400``, is unusable input.

Exit codes: 0 the verification passed, 1 it ran and found a mismatch,
2 the input was unusable (also bytes that are not UTF-8, JSON nested
too deeply to parse, an integer past the interpreter's 4300-digit limit,
a number that is not finite, a value past a schema cap, or a qp working
modulus past 2^128), 3 the computation itself failed (also a failed
internal check of the package, or a malformed report).  Exit 2 is
decided by the exception type alone: every refusal of the input raises
:class:`~entbridge.exactlinalg.InputError`, any other exception exits 3.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from decimal import Decimal
from pathlib import Path

# bound under this name for perfbench's cli.schema_validate layer, which traces jsonschema.validate here
from . import schemacheck as jsonschema
from .bridge import _KINDS, random_instance, verify_instance
from .exactlinalg import InputError
from .schemacheck import SCHEMA_NAMES, load_schema

__all__ = ["main", "render_text", "canonical_json", "load_schema"]

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_COMPUTATION_ERROR = 3


def canonical_json(payload: dict) -> str:
    """Sorted keys, fixed indentation; NaN or an infinity raises ValueError."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _estimate_line(label: str, estimate: dict, counterexample: dict | None) -> str:
    if estimate["ratio"] is None:
        return f"{label} ratio law broken at step {counterexample['ratio_law'][label]['step']}"
    relation = "=" if estimate["exact"] else "<="
    return f"{label} entropy {relation} log({estimate['ratio']}) = {_fmt(estimate['value'])}"


def render_text(report: dict) -> str:
    """Human-readable rendering; a pure function of the report dict.

    The exact kinds share one layout: the index table and each side's
    entropy, then the closed form, if the report has one, and each side's
    agreement with it."""
    lines = [f"kind: {report['kind']}", f"verdict: {report['verdict']}"]
    if report["kind"] == "real":
        lines.append(f"topological entropy: {_fmt(report['topological'])}")
        lines.append(f"algebraic entropy (dual side): {_fmt(report['algebraic'])}")
        lines.append(f"difference: {_fmt(report['difference'])}")
        if report["boundary_warning"]:
            lines.append("warning: eigenvalue modulus near 1; classification unreliable")
        return "\n".join(lines) + "\n"
    lines.append("step  primal-index  dual-index  equal")
    rows = zip(report["indices"]["primal"], report["indices"]["dual"], report["per_step_equal"])
    for n, (a, b, equal) in enumerate(rows, start=1):
        lines.append(f"{n:>4}  {a:>12}  {b:>10}  {'yes' if equal else 'NO'}")
    for side in ("primal", "dual"):
        lines.append(_estimate_line(side, report["estimates"][side], report["counterexample"]))
    closed = report.get("closed_form")
    if closed:
        value = _fmt(closed["value"])
        lines.append(f"closed form: {closed['multiple']} * log({closed['prime']}) = {value}")
        for side in ("primal", "dual"):
            a = report["agreement"][side]
            agrees = "consistent" + (", reached" if a["reached"] else "") if a["consistent"] else "INCONSISTENT"
            lines.append(f"{side} vs closed form: {agrees}")
    return "\n".join(lines) + "\n"


def _json_number(text: str) -> int | float:
    """A JSON number written with a fraction or an exponent, or one of the
    constants NaN and ±Infinity: the exact int when integral, so a count
    such as 3.0 reads as 3 and 1e30 as 10**30; else a float, an int when
    that float is integral; a number that is not finite is an input error."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    # finite, so the integral part has at most 309 digits
    exact = Decimal(text)
    if exact == exact.to_integral_value():
        return int(exact)
    return int(x) if x.is_integer() else x


def _read_instance(source: str) -> dict:
    """The instance, read and checked against the schema; any failure is an InputError."""
    # stdin is read as bytes, as a file is, so that the decoding does not
    # depend on the locale's text encoding or error handler
    try:
        data = sys.stdin.buffer.read() if source == "-" else Path(source).read_bytes()
        text = data.decode("utf-8")
        instance = json.loads(text, parse_float=_json_number, parse_constant=_json_number)
    # ValueError covers UnicodeDecodeError, json.JSONDecodeError, a number
    # that is not finite and an integer past the interpreter's digit limit
    # for int-string conversion
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(str(exc)) from None
    try:
        jsonschema.validate(instance, "instance")
    except jsonschema.ValidationError as exc:
        raise InputError(f"invalid instance: {exc.message}") from None
    return instance


def _run_verify(args: argparse.Namespace) -> int:
    try:
        report = verify_instance(_read_instance(args.instance))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION_ERROR
    try:
        jsonschema.validate(report, "report")
        text = canonical_json(report)
    # the report schema admits NaN and infinities, which are not JSON
    except (jsonschema.ValidationError, ValueError) as exc:
        print(f"error: malformed report: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION_ERROR
    sys.stdout.write(text if args.format == "json" else render_text(report))
    return EXIT_PASS if report["verdict"] == "pass" else EXIT_MISMATCH


def _run_generate(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    instance = random_instance(rng, args.kind)
    sys.stdout.write(canonical_json(instance))
    return EXIT_PASS


def _run_schema(args: argparse.Namespace) -> int:
    sys.stdout.write(canonical_json(load_schema(args.which)))
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbridge",
        description="verify entropy duality on exact instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run both sides of one instance")
    verify.add_argument("instance", help="instance JSON file, or - for stdin")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.set_defaults(run=_run_verify)

    generate = sub.add_parser("generate", help="emit a random instance")
    generate.add_argument("kind", choices=tuple(_KINDS))
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(run=_run_generate)

    schema = sub.add_parser("schema", help="print a shipped JSON schema")
    schema.add_argument("which", choices=SCHEMA_NAMES)
    schema.set_defaults(run=_run_schema)
    return parser


# built once; each parse_args call returns a fresh namespace
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
