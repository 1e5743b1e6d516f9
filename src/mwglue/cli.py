"""Command-line interface: mwglue COMMAND [--flag VALUE | --flag=VALUE]...

Exit codes: 0 verified/answered, 1 falsified, 2 unknown or bounds exhausted,
3 invalid input, 4 a fault in mwglue (with its traceback).
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii as _quote, make_scanner  # json's own C code
from collections.abc import Callable
from types import SimpleNamespace

from . import arith, descent, ellcurve, etale, example, family, fixtures, glue, poly, torsion


class UsageError(Exception):
    pass


# json.decoder's C scanner with the context of json.JSONDecoder()'s defaults
_scan = make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float, parse_int=int,
    parse_constant={"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}.__getitem__))
_SPACE = " \t\n\r"  # json's whitespace


def _load_json(path: str):
    """The JSON value in the file, as json.load reads it.  json reads a
    malformed file again, for its message."""
    with open(path) as fh:
        text = fh.read()
    try:
        try:
            value, end = _scan(text, len(text) - len(text.lstrip(_SPACE)))
            if end == len(text.rstrip(_SPACE)):
                return value
        except (StopIteration, ValueError, SystemError):  # SystemError before 3.12, if json.decoder is not loaded
            pass
        import json  # only a malformed file loads json
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


# The certificate scan sieves about N ln N bytes for N primes.
MAX_SQ_PRIMES = 100_000
# run_family builds and verifies every instance before it reports on one.
MAX_FAMILY_COUNT = 1000
# An int is read or written in time quadratic in its digits: 10^6 take seconds.
MAX_DIGITS = 100_000
# How CPython's ValueError refusing an int of more digits begins
_TOO_MANY_DIGITS = f"Exceeds the limit ({MAX_DIGITS}"


def _cert_primes(args) -> int:
    if args.sq_primes < 1:
        raise UsageError("bounds must be positive")
    if args.sq_primes > MAX_SQ_PRIMES:
        raise UsageError(f"--sq-primes must be at most {MAX_SQ_PRIMES}")
    return args.sq_primes


def _print(text: str, err: bool = False):
    """Print a line to stdout, or to stderr if err.  A failed write points the
    stream's fd at /dev/null, since Python flushes the kept bytes again at
    exit (see "Note on SIGPIPE" in `signal`).  Then a failed report raises,
    for main to report, but a lost message or a reader closing stdout early
    changes nothing: the command keeps its exit code."""
    stream = sys.stderr if err else sys.stdout
    if stream is None:  # its fd was closed when the process started
        return
    try:
        print(text, file=stream, flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        if not (err or isinstance(exc, BrokenPipeError)):
            raise


def _json(value, indent: str = "\n") -> str:
    """value as `json.dumps(value, indent=2)` writes it, for the types a
    report holds: str, int, bool, None, lists, tuples and dicts with str
    keys.  `json` encodes an indented value with its pure-Python encoder;
    this writer quotes strings with the C one.  Anything else is a TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        # _quote raises TypeError on a key that is not a str
        items = [f"{_quote(key)}: {_json(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# What a handler returns: renderers of the JSON report and of the human text,
# and the exit code.
Rendered = tuple[Callable[[], dict], Callable[[], str], int]


def _emit(args, payload: Callable[[], dict], human: Callable[[], str]):
    """Print the report in args.format, and write it as JSON to args.out if given.

    payload and human are zero-argument renderers of the JSON object and the
    human text; each runs only if its output is printed or written."""
    text = _json(payload()) if args.out or args.format == "json" else None
    # the file first, so that a reader closing stdout early does not lose it
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    _print(text if args.format == "json" else human())


def _cmd_verify_example(args) -> Rendered:
    overrides = fixtures.load_example_fixtures(_load_json(args.fixtures)) if args.fixtures else None
    report = example.run_example(_cert_primes(args), fixtures=overrides)
    return report.to_json, lambda: example.format_example_report(report), report.exit_code


def _cmd_family(args) -> Rendered:
    if args.count > MAX_FAMILY_COUNT:
        raise UsageError(f"--count must be at most {MAX_FAMILY_COUNT}")
    F, gens = family.load_F_file(_load_json(args.F)) if args.F else (family.FAMILY_F, ())
    params = family.FamilyParams(
        l1=args.l1, l2=args.l2, F=F, F_generators=gens, bound=args.bound, count=args.count
    )
    report = family.run_family(params)
    return report.to_json, lambda: family.format_family_report(report), report.exit_code


def _cmd_membership(args) -> Rendered:
    gluing = glue.GluingData.from_json(_load_json(args.gluing))
    pt_e = ellcurve.ECPoint.from_json(_load_json(args.P))
    pt_f = ellcurve.ECPoint.from_json(_load_json(args.Q))
    verdict = descent.membership(gluing, pt_e, pt_f, _cert_primes(args))

    def human() -> str:
        text = f"verdict: {verdict.verdict}"
        if verdict.certificate is not None:  # a flat object, as json.dumps writes it
            items = (f"{_quote(key)}: {_json(value)}" for key, value in verdict.to_json()["certificate"].items())
            text += "\ncertificate: {" + ", ".join(items) + "}"
        return text

    return verdict.to_json, human, 0 if verdict.verdict in (descent.IN_IMAGE, descent.NOT_IN_IMAGE) else 2


def _cmd_descent_class(args) -> Rendered:
    curve = ellcurve.EllipticCurve.from_json(_load_json(args.curve))
    point = ellcurve.ECPoint.from_json(_load_json(args.point))
    algebra = etale.CubicEtaleAlgebra.from_cubic(curve.f_poly(), root_order=args.roots)
    cls = descent.descent_class(curve, algebra, point)
    return lambda: {"class": cls.to_json()}, lambda: f"class of {cls.rep.to_json()}", 0


def _cmd_jinv(args) -> Rendered:
    curve = ellcurve.EllipticCurve.from_json(_load_json(args.curve))
    j = curve.j_invariant()
    return lambda: {"j": str(j)}, lambda: str(j), 0


def _cmd_torsion(args) -> Rendered:
    curve = ellcurve.EllipticCurve.from_json(_load_json(args.curve))
    group = curve.torsion_subgroup()
    return group.to_json, lambda: torsion.format_torsion_report(group), 0


def _format(text: str) -> str:
    if text not in ("human", "json"):
        raise ValueError("expected human or json")
    return text


def _roots(text: str) -> list | None:
    # an empty value, like that of every file flag, is the flag not given
    return [poly.rational(part.strip()) for part in text.split(",")] if text else None


# A command maps to (handler, help, flags), a flag to (parser, default, help).
REQUIRED = object()  # the default of a flag that must be given
_SQ_PRIMES = {"--sq-primes": (int, 200, "primes scanned by the squareness search")}
_OUTPUT = {"--format": (_format, "human", "human or json"),
           "--out": (str, None, "also write the JSON report to this file")}
_CURVE = {"--curve": (str, REQUIRED, "JSON file with the curve")}
COMMANDS = {
    "verify-example": (_cmd_verify_example, "verify the bundled counterexample end to end", {
        "--fixtures": (str, None, "JSON file overriding the built-in fixtures"), **_SQ_PRIMES, **_OUTPUT}),
    "family": (_cmd_family, "search and verify family instances", {
        "--l1": (int, REQUIRED, "first odd prime l1"), "--l2": (int, REQUIRED, "second odd prime l2"),
        "--F": (str, None, "JSON file with F and its generators"),
        "--count": (int, 5, "instances to find"), "--bound": (int, 10**6, "largest prime searched"),
        **_OUTPUT}),
    "membership": (_cmd_membership, "decide whether a point pair is in the glued image", {
        "--gluing": (str, REQUIRED, "JSON file with E, F, h"),
        "--P": (str, REQUIRED, "JSON file with the point on E"),
        "--Q": (str, REQUIRED, "JSON file with the point on F"), **_SQ_PRIMES, **_OUTPUT}),
    "descent-class": (_cmd_descent_class, "descent class of a point on its curve", {
        **_CURVE, "--point": (str, REQUIRED, "JSON file with the point"),
        "--roots": (_roots, None, "component order for split cubics, e.g. '0,-12,10'"), **_OUTPUT}),
    "jinv": (_cmd_jinv, "j-invariant of a curve", {**_CURVE, **_OUTPUT}),
    "torsion": (_cmd_torsion, "rational torsion subgroup of a curve", {**_CURVE, **_OUTPUT}),
}


def _help(command: str | None) -> str:
    """The command list, or the flags of one command, read from COMMANDS."""
    if command is None:
        lines = ["Exact descent tests for elliptic curves glued into genus-2 Jacobians.",
                 "mwglue COMMAND --help lists the flags of one command.", "", "commands:"]
        rows = {name: text for name, (_, text, _) in COMMANDS.items()}
    else:
        lines = [COMMANDS[command][1], "", "flags:"]
        rows = {name: text + (" (required)" if default is REQUIRED else
                              "" if default is None else f" (default {default})")
                for name, (_, default, text) in COMMANDS[command][2].items()}
    usage = f"usage: mwglue {command or 'COMMAND'} [--flag VALUE | --flag=VALUE]..."
    width = max(map(len, rows))
    return "\n".join([usage, "", *lines, *(f"  {n:<{width}}  {t}" for n, t in rows.items())])


def parse_args(argv: list[str]):
    """(handler, args) for argv = COMMAND [--flag VALUE | --flag=VALUE]...,
    read from COMMANDS; None once -h or --help has printed its help."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _print(_help(None))
        return None
    if command not in COMMANDS:
        given = f"unknown command {poly.shorten(repr(command))}" if argv else "no command given"
        raise UsageError(f"{given}; commands: {', '.join(COMMANDS)}")
    handler, _, flags = COMMANDS[command]
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _print(_help(command))
            return None
        name, eq, value = token.partition("=")
        if name not in flags:
            raise UsageError(f"{command}: unknown flag {poly.shorten(repr(token))}; flags: {', '.join(flags)}")
        if not eq and (value := next(tokens, None)) is None:
            raise UsageError(f"{command} {name}: missing value")
        parse = flags[name][0]
        try:
            values[name] = parse(value)  # a repeated flag keeps its last value
        except ValueError as exc:
            if str(exc).startswith(_TOO_MANY_DIGITS):  # an integer, but past the bound
                raise
            why = "expected an integer" if parse is int else exc
            raise UsageError(f"{command} {name}: {why}, got {poly.shorten(repr(value))}") from None
    missing = [name for name, (_, default, _) in flags.items() if default is REQUIRED and name not in values]
    if missing:
        raise UsageError(f"{command}: missing required flags: {', '.join(missing)}")
    return handler, SimpleNamespace(**{name[2:].replace("-", "_"): values.get(name, default)
                                       for name, (_, default, _) in flags.items()})


def main(argv=None) -> int:
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)  # restored as main returns
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return 0
        handler, args = parsed
        payload, human, code = handler(args)
        _emit(args, payload, human)
        return code
    except (UsageError, ValueError, OSError) as exc:
        if type(exc) is ValueError and str(exc).startswith(_TOO_MANY_DIGITS):
            _print(f"bound exhausted: a number has more than MAX_DIGITS = {MAX_DIGITS} digits", err=True)
            return 2
        _print(f"error: {exc}", err=True)
        return 3
    except arith.FactorizationError as exc:
        _print(f"bound exhausted: {exc}", err=True)
        return 2
    except Exception:
        import traceback  # only a fault loads it
        _print(traceback.format_exc().rstrip("\n"), err=True)
        return 4
    finally:
        sys.set_int_max_str_digits(digits)


def entry():
    """`mwglue` and `python -m mwglue.cli`: main(), flush stdout and stderr, os._exit(code).
    So atexit, `-m cProfile`, subprocess coverage and teardown ResourceWarnings see no exit:
    profile or trace main() in-process.  A failed flush or main() raising exits normally."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    entry()
