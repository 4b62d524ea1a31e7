"""Command-line front end.

Scenario input is either a named built-in example (--example NAME) or a
JSON file with exact rationals written as "p/q" or decimal strings, or as
JSON numbers, which are read exactly from their digits; each numerator and
denominator has at most sys.get_int_max_str_digits() digits:

    {"torus": {"J": [["0", "-1"], ["1", "0"]]},
     "endomorphism": {"M": [["2", "0"], ["0", "2"]], "tau": ["0", "0"]},
     "sublattices": {"diag": [["1", "0"], ["0", "1"]]}}

Exit codes: 0 success, 1 property violation, 2 parse error, 3 domain or
validation error, 4 resource budget exceeded, 5 internal error (an
unexpected exception, reported on one stderr line), 141 stdout closed by
its reader (128 + SIGPIPE, the code a shell gives a process that signal
ends; reported as `error[io]: stdout was closed`).
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add
from types import SimpleNamespace

from .errors import DomainError, InvariantViolation, ParseError, ResourceError
from .exactnum import DEFAULT_PRECISION
from .matlin import RationalMatrix
from .torus import make_torus, make_subtorus
from .endo import eigen_split, iterate, make_endo, unity_free
from .dynamics import (DEFAULT_NODE_BUDGET, DEFAULT_ORBIT_BOUND, fixed_points,
                       subtorus_orbit, torsion_dynamics)
from .classify import (_decimal, amplified, chain_violations,
                       dynamical_degrees, finite_order, full_report, polarized,
                       verify_iterates)
from .scenarios import get_example, order_by_name, named_examples, random_endo

EXIT_OK, EXIT_VIOLATION, EXIT_PARSE, EXIT_DOMAIN, EXIT_RESOURCE, EXIT_INTERNAL = 0, 1, 2, 3, 4, 5
EXIT_CLOSED = 141  # 128 + SIGPIPE


# ---------------------------------------------------------------------------
# Scenario parsing


_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def _exact_rational(text):
    """Fraction(text), refused with ValueError when its numerator or
    denominator has more digits than sys.get_int_max_str_digits(), the
    limit int() puts on a written literal.  The exponent is checked first,
    as Fraction builds 10**exponent before any digit is counted."""
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(text)
    try:
        if limit and exponent and abs(int(exponent[1])) > limit:
            raise ValueError
        value = Fraction(text)
        str(value.numerator), str(value.denominator)  # ValueError past the limit
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational of at most {limit} digits") from None
    return value


def _parse_rational(text, where, integer=False):
    try:
        value = _exact_rational(str(text))
    except ValueError as exc:
        raise ParseError(f"{where}: {text!r} is {exc}") from None
    if integer and value.denominator != 1:
        raise ParseError(f"{where}: {text!r} is not an integer")
    return value


def _parse_matrix(rows, where, integer=False):
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) for r in rows)):
        raise ParseError(f"{where}: expected a list of rows")
    width = len(rows[0])
    out = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{where}: row {i} has length {len(row)}, expected {width}")
        out.append([_parse_rational(x, f"{where}[{i}][{j}]", integer)
                    for j, x in enumerate(row)])
    return RationalMatrix(out)


def load_scenario_file(path):
    """Parse a JSON scenario file into (endo, sublattices)."""
    try:
        with open(path, encoding="utf-8") as fh:
            # numbers stay text, so _exact_rational reads every one exactly
            doc = json.load(fh, parse_int=str, parse_float=str)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    try:
        torus_doc = doc["torus"]
        endo_doc = doc["endomorphism"]
        j = _parse_matrix(torus_doc["J"], "torus.J")
        m = _parse_matrix(endo_doc["M"], "endomorphism.M")
    except (KeyError, TypeError):
        raise ParseError(f"{path}: missing torus.J or endomorphism.M") from None
    tau = endo_doc.get("tau")
    if tau is not None:
        if not isinstance(tau, list):
            raise ParseError("endomorphism.tau: expected a list")
        tau = tuple(_parse_rational(x, f"endomorphism.tau[{i}]")
                    for i, x in enumerate(tau))
    named = doc.get("sublattices") or {}
    if not isinstance(named, dict):
        raise ParseError("sublattices: expected an object")
    torus = make_torus(j)
    endo = make_endo(torus, m, tau)
    # scenario files list generators as rows for readability
    sublattices = {name: _parse_matrix(cols, f"sublattices.{name}", integer=True).entries
                   for name, cols in named.items()}
    return endo, sublattices


def resolve_scenario(args):
    if args.example is not None:
        sc = get_example(args.example)
        return sc.endo, dict(sc.sublattices)
    if getattr(args, "scenario", None):
        return load_scenario_file(args.scenario)
    raise ParseError("provide a scenario file or --example NAME")


def _named_subtorus(endo, sublattices, name):
    if name not in sublattices:
        raise DomainError(
            f"unknown sublattice {name!r}; known: {', '.join(sorted(sublattices)) or 'none'}")
    return make_subtorus(endo.torus, RationalMatrix.from_columns(sublattices[name]))


# ---------------------------------------------------------------------------
# Emission


def emit(doc, fmt, text_renderer=None):
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(text_renderer() if text_renderer else _default_text(doc))


def _default_text(doc, indent=""):
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_default_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


@contextmanager
def _whole_numbers():
    """Exact results (degree endpoints, charpolys, the Lefschetz number,
    q and the witness) are written whole: the interpreter's limit on
    int-to-str digits is lifted inside this block only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args):
    endo, _ = resolve_scenario(args)
    report = full_report(endo, args.precision)
    with _whole_numbers():
        emit(report.to_dict(), args.format, report.to_text)
    return EXIT_OK


def cmd_degrees(args):
    endo, _ = resolve_scenario(args)
    data = dynamical_degrees(endo, args.precision)

    def text():
        lines = []
        for j, (lo, hi) in enumerate(data.intervals):
            tag = " (= next)" if j in data.equal_consecutive_pairs else ""
            lines.append(f"lambda_{j} in [{_decimal(lo, 9)}, {_decimal(hi, 9)}]{tag}")
        lines.append(f"entropy in [{data.entropy[0]:.9f}, {data.entropy[1]:.9f}]")
        return "\n".join(lines)

    with _whole_numbers():
        doc = {
            "dynamical_degrees": [[str(lo), str(hi)] for lo, hi in data.intervals],
            "equal_consecutive_pairs": list(data.equal_consecutive_pairs),
            "exact_equalities": list(data.exact_equalities),
            "entropy": list(data.entropy),
            "precision": str(data.precision),
        }
        emit(doc, args.format, text)
    return EXIT_OK


def _emit_with_rows(doc, key, fps, fmt):
    """emit() of doc with `key` set to the rows of a fixed point set as
    coordinate strings, for a key that sorts after every key of doc,
    streamed to stdout parent by parent with no string of the whole
    listing.  Each distinct numerator k becomes a token once: str(k /
    denominator), quoted as json.dumps (JSON) or repr (text) would, built
    from integers under _whole_numbers().  The rows of a tail are joined
    when its first parent is written, and dropped after its last one, so a
    shared tail is joined once and an unshared one is never held past its
    parent.  Each parent is written as its head before each of its tail's
    rows, head + (rowsep + head).join(tail rows), with no Python work per
    point.  Every token is built before the first write, so a failure
    leaves stdout empty."""
    quote, sep = ('"', ",") if fmt == "json" else ("'", ", ")
    denom = fps.denominator

    def token(k):  # str(Fraction(k, denom)), quoted
        g = gcd(k, denom)
        return f"{quote}{k // g}{quote}" if g == denom else f"{quote}{k // g}/{denom // g}{quote}"

    with _whole_numbers():
        heads, tails = fps.listing_as(token)
    # each head ends in sep, and is "" when the listing has no head columns
    heads = list(map(sep.join, zip(*heads, repeat("", len(fps.tail_index)))))
    # tails are read in order; fixed_points numbers them by first parent
    blocks = enumerate(zip(*repeat(map(sep.join, zip(*tails)), fps.tail_length)))
    uses, held = [0] * len(fps.tail_index), {}
    for i in fps.tail_index:
        uses[i] += 1

    def tail(i):  # the rows of tail i, held from its first parent to its last
        while i not in held:
            held.update([next(blocks)])
        uses[i] -= 1
        return held[i] if uses[i] else held.pop(i)

    if fmt == "json":
        head = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        prefix, end = f'{head[:-1]},"{key}":[[', "]]}\n"
    else:
        prefix, end = f"{_default_text(doc)}\n{key}: [[", "]]\n"
    rowsep = f"]{sep}["
    tails = map(tail, fps.tail_index)
    parents = map(add, heads, map(str.join, map(rowsep.__add__, heads), tails))
    out = sys.stdout
    out.write(prefix)
    out.write(next(parents))  # there is always a parent
    out.writelines(map(rowsep.__add__, parents))
    out.write(end)


def cmd_fixed_points(args):
    endo, _ = resolve_scenario(args)
    g = iterate(endo, args.iterate) if args.iterate > 1 else endo
    fps = fixed_points(g, args.budget)
    doc = {"iterate": args.iterate, "kind": fps.kind}
    if fps.kind == "finite":
        doc["count"] = fps.count()
        _emit_with_rows(doc, "points", fps, args.format)
    elif fps.kind == "coset-family":
        doc["subtorus_rank"] = fps.subtorus.rank
        _emit_with_rows(doc, "transversal", fps, args.format)
    else:
        emit(doc, args.format)
    return EXIT_OK


def cmd_torsion(args):
    endo, _ = resolve_scenario(args)
    graph = torsion_dynamics(endo, args.level, args.budget)
    doc = {
        "level": graph.level,
        "node_count": graph.node_count,
        "cycle_histogram": {str(k): v for k, v in sorted(graph.cycle_histogram.items())},
        "tail_histogram": {str(k): v for k, v in sorted(graph.tail_histogram.items())},
        "periodic_node_count": graph.periodic_node_count(),
        "fixed_node_count": graph.fixed_node_count(),
    }
    emit(doc, args.format)
    return EXIT_OK


def cmd_quotient(args):
    endo, sublattices = resolve_scenario(args)
    sub = _named_subtorus(endo, sublattices, args.sublattice)
    with _whole_numbers():
        gamma, delta, quot = ([[str(re), str(im)] for re, im in p]
                              for p in eigen_split(endo, sub))
    doc = {
        "sublattice": args.sublattice,
        "full": gamma,
        "restriction": delta,
        "quotient": quot,
        "product_identity": "verified",
    }

    def text():
        def render(p):
            terms = []
            for k, (re, im) in enumerate(p):
                if re == im == "0":
                    continue
                sign = "" if im.startswith("-") else "+"
                coeff = re if im == "0" else f"({re}{sign}{im}i)"
                terms.append(coeff if k == 0 else f"{coeff}*x^{k}")
            return " + ".join(terms) or "0"
        return (f"restriction Delta: {render(delta)}\n"
                f"quotient:          {render(quot)}\n"
                f"full Gamma:        {render(gamma)}\n"
                "product identity Gamma = Delta * quotient: verified")

    emit(doc, args.format, text)
    return EXIT_OK


def cmd_orbit(args):
    endo, sublattices = resolve_scenario(args)
    sub = _named_subtorus(endo, sublattices, args.sublattice)
    verdict, examined = subtorus_orbit(endo, sub, args.budget)
    if isinstance(verdict, tuple):
        verdict = f"{verdict[0]}:{verdict[1]}"
    doc = {"sublattice": args.sublattice, "verdict": verdict,
           "iterations_examined": examined}
    emit(doc, args.format)
    return EXIT_OK


def cmd_sweep(args):
    order = order_by_name(args.order)
    cells = {}
    violations = []
    for idx in range(args.count):
        f = random_endo(args.dim, order, args.height, args.seed + idx)
        free, _ = unity_free(f)
        period = finite_order(f)
        amp, pol = amplified(f).verdict, polarized(f).verdict
        cell = (pol, amp, "unity-free" if free else "has-unity",
                "finite" if period is not None else "infinite")
        cells[cell] = cells.get(cell, 0) + 1
        bad = chain_violations(pol, amp, free, period)
        if args.dim == 2 and free and amp == "no":
            bad.append("surface unity-free but not amplified")
        bad.extend(verify_iterates(f, args.iterate))
        if bad:
            violations.append((idx, f.serialize(), bad))
    doc = {
        "count": args.count,
        "dim": args.dim,
        "order": args.order,
        "seed": args.seed,
        "cells": {" / ".join(k): v for k, v in sorted(cells.items())},
        "violations": [
            {"sample_index": i, "endomorphism": s, "failures": b}
            for i, s, b in violations],
    }
    emit(doc, args.format)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_examples(args):
    doc = {name: sc.description for name, sc in sorted(named_examples().items())}
    emit(doc, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _positive_rational(text):
    value = _exact_rational(text)
    if value <= 0:
        raise ValueError("must be positive")
    return value


_REQUIRED = object()  # the default of an option that must be given
_FORMAT = {"format": (("json", "text"), "text")}
_SCENARIO = {"example": (str, None), **_FORMAT}
_PRECISION = {"precision": (_positive_rational, DEFAULT_PRECISION)}

# subcommand -> (summary, takes a scenario file, {option: (type or choices,
# default)}); the subcommand `x-y` runs `cmd_x_y`
COMMANDS = {
    "classify": ("full classification report", True, {**_SCENARIO, **_PRECISION}),
    "degrees": ("certified dynamical degrees", True, {**_SCENARIO, **_PRECISION}),
    "fixed-points": ("fixed points of an iterate", True, {
        **_SCENARIO, "iterate": (_positive_int, 1),
        "budget": (_positive_int, DEFAULT_NODE_BUDGET)}),
    "torsion": ("orbit graph on m-torsion", True, {
        **_SCENARIO, "level": (_positive_int, _REQUIRED),
        "budget": (_positive_int, DEFAULT_NODE_BUDGET)}),
    "quotient": ("eigenvalue split along a subtorus", True, {
        **_SCENARIO, "sublattice": (str, _REQUIRED)}),
    "orbit": ("orbit of a subtorus", True, {
        **_SCENARIO, "sublattice": (str, _REQUIRED),
        "budget": (_positive_int, DEFAULT_ORBIT_BOUND)}),
    "sweep": ("random verification sweep", False, {
        **_FORMAT, "count": (_positive_int, 100), "dim": (_positive_int, 2),
        "order": (str, "gaussian"), "height": (_positive_int, 3),
        "seed": (int, 0), "iterate": (_positive_int, 3)}),
    "examples": ("list named examples", False, _FORMAT),
}

_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _is_flag(token):
    # "-" and negative numbers such as -3 are values, not options
    return token[:1] == "-" and token != "-" and not _NEGATIVE_NUMBER.fullmatch(token)


def _usage(command=None):
    """The help text of `toridyn`, or of one subcommand, read from COMMANDS."""
    if command is None:
        return "\n".join([
            "usage: toridyn COMMAND [scenario] [options]", "",
            "Exact classification and dynamics of surjective endomorphisms "
            "of complex tori.", "", "commands:",
            *(f"  {name:<14}{summary}" for name, (summary, _, _) in COMMANDS.items()),
            "", "Run `toridyn COMMAND --help` for the options of a command."])
    summary, takes_scenario, options = COMMANDS[command]
    lines = [f"usage: toridyn {command}{' [scenario]' if takes_scenario else ''}"
             " [options]", "", summary, ""]
    if takes_scenario:
        lines.append(f"  {'scenario':<24}JSON scenario file (or --example NAME)")
    for name, (kind, default) in options.items():
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()
        note = ("required" if default is _REQUIRED
                else "" if default is None else f"default: {default}")
        lines.append(f"  {f'--{name} {value}':<24}{note}".rstrip())
    lines.append(f"  {'-h, --help':<24}show this help and exit")
    return "\n".join(lines)


def _fail(where, message):
    print(f"error[parse]: {where}: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _help(command=None):
    print(_usage(command), flush=True)  # a closed stdout fails inside main
    raise SystemExit(EXIT_OK)


def _option_name(flag, options, where):
    """The option that `flag` names: itself, or the one option that it is
    a prefix of; "help" for -h and --help."""
    if flag == "-h":
        return "help"
    if flag[:2] == "--" and len(flag) > 2:
        if flag[2:] in options:
            return flag[2:]
        hits = [name for name in (*options, "help") if name.startswith(flag[2:])]
        if len(hits) > 1:
            _fail(where, f"ambiguous option: {flag} could match "
                         + ", ".join("--" + name for name in hits))
        if hits:
            return hits[0]
    _fail(where, f"unrecognized argument: {flag}")


def parse_args(argv=None):
    """Read `toridyn COMMAND [scenario] [options]` against COMMANDS.  An
    option is given as --opt value or --opt=value, by its name or a unique
    prefix of it; the last of a repeated option wins, and after `--` every
    token is positional.  A failed check writes one `error[parse]`
    line to stderr and raises SystemExit(2); --help prints the usage and
    raises SystemExit(0)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _fail("toridyn", "argument command: a subcommand is required "
                         f"(choose from {', '.join(COMMANDS)})")
    command, tokens = argv[0], iter(argv[1:])
    if command == "-h" or (len(command) > 2 and "--help".startswith(command)):
        _help()
    if command not in COMMANDS:
        _fail("toridyn", f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(COMMANDS)})")
    _, takes_scenario, options = COMMANDS[command]
    where = f"toridyn {command}"
    values = {"command": command, **{name: default for name, (_, default) in options.items()}}
    scenario, only_positionals = None, False
    for token in tokens:
        if only_positionals or not _is_flag(token):
            if not takes_scenario or scenario is not None:
                _fail(where, f"unrecognized argument: {token}")
            scenario = token
            continue
        if token == "--":
            only_positionals = True
            continue
        flag, explicit, text = token.partition("=")
        name = _option_name(flag, options, where)
        if name == "help":
            _help(command)
        if not explicit:
            text = next(tokens, None)
            if text is None or _is_flag(text):
                _fail(where, f"argument --{name}: expected one argument")
        kind = options[name][0]
        if isinstance(kind, tuple):
            if text not in kind:
                _fail(where, f"argument --{name}: invalid choice: {text!r} "
                             f"(choose from {', '.join(kind)})")
            values[name] = text
            continue
        try:
            values[name] = kind(text)
        except ValueError as exc:
            _fail(where, f"argument --{name}: invalid value {text!r}: {exc}")
    for name, value in values.items():
        if value is _REQUIRED:
            _fail(where, f"argument --{name}: is required")
    if takes_scenario:
        values["scenario"] = scenario
    return SimpleNamespace(**values)


def _detach_stdout():
    """Points stdout's descriptor at os.devnull, so that what is still
    buffered for a reader that has gone is dropped at exit instead of
    failing again; a stdout with no descriptor (a StringIO) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    try:
        args = parse_args(argv)  # --help writes to stdout too
        # looked up per call, so a replaced handler takes effect
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        code = handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        _detach_stdout()
        print("error[io]: stdout was closed", file=sys.stderr)
        return EXIT_CLOSED
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceError as exc:
        print(f"error[resource]: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        print(f"error[violation]: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # a bug, not a property of the input
        detail = " ".join(str(exc).split())
        print(f"error[internal]: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
