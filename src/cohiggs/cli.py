"""Command-line frontend.

Subcommands: criterion, strata, glr-check, sp-check, model-field, oracle,
adjoint.  Output is a text report by default, except for ``oracle``,
which defaults to JSON; ``--format json`` emits a canonical JSON document
(sorted keys) and ``--format csv`` is available for the strata table.
Informational subcommands exit 0 whatever the verdict; ``oracle`` exits 0
on PASSES and 2 on FAILS; usage errors exit 1.  All randomness is
seed-controlled, so output is a deterministic function of argv.

One table, ``_COMMANDS``, declares every subcommand and option.  A strict
parser reads the well-formed requests from it, and reports a bad value or
missing options in argparse's words when every name is spelled in full.
argparse, built from the same table on first use, renders help and every
other usage error, and parses every argv the strict parser leaves to it.
"""

import functools
import sys
from collections.abc import Iterator, Sequence
from itertools import chain, islice, product, repeat
from types import SimpleNamespace

try:
    # the C encoder json.encoder binds, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the _json accelerator
    from json.encoder import encode_basestring_ascii

from .criterion import (
    STABLE_BOUND, adjoint_multiplicities, admits_stable_cohiggs, evaluate_criterion,
)
from .glr import SplittingType, splitting_to_hn
from .lie import HNType, parse_group
from .oracle import (
    build_model_field, random_field, require_oracle_rank, semistability_oracle, splitting_verdict,
)
from .poly import PrimeField
from .strata import dimension_columns
from .symplectic import SymplecticSplitting, sp_to_hn

USAGE_ERROR = 1
FAILS_ERROR = 2


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        # the strict parser and argparse both print this message as it is
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


_CHUNK = 512  # list items per piece, and pieces or table rows per write


def _write_chunks(pieces: Iterator[str]) -> None:
    # written in bounded chunks: the adjoint degrees or the strata table of
    # a large group are tens of MB of text
    write = sys.stdout.write
    while chunk := "".join(islice(pieces, _CHUNK)):
        write(chunk)


class _Runs(tuple):
    """A pair of tuples, distinct values decreasing and the count of each,
    that stands for the list of each value repeated count times: the
    adjoint degrees.  A group has rank at least 1, so there is a run."""


def _run_pieces(runs: _Runs, sep: str) -> Iterator[str]:
    # the items joined by sep, _CHUNK to a piece, each piece after the first
    # led by sep; each value is formatted once and its string repeated
    values, counts = runs
    items = chain.from_iterable(map(repeat, map(str, values), counts))
    lead = ""
    while chunk := sep.join(islice(items, _CHUNK)):
        yield lead + chunk
        lead = sep


def _write_degrees(head: str, runs: _Runs) -> None:
    # the line head + "d,d,...", _CHUNK degrees to a piece, as in JSON
    _write_chunks(chain((head,), _run_pieces(runs, ","), ("\n",)))


def _json_pieces(value, indent: str = "\n") -> Iterator[str]:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the CLI payloads
    (strings, ints, bools, lists, tuples, dicts), in pieces: a dict key by
    key, a list ``_CHUNK`` items at a time, a chunk of plain ints one join.
    A ``_Runs`` is written as the list it stands for.  ``indent`` opens the
    value's own line; other types raise TypeError."""
    kind = type(value)
    if kind is str:
        yield encode_basestring_ascii(value)
    elif kind is int:
        yield str(value)
    elif kind is bool:
        yield "true" if value else "false"
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"no JSON form for {kind.__name__}")
    elif not value:
        yield "{}" if isinstance(value, dict) else "[]"
    else:
        inner = indent + "  "
        sep = "," + inner
        if isinstance(value, dict):
            yield "{"
            lead = inner
            for k, v in sorted(value.items()):
                yield lead + encode_basestring_ascii(k) + ": "
                lead = sep
                yield from _json_pieces(v, inner)
            yield indent + "}"
            return
        if kind is _Runs:
            yield "[" + inner
            yield from _run_pieces(value, sep)
            yield indent + "]"
            return
        plain = set(map(type, value)) == {int}  # plain ints, not bools
        yield "["
        for start in range(0, len(value), _CHUNK):
            chunk = value[start : start + _CHUNK]
            items = map(str, chunk) if plain else ("".join(_json_pieces(x, inner)) for x in chunk)
            yield (sep if start else inner) + sep.join(items)
        yield indent + "]"


def _json_text(value, indent: str = "\n") -> str:
    return "".join(_json_pieces(value, indent))


def _emit_json(payload) -> None:
    _write_chunks(_json_pieces(payload))
    sys.stdout.write("\n")


def _central(args, group) -> tuple[int, ...]:
    try:
        return args.central if args.central is not None else (0,) * group.central_rank
    except (OverflowError, MemoryError):  # more zeros than the address space or memory holds
        raise ValueError(f"{group}: too many central degrees to hold") from None


def _group_and_hn(args) -> tuple:
    group = parse_group(args.group)
    hn = HNType.from_flat(group, args.hn, _central(args, group))
    return group, hn


def _cmd_criterion(args) -> int:
    group, hn = _group_and_hn(args)
    report = evaluate_criterion(group, hn)
    degrees = _Runs(report.adjoint_multiplicities)
    if args.format == "json":
        obstruction = [{"factor": v.factor, "root": v.root, "value": v.value}
                       for v in report.violating_roots]
        _emit_json({"admits_stable": report.admits_stable, "obstruction": obstruction,
                    "adjoint_degrees": degrees})
        return 0
    print(f"group: {group}")
    print(f"simple-root values: {','.join(map(str, hn.flat_values))}")
    print(f"admits_stable: {str(report.admits_stable).lower()}")
    for v in report.violating_roots:
        print(f"obstruction: factor {v.factor} simple root {v.root} value {v.value}")
    _write_degrees("adjoint splitting: ", degrees)
    return 0


def _cmd_adjoint(args) -> int:
    degrees = _Runs(adjoint_multiplicities(*_group_and_hn(args)))
    if args.format == "json":
        _emit_json({"adjoint_degrees": degrees})
        return 0
    _write_degrees("", degrees)
    return 0


_STRATA_COLUMNS = ("a", "dim_VM", "dim_aut", "dim_stratum", "generic")
_STRATA_WIDTHS = (12, 7, 8, 12, 8)


def _strata_layout(fmt: str, rank: int) -> tuple[str, str, str, str, str]:
    """Head, row template, row separator, tail and value separator of the
    strata table.

    A row of a group of semisimple ``rank`` fills the template with its
    simple-root values joined by the value separator (one ``%s`` cell, empty
    at rank 0), its three dimensions and "true" or "false".  The JSON row is
    ``_json_text`` of a row dict of quoted placeholders, then unquoted; a
    CSV cell is quoted, as ``csv.writer`` does, when it holds a comma.
    """
    if fmt == "json":
        # the values fill the list of "a", one a line at the indent
        # _json_text gives the items of a list in a row of the table
        inner = "\n      "
        a = f"[{inner}%s\n    ]" if rank else "[]%s"
        row = _json_text(dict(zip(_STRATA_COLUMNS, ("@a", "%d", "%d", "%d", "%s"))), "\n  ")
        row = row.replace('"@a"', a).replace('"%d"', "%d").replace('"%s"', "%s")
        return "[", "\n  " + row, ",", "\n]\n", "," + inner
    cells = ("%d", "%d", "%d", "%s")
    if fmt == "csv":
        a = '"%s"' if rank > 1 else "%s"
        return ",".join(_STRATA_COLUMNS) + "\n", ",".join((a, *cells)) + "\n", "", "", ","
    # text: every cell right-aligned to its width, "-" for no values; the
    # values are single digits, so the first cell holds 2 * rank - 1 characters
    a = " " * (_STRATA_WIDTHS[0] - max(1, 2 * rank - 1)) + ("%s" if rank else "-%s")
    cells = (f"%{w}{kind}" for w, kind in zip(_STRATA_WIDTHS[1:], "ddds"))
    head = " ".join(f"{c:>{w}}" for c, w in zip(_STRATA_COLUMNS, _STRATA_WIDTHS))
    return head + "\n", " ".join((a, *cells)) + "\n", "", "", ","


def _cmd_strata(args) -> int:
    group = parse_group(args.group)
    fields, aut, dim = dimension_columns(group, _central(args, group))  # checks the request
    rank = group.semisimple_rank
    head, template, sep, tail, comma = _strata_layout(args.format, rank)
    cells = map(comma.join, product(map(str, range(STABLE_BOUND + 1)), repeat=rank))
    # the zero type comes first and is the one generic row
    generic = chain(("true",), repeat("false"))
    # each row after the first carries its separator; every group has the
    # zero type, so there is a first row
    lines = map((sep + template).__mod__, zip(cells, fields, aut, dim, generic))
    first = next(lines)[len(sep) :]
    _write_chunks(chain((head, first), lines, (tail,)))
    return 0


def _cmd_glr_check(args) -> int:
    st = SplittingType(args.splitting)
    group, hn = splitting_to_hn(st)
    ok = admits_stable_cohiggs(group, hn)
    if args.format == "json":
        _emit_json(
            {
                "splitting": list(st.degrees),
                "admits_semistable": ok,
                "group": str(group),
                "hn": list(hn.flat_values),
            }
        )
        return 0
    if ok:
        print(f"splitting {st}: a semistable co-Higgs field exists (generic one is stable)")
    else:
        print(f"splitting {st}: no semistable co-Higgs field exists")
    return 0


def _cmd_sp_check(args) -> int:
    ss = SymplecticSplitting(args.half_degrees)
    group, hn = sp_to_hn(ss)
    ok = admits_stable_cohiggs(group, hn)
    if args.format == "json":
        _emit_json(
            {
                "half_degrees": list(ss.half_degrees),
                "full_degrees": list(ss.full_degrees),
                "admits_stable": ok,
                "group": str(group),
                "hn": list(hn.flat_values),
            }
        )
        return 0
    verdict = "a stable co-Higgs field exists" if ok else "no semistable co-Higgs field exists"
    print(f"half-degrees {','.join(map(str, ss.half_degrees))} ({group}): {verdict}")
    return 0


def _cmd_model_field(args) -> int:
    st = SplittingType(args.splitting)
    fld = PrimeField(args.prime)
    phi = build_model_field(st, fld, args.seed)
    if args.format == "json":
        _emit_json(phi.to_json_dict() | {"seed": args.seed})
        return 0
    print(f"model co-Higgs field on {st} over {fld.name} (seed {args.seed}):")
    for row in phi.entries:
        print("  [" + " | ".join(str(p) for p in row) + "]")
    return 0


def _cmd_oracle(args) -> int:
    st = SplittingType(args.splitting)
    require_oracle_rank(st)  # before a field is drawn
    fld = PrimeField(args.prime)
    if args.model:  # its gap error comes first
        verdict = semistability_oracle(build_model_field(st, fld, args.seed), args.mode)
    else:  # a first gap above 2 decides every field, so none is drawn
        verdict = splitting_verdict(st, fld, args.mode) or semistability_oracle(
            random_field(st, fld, args.seed), args.mode)
    if args.format == "text":
        print(f"{verdict.verdict} ({args.mode} mode over {fld.name})")
        if not verdict.passes:
            print(f"witness: rank {verdict.witness.rank} degree {verdict.witness.degree}")
    else:
        _emit_json(verdict.to_json_dict() | {"seed": args.seed, "model": args.model})
    return 0 if verdict.passes else FAILS_ERROR


# every option once, as the keyword arguments of argparse's add_argument;
# the strict parser reads type, required, default, choices and store_true
_OPTIONS = {
    "--group": dict(required=True, help="e.g. A2, C3xA1+z2"),
    "--hn": dict(type=_int_list, required=True, help="comma list of simple-root values"),
    "--central": dict(type=_int_list, default=None, help="comma list of central degrees"),
    "--splitting": dict(type=_int_list, required=True, help="e.g. 3,1,0"),
    "--half-degrees": dict(type=_int_list, required=True, help="e.g. 2,1"),
    "--prime": dict(type=int, required=True),
    "--mode": dict(choices=("stable", "semistable"), required=True),
    "--seed": dict(type=int, default=0),
    "--model": dict(action="store_true", default=False,
                    help="use the model field instead of a random one"),
}

# subcommand -> (handler, help, options), in the order of the help; the
# first --format choice is the default
_COMMANDS = {
    name: (func, help, {o: _OPTIONS[o] for o in options}
           | {"--format": dict(choices=formats, default=formats[0])})
    for name, func, help, options, formats in (
        ("criterion", _cmd_criterion, "stable/semistable existence for a group and HN type",
         ("--group", "--hn", "--central"), ("text", "json")),
        ("adjoint", _cmd_adjoint, "splitting type of the adjoint bundle",
         ("--group", "--hn", "--central"), ("text", "json")),
        ("strata", _cmd_strata, "enumerate moduli strata with dimensions",
         ("--group", "--central"), ("text", "json", "csv")),
        ("glr-check", _cmd_glr_check, "gap criterion for a splitting type",
         ("--splitting",), ("text", "json")),
        ("sp-check", _cmd_sp_check, "symplectic criterion from half-degrees",
         ("--half-degrees",), ("text", "json")),
        ("model-field", _cmd_model_field, "print the chained subdiagonal model field",
         ("--splitting", "--prime", "--seed"), ("text", "json")),
        ("oracle", _cmd_oracle, "invariant-subbundle (semi)stability test over a prime field",
         ("--splitting", "--prime", "--mode", "--seed", "--model"), ("json", "text")),
    )
}


@functools.cache
def build_parser():
    """The argparse parser of ``_COMMANDS``: it parses every argv the
    strict parser leaves to it, rendering help and any usage error.
    Parsing leaves a parser unchanged, so one serves every call of
    ``main``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors; this tool reserves 2 for FAILS.
        def error(self, message: str) -> None:  # type: ignore[override]
            self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")

    class Store(argparse.Action):
        # the default action, but refusing the [] argparse stores for
        # "--NAME=--", whose value "--" it drops; no option's type gives a list
        def __call__(self, parser, namespace, values, option_string=None) -> None:
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    def int_list(text: str) -> tuple[int, ...]:
        # argparse words a ValueError as "invalid _int_list value"; an
        # ArgumentTypeError's message it prints as it is
        try:
            return _int_list(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = Parser(prog="cohiggs", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        # each parser has its own registry; None is the default action
        p.register("type", _int_list, int_list)
        p.register("action", None, Store)
        for option, kwargs in options.items():
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_strict(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes ``build_parser().parse_args(argv)`` gives, for an argv
    of the form ``SUBCOMMAND (--NAME=VALUE | --NAME VALUE | --FLAG)*`` with
    every name in full and at most once, no space-form value starting with
    "-", no value "--" in the ``=`` form, every value converted and in its
    choices, and every required option present.

    An argv of that form but for a value its type refuses, or for missing
    required options, gets argparse's error line for the first fault in
    argv order on stderr and ``SystemExit(1)``: the bad value, else the
    missing options in table order.  None for any other argv, a bad choice
    first among them, which argparse parses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    given = {}
    fault = None  # argparse's message for the first value its type refuses
    args = iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        kwargs = options.get(name)
        if kwargs is None or name in given:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            given[name] = True
            continue
        if not eq:
            value = next(args, "-")  # a missing value is refused as "-" is
            if value.startswith("-"):
                return None
        elif value == "--":
            return None  # argparse refuses it as a missing value
        given[name] = value
        if fault is not None:
            continue  # argparse stops at the first bad value
        convert = kwargs.get("type")
        if convert is not None:
            try:
                given[name] = convert(value)
            except ValueError as exc:
                # argparse prints _int_list's message as it is (see
                # build_parser) and words any other type's refusal itself
                worded = f"invalid {convert.__name__} value: {value!r}"
                fault = f"argument {name}: {exc if convert is _int_list else worded}"
                continue
        if "choices" in kwargs and given[name] not in kwargs["choices"]:
            return None  # argparse words a bad choice
    if fault is None:
        missing = [n for n, kwargs in options.items() if kwargs.get("required") and n not in given]
        if not missing:
            return SimpleNamespace(
                command=argv[0],
                **{name[2:].replace("-", "_"): given.get(name, kwargs.get("default"))
                   for name, kwargs in options.items()},
                func=func,
            )
        fault = "the following arguments are required: " + ", ".join(missing)
    sys.stderr.write(f"cohiggs {argv[0]}: error: {fault}\n")
    raise SystemExit(USAGE_ERROR)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_strict(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"cohiggs: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
