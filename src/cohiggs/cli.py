"""Command-line frontend.

Subcommands: criterion, strata, glr-check, sp-check, model-field, oracle,
adjoint.  Output is a text report by default, except for ``oracle``,
which defaults to JSON; ``--format json`` emits a canonical JSON document
(sorted keys) and ``--format csv`` is available for the strata table.
Informational subcommands exit 0 whatever the verdict; ``oracle`` exits 0
on PASSES and 2 on FAILS; usage errors exit 1.  All randomness is
seed-controlled, so output is a deterministic function of argv.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from .criterion import adjoint_splitting, evaluate_criterion
from .glr import SplittingType, glr_admits_semistable, splitting_to_hn
from .lie import HNType, parse_group
from .oracle import build_model_field, random_field, semistability_oracle
from .poly import PrimeField
from .strata import enumerate_strata
from .symplectic import SymplecticSplitting, sp_admits_stable, sp_to_hn

USAGE_ERROR = 1
FAILS_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for FAILS.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _central(args, group) -> tuple[int, ...]:
    return args.central if args.central is not None else (0,) * group.central_rank


def _group_and_hn(args) -> tuple:
    group = parse_group(args.group)
    hn = HNType.from_flat(group, args.hn, _central(args, group))
    return group, hn


def _cmd_criterion(args) -> int:
    group, hn = _group_and_hn(args)
    report = evaluate_criterion(group, hn)
    if args.format == "json":
        _emit_json(report.to_json_dict())
        return 0
    print(f"group: {group}")
    print(f"simple-root values: {','.join(map(str, hn.flat_values))}")
    print(f"admits_stable: {str(report.admits_stable).lower()}")
    if report.violating_roots:
        for v in report.violating_roots:
            print(f"obstruction: factor {v.factor} simple root {v.root} value {v.value}")
    print(f"adjoint splitting: {report.adjoint_degrees}")
    return 0


def _cmd_adjoint(args) -> int:
    adjoint = adjoint_splitting(*_group_and_hn(args))
    if args.format == "json":
        _emit_json({"adjoint_degrees": list(adjoint.degrees)})
        return 0
    print(adjoint)
    return 0


def _cmd_strata(args) -> int:
    group = parse_group(args.group)
    records = enumerate_strata(group, _central(args, group))
    if args.format == "json":
        _emit_json(
            [
                {
                    "a": list(r.hn.flat_values),
                    "dim_VM": r.dim_cohiggs,
                    "dim_aut": r.dim_aut,
                    "dim_stratum": r.dim_stratum,
                    "generic": r.is_generic,
                }
                for r in records
            ]
        )
        return 0
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["a", "dim_VM", "dim_aut", "dim_stratum", "generic"])
        for r in records:
            writer.writerow(
                [
                    ",".join(map(str, r.hn.flat_values)),
                    r.dim_cohiggs,
                    r.dim_aut,
                    r.dim_stratum,
                    str(r.is_generic).lower(),
                ]
            )
        return 0
    print(f"{'a':>12} {'dim_VM':>7} {'dim_aut':>8} {'dim_stratum':>12} {'generic':>8}")
    for r in records:
        a = ",".join(map(str, r.hn.flat_values)) or "-"
        print(
            f"{a:>12} {r.dim_cohiggs:>7} {r.dim_aut:>8} "
            f"{r.dim_stratum:>12} {str(r.is_generic).lower():>8}"
        )
    return 0


def _cmd_glr_check(args) -> int:
    st = SplittingType(args.splitting)
    ok = glr_admits_semistable(st)
    group, hn = splitting_to_hn(st)
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
    ok = sp_admits_stable(ss)
    group, hn = sp_to_hn(ss)
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
    fld = PrimeField(args.prime)
    if args.model:
        phi = build_model_field(st, fld, args.seed)
    else:
        phi = random_field(st, fld, args.seed)
    verdict = semistability_oracle(phi, args.mode)
    if args.format == "text":
        print(f"{verdict.verdict} ({args.mode} mode over {fld.name})")
        for w in verdict.witnesses:
            print(f"witness: rank {w.rank} degree {w.degree}")
    else:
        _emit_json(verdict.to_json_dict() | {"seed": args.seed, "model": args.model})
    return 0 if verdict.passes else FAILS_ERROR


def _add_format(parser: argparse.ArgumentParser, choices=("text", "json"), default="text") -> None:
    parser.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cohiggs", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("criterion", help="stable/semistable existence for a group and HN type")
    p.add_argument("--group", required=True, help="e.g. A2, C3xA1+z2")
    p.add_argument("--hn", type=_int_list, required=True, help="comma list of simple-root values")
    p.add_argument("--central", type=_int_list, default=None, help="comma list of central degrees")
    _add_format(p)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("adjoint", help="splitting type of the adjoint bundle")
    p.add_argument("--group", required=True)
    p.add_argument("--hn", type=_int_list, required=True)
    p.add_argument("--central", type=_int_list, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("strata", help="enumerate moduli strata with dimensions")
    p.add_argument("--group", required=True)
    p.add_argument("--central", type=_int_list, default=None)
    _add_format(p, choices=("text", "json", "csv"))
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("glr-check", help="gap criterion for a splitting type")
    p.add_argument("--splitting", type=_int_list, required=True, help="e.g. 3,1,0")
    _add_format(p)
    p.set_defaults(func=_cmd_glr_check)

    p = sub.add_parser("sp-check", help="symplectic criterion from half-degrees")
    p.add_argument("--half-degrees", type=_int_list, required=True, help="e.g. 2,1")
    _add_format(p)
    p.set_defaults(func=_cmd_sp_check)

    p = sub.add_parser("model-field", help="print the chained subdiagonal model field")
    p.add_argument("--splitting", type=_int_list, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_model_field)

    p = sub.add_parser("oracle", help="invariant-subbundle (semi)stability test over a prime field")
    p.add_argument("--splitting", type=_int_list, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--mode", choices=("stable", "semistable"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", action="store_true", help="use the model field instead of a random one")
    _add_format(p, choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"cohiggs: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
