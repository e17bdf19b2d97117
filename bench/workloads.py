"""Seeded op lists for the four benchmark workloads.

Generation uses only the standard library and never imports ``cohiggs``, so
a worker builds its op list without warming any cache of the program.  The
same (workload, seed) always gives the same list.  Each list is stratified:
the number of ops per cost class is fixed and the seed picks the concrete
groups, degrees, fields and order inside each class, so the work of a pass
stays close across seeds while the inputs differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

WORKLOADS = ("criterion", "strata", "oracle-certify", "oracle-sweep")

# Inputs that run past any sane ceiling today.  They stay out of every
# workload until the program rejects them with exit 1 in bounded time.
EXCLUDED = (
    ("strata --group A14", "3^14 strata; enumeration ran past a 20 s timeout"),
    ("criterion --group A3000 --hn 0,...", "root generation ran past a 20 s timeout"),
    (
        "oracle --splitting 2,0,-2 --prime 101 --mode stable",
        "subbundle enumeration ran past a 20 s timeout",
    ),
)

_DIM = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXCEPTIONAL = ["E6", "E7", "E8", "F4", "G2"]
CLASSICAL_MAX_RANK = 24
# Cost classes of the small simple types by rank: the types in one class
# have the same rank and the same number of roots.
_CLASSES = {
    1: (("A1",),),
    2: (("A2",), ("B2", "C2"), ("G2",)),
    3: (("A3", "D3"), ("B3", "C3")),
    4: (("A4",), ("B4", "C4"), ("D4",), ("F4",)),
    5: (("A5",), ("B5", "C5"), ("D5",)),
}


@dataclass(frozen=True)
class Op:
    """One request.

    ``kind`` is the CLI subcommand and ``args`` its argv, or ``kind`` is
    ``oracle-lib`` and ``args`` is ``(degrees, prime, mode, coefficient
    rows)`` for a library call.  ``reject`` marks a must-reject input
    (expected exit 1).  ``pair`` is the index of the op this one is checked
    against.  ``info`` carries what the checker needs to know about the input.
    """

    kind: str
    args: tuple
    reject: bool = False
    pair: int | None = None
    info: dict = field(default_factory=dict)


def factor_dim(factor: str) -> int:
    return _DIM[factor[0]](int(factor[1:]))


def group_dim(factors, central: int) -> int:
    return central + sum(factor_dim(f) for f in factors)


def group_string(factors, central: int) -> str:
    return "x".join(factors) + (f"+z{central}" if central else "")


def _rank(factor: str) -> int:
    return int(factor[1:])


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _hn_value(rng: random.Random) -> int:
    # Mostly 0-2; values 3 and 4 make a share of the requests obstructed.
    return rng.choices((0, 1, 2, 3, 4), weights=(35, 35, 25, 3, 2))[0]


def _flatten(units: list[list[Op]]) -> list[Op]:
    """Concatenate units of ops; an op with ``pair=-1`` pairs with the op
    just before it in its unit."""
    ops: list[Op] = []
    for unit in units:
        for op in unit:
            ops.append(replace(op, pair=len(ops) - 1) if op.pair == -1 else op)
    return ops


def _group_op(kind, factors, central, values, central_degrees, fmt, **kw) -> Op:
    # Values are attached with "=": argparse reads a separate "-1,2" as a flag.
    argv = [kind, f"--group={group_string(factors, central)}"]
    if values is not None:
        argv.append(f"--hn={_csv(values)}")
    if central_degrees is not None:
        argv.append(f"--central={_csv(central_degrees)}")
    argv.append(f"--format={fmt}")
    info = {"factors": tuple(factors), "central": central,
            "values": None if values is None else tuple(values)}
    return Op(kind, tuple(argv), info=info, **kw)


def _central_degrees(rng: random.Random, central: int, bound: int) -> list[int] | None:
    """Explicit central degrees for most requests; None leaves the CLI's
    default of zeros."""
    if central and rng.random() < 0.7:
        return [rng.randint(-bound, bound) for _ in range(central)]
    return None


def _criterion(rng: random.Random) -> list[Op]:
    # Each factor type first appears in an op of its own, so every root
    # system is built exactly once per pass and the build costs are the same
    # for every seed; companions are types already seen (cache hits) of rank
    # at most 8, so whole group strings rarely recur.
    types = [f"{fam}{n}" for fam in "ABCD" for n in range(_MIN_RANK[fam], CLASSICAL_MAX_RANK + 1)]
    types += _EXCEPTIONAL
    rng.shuffle(types)
    units: list[list[Op]] = []
    for k, new in enumerate(types):
        seen = [t for t in types[:k] if _rank(t) <= 8]
        factors = [new] + rng.sample(seen, min(len(seen), rng.choice((0, 1, 1, 2))))
        rng.shuffle(factors)
        central = rng.choice((0, 0, 1, 2, 3))
        values = [_hn_value(rng) for f in factors for _ in range(_rank(f))]
        cdeg = _central_degrees(rng, central, 4)
        kind = rng.choice(("criterion", "adjoint"))
        fmt = rng.choice(("json", "json", "text"))
        units.append([_group_op(kind, factors, central, values, cdeg, fmt)])

    for _ in range(30):
        r = rng.randint(1, 12)
        gaps = [_hn_value(rng) for _ in range(r - 1)]
        top = rng.randint(-3, 6)
        degrees = [top - sum(gaps[:i]) for i in range(r)]
        shown = degrees[:]
        rng.shuffle(shown)  # the CLI sorts a splitting itself
        fmt = rng.choice(("json", "json", "text"))
        unit = [Op("glr-check", ("glr-check", f"--splitting={_csv(shown)}", f"--format={fmt}"),
                   info={"degrees": tuple(degrees)})]
        # A rank-1 splitting maps to a pure torus, which has no simple root
        # for the criterion to judge.
        if r > 1:
            unit.append(_group_op("criterion", (f"A{r - 1}",), 1, gaps, [sum(degrees)], "json",
                                  pair=-1))
        units.append(unit)

    for _ in range(30):
        r = rng.randint(1, 12)
        steps = [_hn_value(rng) for _ in range(r - 1)]
        last = rng.choice((0, 0, 1, 1, 2))
        half = [last + sum(steps[i:]) for i in range(r)]
        fmt = rng.choice(("json", "json", "text"))
        if r == 1:
            factors, values = ("A1",), [2 * half[0]]
        else:
            factors, values = (f"C{r}",), steps + [2 * last]
        units.append([
            Op("sp-check", ("sp-check", f"--half-degrees={_csv(half)}", f"--format={fmt}"),
               info={"half": tuple(half)}),
            _group_op("criterion", factors, 0, values, None, "json", pair=-1),
        ])

    units += [[_must_reject(rng, i)] for i in range(10)]
    rng.shuffle(units)
    return _flatten(units)


def _must_reject(rng: random.Random, i: int) -> Op:
    reason = ("non-dominant", "wrong-length", "bad-group", "bad-splitting", "bad-half")[i % 5]
    factor = rng.choice("ABC") + str(rng.randint(2, 6))
    values = [_hn_value(rng) for _ in range(_rank(factor))]
    cmd = rng.choice(("criterion", "adjoint"))
    if reason == "non-dominant":
        values[rng.randrange(len(values))] = -rng.randint(1, 3)
    elif reason == "wrong-length":
        values = values + [1] if rng.random() < 0.5 else values[:-1]
    elif reason == "bad-group":
        bad = rng.choice(("E9", "A0", "G3", "Q2", "A2+z", "A2xxB3", "a2", "F5xA1"))
        return Op(cmd, (cmd, f"--group={bad}", f"--hn={_csv(values)}"), reject=True)
    elif reason == "bad-splitting":
        bad = rng.choice(("", "1,x", "2;0"))
        return Op("glr-check", ("glr-check", f"--splitting={bad}"), reject=True)
    else:
        lo = rng.randint(0, 3)
        bad = f"{lo},{lo + rng.randint(1, 3)}"  # increasing half-degrees
        return Op("sp-check", ("sp-check", f"--half-degrees={bad}"), reject=True)
    return _group_op(cmd, (factor,), 0, values, None, "json", reject=True)


def _shapes(rank: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of ``rank`` into nonincreasing parts."""
    if rank == 0:
        return [()]
    top = min(rank, largest or rank)
    return [(p,) + rest for p in range(top, 0, -1) for rest in _shapes(rank - p, p)]


def _small_groups() -> list[tuple[tuple[str, ...], ...]]:
    """Every multiset of small cost classes with semisimple rank 1 to 5.

    A cost class lists the simple types with the same rank and root count,
    which cost the same to stratify.
    """
    shapes = []
    for rank in range(1, 6):
        for parts in _shapes(rank):
            options = [[]]
            for i, part in enumerate(parts):
                # keep classes nonincreasing within equal parts, so each
                # multiset appears once
                options = [o + [c] for o in options for c in range(len(_CLASSES[part]))
                           if not (i and parts[i - 1] == part and c > o[-1])]
            shapes += [tuple(_CLASSES[p][c] for p, c in zip(parts, o)) for o in options]
    return shapes


def _strata(rng: random.Random) -> list[Op]:
    # The seed picks the member of each cost class, the factor order, the
    # centre and the format; the multiset of classes is fixed, so the work
    # is nearly the same for every seed.  Shapes of rank 1-4 appear three
    # times, rank 5 once.  The two E7 requests dominate time and peak memory.
    groups = []
    for shape in _small_groups():
        for _ in range(3 if sum(_rank(c[0]) for c in shape) < 5 else 1):
            factors = [rng.choice(c) for c in shape]
            rng.shuffle(factors)
            groups.append((tuple(factors), rng.choice(("json", "csv"))))
    groups += [(("E7",), "json"), (("E7",), "csv")]
    ops = []
    for factors, fmt in groups:
        central = rng.choice((0, 0, 1, 2))
        cdeg = _central_degrees(rng, central, 3)
        ops.append(_group_op("strata", factors, central, None, cdeg, fmt))
    rng.shuffle(ops)
    return ops


def _oracle_certify(rng: random.Random) -> list[Op]:
    # Cost depends on the gap pattern and the prime, not on a shift of all
    # degrees, so counts per (pattern, prime) are fixed and the shift and
    # field seed are drawn.  No single op dominates: the costliest pattern,
    # (2, 2), runs at F5 and F7 only, so an early FAILS on one field moves
    # the total little.
    base = {(0,): 4, (1,): 4, (2,): 4, (0, 0): 3, (1, 0): 3, (0, 1): 3, (1, 1): 3,
            (2, 0): 3, (0, 2): 3, (2, 1): 2, (1, 2): 2}
    ops = []
    for p in (5, 7, 11, 13):
        plan = base | {(2, 2): 3} if p < 11 else base
        for gaps, count in plan.items():
            for _ in range(count):
                degrees = _shifted(rng, gaps)
                argv = ("oracle", f"--splitting={_csv(degrees)}", f"--prime={p}",
                        "--mode=stable", f"--seed={rng.randrange(10**6)}")
                info = {"degrees": degrees, "prime": p, "mode": "stable"}
                ops.append(Op("oracle", argv, info=info))
    rng.shuffle(ops)
    return ops


def _shifted(rng: random.Random, gaps) -> tuple[int, ...]:
    top = rng.randint(-2, 2)
    return tuple(top - sum(gaps[:i]) for i in range(len(gaps) + 1))


def _random_coeffs(rng: random.Random, degrees, p: int) -> tuple:
    # entry (i, j) is a form of degree m_i - m_j + 2; a negative degree gets
    # no coefficients, which is the zero entry
    r = len(degrees)
    return tuple(
        tuple(tuple(rng.randrange(p) for _ in range(degrees[i] - degrees[j] + 3))
              for j in range(r))
        for i in range(r)
    )


def _oracle_sweep(rng: random.Random) -> list[Op]:
    # Small splittings over F2 and F3, gaps >= 3 included: mostly early FAILS
    # and cheap PASSES, so fixed per-call costs dominate.  Each field is
    # checked in both modes.
    fields_per_prime = {(0,): 140, (1,): 140, (2,): 140, (3,): 140, (4,): 140,
                        (1, 0): 30, (0, 1): 30, (3, 0): 30, (0, 3): 30, (4, 0): 30,
                        (3, 3): 30}
    units = []
    for p in (2, 3):
        for gaps, count in fields_per_prime.items():
            for _ in range(count):
                degrees = _shifted(rng, gaps)
                coeffs = _random_coeffs(rng, degrees, p)
                modes = ["stable", "semistable"]
                rng.shuffle(modes)
                units.append([
                    Op("oracle-lib", (degrees, p, mode, coeffs),
                       info={"degrees": degrees, "prime": p, "mode": mode},
                       pair=-1 if k else None)
                    for k, mode in enumerate(modes)
                ])
    rng.shuffle(units)
    return _flatten(units)


_GENERATORS = {
    "criterion": _criterion,
    "strata": _strata,
    "oracle-certify": _oracle_certify,
    "oracle-sweep": _oracle_sweep,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of a workload for a seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def properties(workload: str, ops: list[Op], verdicts: list[str | None]) -> dict:
    """Input properties a later change may depend on, as shares of the ops.

    ``verdicts`` holds PASSES or FAILS per op where the op has one.
    """
    n = len(ops)
    out: dict = {"ops": n}
    if workload == "criterion":
        groups = [group_string(op.info["factors"], op.info["central"])
                  for op in ops if "factors" in op.info]
        out["distinct_group_share"] = len(set(groups)) / len(groups)
        out["must_reject_share"] = sum(op.reject for op in ops) / n
    elif workload == "strata":
        out["large_group_share"] = sum(
            sum(_rank(f) for f in op.info["factors"]) >= 7 for op in ops) / n
    else:
        judged = [v for v in verdicts if v is not None]
        out["passes_share"] = judged.count("PASSES") / max(len(judged), 1)
        out["fails_share"] = judged.count("FAILS") / max(len(judged), 1)
        out["rank3_share"] = sum(len(op.info["degrees"]) == 3 for op in ops) / n
    return out
