"""Check every value a randqnet command printed against an independent reference.

A printed value passes when it lies within half a unit of its last printed
digit of the reference: relative to its own magnitude for ``%g`` columns
(``--precision`` significant digits) and absolute for the fixed-decimal
``pc table`` column (``--precision`` decimals). The expected rows follow
from the command's flags alone; a missing row, a row whose key columns
differ, or a command that exited non-zero fails every value it should
have printed.

Stored references (``refs/``, written by ``make_refs.py``) give P_C and the
evolution distances. Closed forms computed here give the lower bound, the
Wilson interval and the asymptotic states, which are fixed points of the
asymptotic map. A Monte Carlo hit count passes when it lies within 5 sigma
of samples * P_C at the 1/65536-grid p the sampler realizes, and when it
equals the count of the same command run with another ``--threads``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "refs")
MC_GRID = 1 << 16
MC_SIGMAS = 5
CONFIDENCE = "0.99"

# The CLI's defaults for the flags the checker reads, per command class.
DEFAULTS = {
    "pc_table": {"--p": "1/2", "--nmax": "7", "--precision": "4"},
    "pc_curve": {"--p-list": "2/3,1/2,3/7,2/5,1/3,1/5", "--nmax": "50", "--precision": "6"},
    "pc_mc": {"--n": None, "--p": "1/2", "--samples": "1000000", "--seed": "171717", "--precision": "6"},
    "evolve_dynamic": {"--n": "4", "--p-list": "0.2,0.4,0.6,0.8,0.95", "--rmax": "1000", "--precision": "6"},
    "evolve_static": {"--n": "4", "--p-list": "0.2,0.4,0.6,0.8,0.95", "--rmax": "160", "--precision": "6"},
    "asymptote": {"--n": "4", "--state": "zero", "--precision": "6"},
}

COLUMNS = {
    "pc_table": ["n", "p_c"],
    "pc_curve": ["n", "p", "p_c", "lower_bound"],
    "pc_mc": ["n", "p", "samples", "hits", "estimate", "lo", "hi", "confidence", "seed"],
    "evolve_dynamic": ["p", "r", "distance"],
    "evolve_static": ["p", "r", "distance"],
    "asymptote": ["index", "word", "coefficient"],
}


def mc_grid_p(text: str) -> Fraction:
    """The arc probability the Monte Carlo sampler realizes for ``--p text``."""
    return Fraction(round(float(Fraction(text)) * MC_GRID), MC_GRID)


def prob_key(text: str) -> str:
    """A probability as the CLI echoes it: exact rationals as a/b, decimals as floats."""
    return str(Fraction(text)) if "/" in text else repr(float(text))


def within_half_ulp(text: str, ref: Decimal, digits: int, fixed: bool) -> bool:
    try:
        value = Decimal(text)
    except ArithmeticError:
        return False
    if not value.is_finite():
        return False
    if fixed:
        half = Decimal(5).scaleb(-digits - 1)
    elif value == 0:
        return ref == 0
    else:
        half = Decimal(5).scaleb(value.adjusted() - digits)
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(value - ref) <= half


class Refs:
    def __init__(self, ref_dir: str = REF_DIR):
        with open(os.path.join(ref_dir, "pc.json"), encoding="utf-8") as fh:
            self.pc = json.load(fh)
        with open(os.path.join(ref_dir, "evolve.json"), encoding="utf-8") as fh:
            self.evolve = json.load(fh)

    def p_c(self, p: Fraction, n: int) -> Decimal:
        return Decimal(self.pc[str(p)][n - 1])

    def distance(self, mode: str, n: int, p: str, r: int) -> Decimal:
        return Decimal(self.evolve[f"{mode} n={n} p={p}"][r])


@dataclass
class Outcome:
    expected: int = 0
    failed: int = 0
    known: int = 0  # failures inside the command's known-defect cells
    examples: list = field(default_factory=list)

    def miss(self, row: dict, column: str, printed, ref, known: bool) -> None:
        self.failed += 1
        self.known += known
        if len(self.examples) < 5:
            keys = {k: v for k, v in row.items() if k != column}
            self.examples.append(f"{keys} {column}: printed {printed!r}, reference {ref}")


def lower_bound(n: int, p: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        t = 1 - Decimal(p.numerator) ** 2 / Decimal(p.denominator) ** 2
        return 1 - (n - 1) ** 2 * t ** (n - 1)


def wilson(hits: int, samples: int) -> tuple[Decimal, Decimal]:
    z = Decimal(NormalDist().inv_cdf(0.5 + float(CONFIDENCE) / 2))
    with localcontext() as ctx:
        ctx.prec = 40
        zz = z * z
        denom = samples + zz
        center = (hits + zz / 2) / denom
        half = z * (Decimal(hits) * (samples - hits) / samples + zz / 4).sqrt() / denom
        return max(Decimal(0), center - half), min(Decimal(1), center + half)


def pauli_word(index: int, n: int) -> str:
    return "".join("IXYZ"[(index >> (2 * q)) & 3] for q in range(n))


def state_coefficient(state: str, word: str) -> Decimal:
    """Pauli coefficient of |0..0>, |+..+> or I/2^n, each a fixed point of the asymptotic map."""
    allowed = {"zero": "IZ", "plus": "IX", "mixed": "I"}[state]
    return Decimal(2) ** -len(word) if set(word) <= set(allowed) else Decimal(0)


def expected_rows(cmd, refs: Refs) -> tuple[int, list]:
    """(printed precision, [(key columns, {value column: reference})]) for one command."""
    args = dict(DEFAULTS[cmd.cls])
    args.update({k: cmd.flag(k) for k in args if cmd.flag(k) is not None})
    digits = int(args["--precision"])
    rows = []
    if cmd.cls == "pc_table":
        p = Fraction(args["--p"])
        for n in range(2, int(args["--nmax"]) + 1):
            rows.append(({"n": str(n)}, {"p_c": refs.p_c(p, n)}))
    elif cmd.cls == "pc_curve":
        for tok in args["--p-list"].split(","):
            p = Fraction(tok)
            for n in range(1, int(args["--nmax"]) + 1):
                keys = {"n": str(n), "p": prob_key(tok)}
                values = {"p_c": refs.p_c(p, n)}
                if n >= 2:
                    values["lower_bound"] = lower_bound(n, p)
                else:
                    keys["lower_bound"] = ""
                rows.append((keys, values))
    elif cmd.cls == "pc_mc":
        n = int(args["--n"])
        keys = {"n": str(n), "p": prob_key(args["--p"]), "samples": args["--samples"],
                "confidence": CONFIDENCE, "seed": args["--seed"]}
        p_c = refs.p_c(mc_grid_p(args["--p"]), n)
        rows.append((keys, {"hits": p_c, "estimate": None, "lo": None, "hi": None}))
    elif cmd.cls in ("evolve_dynamic", "evolve_static"):
        mode, n = cmd.cls.split("_")[1], int(args["--n"])
        for tok in args["--p-list"].split(","):
            for r in range(int(args["--rmax"]) + 1):
                rows.append(({"p": prob_key(tok), "r": str(r)},
                             {"distance": refs.distance(mode, n, tok, r)}))
    elif cmd.cls == "asymptote":
        n = int(args["--n"])
        for a in range(4 ** n):
            word = pauli_word(a, n)
            rows.append(({"index": str(a), "word": word},
                         {"coefficient": state_coefficient(args["--state"], word)}))
    else:
        raise ValueError(f"no checker for {cmd.cls}")
    return digits, rows


def _mc_values(row: dict, values: dict, twin_hits: int | None) -> dict:
    """Monte Carlo references: the hit count's 5-sigma test, then closed forms of the printed hits."""
    samples = int(row["samples"])
    try:
        hits = int(row["hits"])
    except (TypeError, ValueError):
        return {"hits": False, "estimate": False, "lo": False, "hi": False}
    p_c = float(values["hits"])
    sigma = math.sqrt(samples * p_c * (1 - p_c))
    ok = abs(hits - samples * p_c) <= MC_SIGMAS * sigma and 0 <= hits <= samples
    if twin_hits is not None:
        ok = ok and hits == twin_hits
    lo, hi = wilson(hits, samples) if 0 <= hits <= samples else (None, None)
    return {"hits": ok, "estimate": Decimal(hits) / samples, "lo": lo, "hi": hi}


def check(cmd, exit_code: int | str, stdout: str, refs: Refs, twin_hits: int | None = None) -> Outcome:
    """Compare one command's printed CSV with its references."""
    digits, rows = expected_rows(cmd, refs)
    out = Outcome(expected=sum(len(values) for _, values in rows))
    printed: list[dict] = []
    if exit_code == 0:
        reader = csv.DictReader(io.StringIO(stdout))
        if reader.fieldnames == COLUMNS[cmd.cls]:
            printed = list(reader)
    for i, (keys, values) in enumerate(rows):
        row = printed[i] if i < len(printed) else None
        if row is not None and any(row.get(k) != v for k, v in keys.items()):
            row = None
        if cmd.cls == "pc_mc" and row is not None:
            values = _mc_values(row, values, twin_hits)
        defect_columns = {column for column, where, _ in cmd.known_defects
                          if all(keys.get(k) == v for k, v in where.items())}
        for col, ref in values.items():
            text = row[col] if row is not None else None
            if text is None or ref is None:
                ok = False
            elif isinstance(ref, bool):
                ok = ref
            else:
                ok = within_half_ulp(text, ref, digits, fixed=cmd.cls == "pc_table")
            if not ok:
                out.miss(keys, col, text, ref, known=col in defect_columns)
    value_columns = list(rows[0][1]) if rows else []
    for row in printed[len(rows):]:
        for col in value_columns:
            out.miss(row, col, row.get(col), "no such row", known=False)
    return out


def printed_hits(stdout: str) -> int | None:
    """The hit count a ``pc mc`` command printed, if it printed one."""
    try:
        return int(next(csv.DictReader(io.StringIO(stdout)))["hits"])
    except (StopIteration, KeyError, TypeError, ValueError):
        return None


def within_known(cmd, outcome: Outcome) -> bool:
    """True when every miss lies in the command's known-defect cells, and no more of them miss."""
    allowed = sum(count for _, _, count in cmd.known_defects)
    return outcome.failed == outcome.known and outcome.known <= allowed
