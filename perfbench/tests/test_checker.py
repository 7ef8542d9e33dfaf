"""Tests of the benchmark's output checker (perfbench/check.py).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import check  # noqa: E402
from workloads import Command  # noqa: E402


class StubRefs:
    """P_C(n, p) = p^n / 3 and D(r) = 2^-r / 7: arbitrary values with many digits."""

    def p_c(self, p: Fraction, n: int) -> Decimal:
        return Decimal(float(p) ** n / 3)

    def distance(self, mode: str, n: int, p: str, r: int) -> Decimal:
        return Decimal(2.0 ** -r / 7)


REFS = StubRefs()


def printed(cmd, refs=REFS, bump=None) -> str:
    """The CSV a correct CLI prints; ``bump=(row, column)`` adds one unit in that value's last digit."""
    digits, rows = check.expected_rows(cmd, refs)
    header = check.COLUMNS[cmd.cls]
    lines = [",".join(header)]
    for i, (keys, values) in enumerate(rows):
        cells = dict(keys)
        for col, ref in values.items():
            if cmd.cls == "pc_table":
                value = ref.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP)
                unit = Decimal(1).scaleb(-digits)
            else:
                value = Decimal(format(float(ref), f".{digits}g"))
                unit = Decimal(1).scaleb(value.adjusted() - digits + 1)
            if bump == (i, col):
                value += unit
            cells[col] = str(value)
        lines.append(",".join(cells.get(c, "") for c in header))
    return "\n".join(lines) + "\n"


def mc_output(hits: int, samples: int = 1000000, seed: str = "171717") -> str:
    lo, hi = check.wilson(hits, samples)
    cells = ["7", "1/2", str(samples), str(hits), format(hits / samples, ".6g"),
             format(float(lo), ".6g"), format(float(hi), ".6g"), "0.99", seed]
    return ",".join(check.COLUMNS["pc_mc"]) + "\n" + ",".join(cells) + "\n"


TABLE = Command(("pc", "table", "--p", "1/3", "--nmax", "6"))
CURVE = Command(("pc", "curve", "--p-list", "1/2,2/5", "--nmax", "4"))
DYNAMIC = Command(("evolve", "dynamic", "--n", "3", "--p-list", "0.5", "--rmax", "5"))
ASYMPTOTE = Command(("asymptote", "--n", "2", "--state", "plus"))


def test_correct_rows_pass():
    for cmd in (TABLE, CURVE, DYNAMIC, ASYMPTOTE):
        outcome = check.check(cmd, 0, printed(cmd), REFS)
        assert outcome.failed == 0, (cmd.label, outcome.examples)
    assert check.check(CURVE, 0, printed(CURVE), REFS).expected == 2 * 4 + 2 * 3


def test_one_unit_in_the_last_digit_fails():
    for cmd in (TABLE, CURVE, DYNAMIC, ASYMPTOTE):
        _, rows = check.expected_rows(cmd, REFS)
        for i in (0, len(rows) - 1):
            for col in rows[i][1]:
                outcome = check.check(cmd, 0, printed(cmd, bump=(i, col)), REFS)
                assert outcome.failed == 1, (cmd.label, i, col)


def test_nonzero_exit_fails_every_expected_value():
    for cmd in (TABLE, CURVE, DYNAMIC, ASYMPTOTE):
        outcome = check.check(cmd, 3, printed(cmd), REFS)
        assert outcome.expected > 0 and outcome.failed == outcome.expected


def test_missing_and_mislabeled_rows_fail():
    text = printed(TABLE).splitlines()
    assert check.check(TABLE, 0, "\n".join(text[:-2]) + "\n", REFS).failed == 2
    text[1] = text[1].replace("2,", "9,", 1)
    assert check.check(TABLE, 0, "\n".join(text) + "\n", REFS).failed == 1


def test_monte_carlo_hits_within_five_sigma_and_equal_across_threads():
    cmd = Command(("pc", "mc", "--n", "7", "--p", "1/2"))
    p_c = float(REFS.p_c(Fraction(1, 2), 7))
    sigma = (1e6 * p_c * (1 - p_c)) ** 0.5
    hits = round(1e6 * p_c)
    assert check.check(cmd, 0, mc_output(hits), REFS).failed == 0
    assert check.check(cmd, 0, mc_output(hits), REFS, twin_hits=hits + 1).failed == 1
    assert check.check(cmd, 0, mc_output(round(1e6 * p_c + 6 * sigma)), REFS).failed == 1
    assert check.check(cmd, 0, mc_output(hits, seed="5"), REFS).failed == 4


def test_known_defects_count_as_failures_but_only_up_to_their_count():
    cmd = Command(CURVE.argv, known_defects=(("p_c", {"p": "2/5"}, 1),))
    outcome = check.check(cmd, 0, printed(cmd, bump=(5, "p_c")), REFS)
    assert (outcome.failed, outcome.known) == (1, 1) and check.within_known(cmd, outcome)
    outcome = check.check(cmd, 0, printed(cmd, bump=(0, "p_c")), REFS)
    assert (outcome.failed, outcome.known) == (1, 0) and not check.within_known(cmd, outcome)
    outcome = check.check(cmd, 4, "", REFS)
    assert outcome.known == 4 and not check.within_known(cmd, outcome)


def test_half_unit_boundary():
    assert check.within_half_ulp("0.2813", Decimal("0.28125"), 4, fixed=True)
    assert not check.within_half_ulp("0.2814", Decimal("0.28125"), 4, fixed=True)
    assert check.within_half_ulp("1.5e-10", Decimal("1.45e-10"), 2, fixed=False)
    assert not check.within_half_ulp("1.5e-10", Decimal("1.449e-10"), 2, fixed=False)
    assert check.within_half_ulp("0", Decimal(0), 6, fixed=False)
    assert not check.within_half_ulp("1e-300", Decimal(0), 6, fixed=False)
    assert not check.within_half_ulp("nan", Decimal(0), 6, fixed=False)
