"""Command-line interface: schemas, determinism, exit codes."""

import argparse
import contextlib
import csv
import gc
import io
import json
import time
import tracemalloc
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from randqnet import (asymptotic_state, channels, index_to_word, prob_strongly_connected, state_mixed,
                      state_plus, state_zero)
from randqnet.channels import _average_weights
from randqnet import cli
from randqnet.cli import EXIT_COST, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _fmt, _fmt_fixed, main
from randqnet.connectivity import ConnectivitySession
from conftest import dense_cnot, link_sum_moments, ptm_of_unitary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_pc_table_defaults(capsys):
    code, out, _ = run_cli(capsys, "pc", "table")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [r["n"] for r in rows] == [str(n) for n in range(2, 8)]
    # enumeration-verified probabilities, rounded half away from zero
    assert [r["p_c"] for r in rows] == [
        "0.2500", "0.2813", "0.3921", "0.5389", "0.6843", "0.8011",
    ]


def test_pc_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "pc", "table", "--nmax", "2")
    assert code == EXIT_OK
    assert parse_csv(out) == [{"n": "2", "p_c": "0.2500"}]


def test_pc_table_rejects_endpoint_probability(capsys):
    code, _, err = run_cli(capsys, "pc", "table", "--p", "1")
    assert code == EXIT_USAGE
    assert "probability" in err


def test_pc_table_unparseable_probability(capsys):
    code, _, err = run_cli(capsys, "pc", "table", "--p", "half")
    assert code == EXIT_USAGE


def test_pc_table_refuses_beyond_the_float_limit_at_once(capsys):
    # float binomials overflow past n = 1030; the session refuses before any P_C
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pc", "table", "--p", "1/2", "--nmax", "1031")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_COST
    assert out == ""
    assert "refused" in err and "1030" in err


def test_exact_table_is_refused_on_the_size_of_its_numerators(capsys, monkeypatch):
    # n(n - 1) times the bits of p's denominator bounds the numerators; the check comes before any table
    def no_table(self, n):
        raise RuntimeError("table work started")

    monkeypatch.setattr(ConnectivitySession, "_fill", no_table)
    code, out, err = run_cli(capsys, "pc", "table", "--p", "1/1" + "0" * 1000, "--nmax", "30")
    assert code == EXIT_COST and out == ""
    assert err == ("refused: exact P_C to n = 30 at a p whose denominator has 3322 bits needs numerators "
                   "of 2890140 bits (n(n - 1) times that), over the budget of 27840 bits\n")
    assert run_cli(capsys, "pc", "curve", "--p-list", f"1/{2 ** 32}", "--nmax", "30")[0] == EXIT_COST
    with pytest.raises(RuntimeError, match="table work started"):  # 32 bits: inside the budget at n = 30
        main(["pc", "table", "--p", f"1/{2 ** 32 - 1}", "--nmax", "30"])


def test_pc_table_refuses_a_float_path_that_lost_all_precision(capsys):
    # at p = 0.0069 the float P_C cancels to nan from n = 656 on
    code, out, err = run_cli(capsys, "pc", "table", "--p", "0.0069", "--nmax", "660")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.splitlines()[-1] == (
        "numerical failure: P_C(656) at p = 0.0069 is nan: the float path lost all "
        "precision there, so no row can be printed")


def test_float_values_outside_the_unit_interval_are_flagged(capsys):
    # stdout stays as it was; one stderr line counts the wrong rows per p
    # (the printed n = 62 value is wrong: the exact P_C is 3.7e-42)
    code, out, err = run_cli(capsys, "pc", "table", "--p", "0.0069", "--nmax", "70")
    assert code == EXIT_OK
    assert {r["n"]: r["p_c"] for r in parse_csv(out)}["62"] == "2.0029"
    assert err.splitlines() == [
        "note: P_C at p = 0.0069 uses the float path (exact only for a rational p up to nmax = 30)",
        "warning: 36 float P_C values at p = 0.0069 lie outside [0, 1], n = 9..70; "
        "the float path cancels there, so these rows are wrong"]
    code, out, err = run_cli(capsys, "pc", "curve", "--p-list", "0.01,0.5", "--nmax", "400")
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 800
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        "warning: 361 float P_C values at p = 0.01 lie outside [0, 1], n = 10..400; "
        "the float path cancels there, so these rows are wrong"]


FLOAT_NOTE = "note: P_C at p = {} uses the float path (exact only for a rational p up to nmax = 30)"


def test_rational_probability_on_float_path_is_noted(capsys):
    code, out, err = run_cli(capsys, "pc", "table", "--p", "1/2", "--nmax", "31")
    assert code == EXIT_OK
    assert err.splitlines() == [FLOAT_NOTE.format("1/2")]
    # the note leaves stdout as the decimal-p float run prints it
    assert run_cli(capsys, "pc", "table", "--p", "0.5", "--nmax", "31")[1] == out
    assert run_cli(capsys, "pc", "table", "--p", "1/2", "--nmax", "30")[2] == ""

    code, _, err = run_cli(capsys, "pc", "curve", "--p-list", "1/2,1/3", "--nmax", "31")
    assert code == EXIT_OK
    assert err.splitlines() == [FLOAT_NOTE.format("1/2"), FLOAT_NOTE.format("1/3")]
    assert run_cli(capsys, "pc", "curve", "--p-list", "1/2,1/3", "--nmax", "30")[2] == ""


def test_float_path_note_only_where_an_exact_path_exists(capsys):
    code, _, err = run_cli(capsys, "evolve", "dynamic", "--n", "2", "--rmax", "1")
    assert code == EXIT_OK
    assert not [line for line in err.splitlines() if line.startswith("note:")]
    code, _, err = run_cli(capsys, "pc", "table", "--p", "0.5")
    assert code == EXIT_OK
    assert err.splitlines() == [FLOAT_NOTE.format("0.5")]
    # one note per float-routed p: at nmax = 30 only the decimal ones
    code, _, err = run_cli(capsys, "pc", "curve", "--p-list", "1/2,0.3,1/3,0.25", "--nmax", "30")
    assert code == EXIT_OK
    assert err.splitlines() == [FLOAT_NOTE.format("0.3"), FLOAT_NOTE.format("0.25")]


def test_pc_curve_refuses_a_float_path_that_lost_all_precision(capsys):
    # at p = 0.0005 the float P_C cancels to nan from n = 369 on
    code, out, err = run_cli(capsys, "pc", "curve", "--p-list", "0.0005", "--nmax", "400")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.splitlines()[-1] == (
        "numerical failure: P_C(369) at p = 0.0005 is nan: the float path lost all "
        "precision there, so no row can be printed")


def test_pc_table_fixed_decimals_equal_the_exact_digits(capsys):
    # 30 decimals is past the 28 digits of the default Decimal context
    code, out, _ = run_cli(capsys, "pc", "table", "--nmax", "12", "--precision", "30")
    assert code == EXIT_OK
    with localcontext() as ctx:
        ctx.prec = 80
        for row in parse_csv(out):
            value = prob_strongly_connected(int(row["n"]), Fraction(1, 2))
            exact = Decimal(value.numerator) / value.denominator
            assert row["p_c"] == str(exact.quantize(Decimal(10) ** -30, rounding=ROUND_HALF_UP))


def test_fixed_decimals_round_the_exact_value_once():
    # 0.285 is the float 0.28499999999999998, so it rounds down; an exact tie
    # rounds half away from zero
    assert _fmt_fixed(0.285, 2) == format(0.285, ".2f") == "0.28"
    assert _fmt_fixed(Fraction(1, 8), 2) == "0.13"
    assert _fmt_fixed(-0.125, 2) == "-0.13"


def test_pc_table_prints_decimals_past_the_int_digit_limit(capsys):
    # 5000 decimals are past the 4300 digits that str() of an int allows
    code, out, _ = run_cli(capsys, "pc", "table", "--p", "1/2", "--nmax", "3", "--precision", "5000")
    assert code == EXIT_OK
    assert [row["p_c"] for row in parse_csv(out)] == ["0.25" + "0" * 4998, "0.28125" + "0" * 4995]


def test_pc_curve_prints_the_digits_of_exact_values(capsys):
    # P_C(2) at p = 1/3 is 1/9; its float holds 17 digits of 1/9, then others
    code, out, _ = run_cli(capsys, "pc", "curve", "--p-list", "1/3", "--nmax", "6", "--precision", "25")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[1]["p_c"] == "0.1111111111111111111111111"
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 25, ROUND_HALF_EVEN
        for row in rows:
            value = prob_strongly_connected(int(row["n"]), Fraction(1, 3))
            assert Decimal(row["p_c"]) == Decimal(value.numerator) / value.denominator


def test_exact_significant_digits_round_half_to_even():
    # 0.025 and 0.075 are ties as rationals but not as floats
    assert [_fmt(Fraction(1, 40), 1), _fmt(Fraction(3, 40), 1)] == ["0.02", "0.08"]
    assert [_fmt(0.025, 1), _fmt(0.075, 1)] == ["0.03", "0.07"]
    # a Fraction that a float holds exactly prints as the float, layout included
    for x in (0.125, 2.5, -0.375, 1.0, 1e-05, 123456789.0, 2.0 ** -60, 0.1, 9.5, 999999.5):
        for precision in (0, 1, 2, 6, 17, 25):
            assert _fmt(Fraction(x), precision) == format(x, f".{precision}g"), (x, precision)
    # past the 4300 digits that str() of an int allows
    assert _fmt(Fraction(1, 9), 5000) == "0." + "1" * 5000
    # a carry into the next power of ten, a negative value, and exponents past a float's range
    assert _fmt(Fraction(99995, 10 ** 5), 4) == "1"
    assert _fmt(Fraction(-1, 3), 25) == "-0." + "3" * 25
    assert _fmt(Fraction(1, 10 ** 400), 3) == "1e-400"
    assert _fmt(Fraction(10 ** 400, 3), 6) == "3.33333e+399"


def test_pc_table_prints_small_values_without_exponent(capsys):
    code, out, _ = run_cli(capsys, "pc", "table", "--p", "1/100", "--nmax", "12", "--precision", "9")
    assert code == EXIT_OK
    values = [row["p_c"] for row in parse_csv(out)]
    assert values[:4] == ["0.000100000", "0.000002029", "0.000000063", "0.000000003"]
    assert all("E" not in v and len(v) == 11 for v in values)


@pytest.mark.parametrize("argv", [
    ("pc", "table"), ("pc", "curve", "--nmax", "3"), ("pc", "bound", "--nmax", "3"),
    ("pc", "mc", "--n", "3", "--samples", "10"), ("evolve", "dynamic", "--n", "2", "--rmax", "1"),
    ("asymptote", "--n", "2"),
])
def test_negative_precision_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--precision", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --precision must be >= 0\n"


def test_csv_output_is_lf_terminated(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "pc", "table", "--nmax", "3", "--out", str(path))
    assert code == EXIT_OK
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "pc", "table", "--nmax", "3", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["n"] == 2
    assert rows[0]["p_c"] == "0.2500"


def test_pc_curve_schema_and_bound_column(capsys):
    code, out, _ = run_cli(capsys, "pc", "curve", "--nmax", "25", "--p-list", "1/2")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0]["n"] == "1" and rows[0]["lower_bound"] == ""
    vals = [float(r["p_c"]) for r in rows]
    # curve is eventually monotone increasing toward 1
    assert all(a < b for a, b in zip(vals[1:], vals[2:]))
    assert vals[-1] > 0.999
    for r in rows[1:]:
        b = float(r["lower_bound"])
        if b > 0:
            assert b <= float(r["p_c"]) + 1e-12


def test_pc_curve_per_p_files(tmp_path, capsys):
    out = tmp_path / "curve_{p}.csv"
    code, _, _ = run_cli(capsys, "pc", "curve", "--nmax", "6", "--out", str(out))
    assert code == EXIT_OK
    files = sorted(f.name for f in tmp_path.iterdir())
    assert len(files) == 6
    assert "curve_1-2.csv" in files


def test_pc_curve_cost_guard(capsys):
    # pc curve has no size cap of its own: past n = 1030 the float binomials overflow
    code, out, err = run_cli(capsys, "pc", "curve", "--p-list", "1/2", "--nmax", "1031")
    assert code == EXIT_COST and out == ""
    assert err.splitlines()[-1] == ("refused: float binomials C(1030, j) overflow; the float path "
                                    "supports at most n = 1030 vertices")
    code, out, _ = run_cli(capsys, "pc", "curve", "--p-list", "1/2", "--nmax", "1030")
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 1030


def test_pc_mc_deterministic(capsys):
    args = ("pc", "mc", "--n", "4", "--p", "1/2", "--samples", "20000", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    row = parse_csv(out1)[0]
    assert float(row["lo"]) <= 0.392090 <= float(row["hi"])


def test_pc_mc_threads_below_one_is_usage_error(capsys):
    for threads in ("0", "-2"):
        code, _, err = run_cli(capsys, "pc", "mc", "--n", "4", "--samples", "100", "--threads", threads)
        assert code == EXIT_USAGE
        assert "--threads" in err


def test_pc_mc_memory_guard(capsys):
    # the arc plane of the smallest, 64-graph chunk: 8 B x 288 983 000 arcs x 1 word
    code, _, err = run_cli(capsys, "pc", "mc", "--n", "17000")
    assert code == EXIT_COST
    assert "~2.3 GB" in err
    assert "smallest chunk of 64 graphs" in err


def test_pc_mc_notes_the_sampled_grid_p(capsys):
    # arcs compare a 16-bit variate with round(p * 65536): 1e-6 rounds to 0
    code, out, err = run_cli(capsys, "pc", "mc", "--n", "3", "--p", "0.000001", "--samples", "1000")
    assert code == EXIT_OK
    assert parse_csv(out)[0]["p"] == "1e-06" and parse_csv(out)[0]["hits"] == "0"
    assert err.splitlines() == ["note: pc mc samples each arc at p = 0/65536 = 0.0, "
                                "the point of its 1/65536 grid nearest p = 1e-06"]
    code, _, err = run_cli(capsys, "pc", "mc", "--n", "3", "--p", "1/100000", "--samples", "1000")
    assert code == EXIT_OK and "p = 1/65536 = 1.52587890625e-05" in err
    for p in ("1/2", "0.5", "1"):
        code, _, err = run_cli(capsys, "pc", "mc", "--n", "3", "--p", p, "--samples", "1000")
        assert code == EXIT_OK and err == ""


def test_pc_mc_p_one(capsys):
    code, out, _ = run_cli(capsys, "pc", "mc", "--n", "6", "--p", "1", "--samples", "500")
    assert code == EXIT_OK
    assert float(parse_csv(out)[0]["estimate"]) == 1.0


def test_pc_bound_rows(capsys):
    code, out, _ = run_cli(capsys, "pc", "bound", "--nmax", "4", "--p", "1/2")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [r["n"] for r in rows] == ["2", "3", "4"]
    assert float(rows[0]["lower_bound"]) == pytest.approx(0.25)


def test_pc_bound_streams_its_rows(tmp_path, capsys):
    # a list of 50 000 rows took 8.1 MB; streamed, the rows are written as they are made
    out = tmp_path / "bound.csv"
    tracemalloc.start()
    try:
        code = main(["pc", "bound", "--nmax", "50001", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak < 2 * 2 ** 20
    lines = out.read_text().splitlines()
    assert len(lines) == 50001
    assert lines[-1] == f"50001,1/2,{format(1 - 50000 ** 2 * 0.75 ** 50000, '.6g')}"
    # a p whose float is 0 is refused before the file is made
    tiny = tmp_path / "tiny.csv"
    code, stdout, err = run_cli(capsys, "pc", "bound", "--p", "1/10" + "0" * 400, "--out", str(tiny))
    assert code == EXIT_USAGE and "0 < p <= 1" in err and not tiny.exists()


def test_evolve_dynamic_rmax_zero(capsys):
    code, out, _ = run_cli(capsys, "evolve", "dynamic", "--n", "2", "--rmax", "0", "--p-list", "0.5")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["r"] == "0"
    assert float(rows[0]["distance"]) > 0


def test_evolve_dynamic_rows_match_exact_powers(capsys):
    # at n = 2, p = 1/2 the averaged step is S = A / 8 with the integer matrix
    # A = 2 Id + 3 (P_01 + P_10), so S^r is exact; S^r L = L and tr L = 5 give
    # D(r)^2 = ||S^r||^2 - 5 with no limit map or eigensolver involved
    P = [np.rint(ptm_of_unitary(2, dense_cnot(2, c, t))).astype(int) for c, t in ((0, 1), (1, 0))]
    A = (2 * np.eye(16, dtype=int) + 3 * (P[0] + P[1])).astype(object)
    code, out, _ = run_cli(capsys, "evolve", "dynamic", "--n", "2", "--p-list", "1/2", "--rmax", "120")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [int(row["r"]) for row in rows] == list(range(121))
    power = np.eye(16, dtype=int).astype(object)
    wrong = []
    with localcontext() as ctx:
        ctx.prec = 50
        for row in rows:
            r = int(row["r"])
            square = int((power * power).sum()) - 5 * 64 ** r  # 64^r D(r)^2, exact
            exact = (Decimal(square) / Decimal(64 ** r)).sqrt()
            half_unit = Decimal(10) ** (exact.adjusted() - 5) / 2
            if abs(Decimal(row["distance"]) - exact) > half_unit:
                wrong.append((r, row["distance"], f"{exact:.8e}"))
            power = power.dot(A)
    assert not wrong


def test_evolve_static_r1_equals_dynamic_r1(capsys):
    _, out_d, _ = run_cli(capsys, "evolve", "dynamic", "--n", "3", "--rmax", "1", "--p-list", "0.5")
    _, out_s, _ = run_cli(capsys, "evolve", "static", "--n", "3", "--rmax", "1", "--p-list", "0.5")
    d1 = float(parse_csv(out_d)[1]["distance"])
    s1 = float(parse_csv(out_s)[1]["distance"])
    assert s1 == pytest.approx(d1, rel=1e-6)


def test_evolve_cost_guard(capsys):
    code, _, _ = run_cli(capsys, "evolve", "dynamic", "--n", "9", "--rmax", "1")
    assert code == EXIT_COST


def test_evolve_dynamic_refusal_names_the_largest_sector(capsys, monkeypatch):
    # the refusal comes at entry, before any sector is built
    def maps(n):
        raise AssertionError("built")

    monkeypatch.setattr(channels, "_sector_maps", maps)
    for n in ("9", "40"):
        code, out, err = run_cli(capsys, "evolve", "dynamic", "--n", n, "--rmax", "1")
        assert code == EXIT_COST and out == ""
        assert err == (f"refused: dynamic evolution refused for n={n} (max 8): above it the largest "
                       "symmetry sector holds over 10000 words\n")


def test_evolve_static_n7_is_refused(capsys):
    # one graph's blocks (words 1, 127, 127, 8001 and 8128 per class) need
    # 3 x 8 bytes per entry, over the 2 GB guard whatever --budget says
    code, _, err = run_cli(capsys, "evolve", "static", "--n", "7", "--rmax", "1", "--budget", "1")
    assert code == EXIT_COST
    assert "refused: static ensemble at n=7 needs ~3.1 GB per graph" in err


def test_evolve_dynamic_n7_first_step_matches_the_sparse_action(capsys):
    # S L = L and tr L = 5 give D(1)^2 = ||S||_F^2 - 5, with S = w_id Id + c A
    # summed entry by entry from the link permutations
    code, out, _ = run_cli(capsys, "evolve", "dynamic", "--n", "7", "--rmax", "2", "--p-list", "0.5",
                           "--precision", "17")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [row["r"] for row in rows] == ["0", "1", "2"]
    w_id, c = _average_weights(7, 0.5)
    _, frob2 = link_sum_moments(7, w_id, c)
    assert float(rows[1]["distance"]) ** 2 == pytest.approx(frob2 - 5, rel=1e-12)


def test_evolve_dynamic_prints_distances_below_the_square_range(capsys):
    # D(r)^2 is subnormal from r near 640 at n = 3, p = 0.95; the trace ends
    # with one note where max|mu|^r would be, after r = 2308
    code, out, err = run_cli(capsys, "evolve", "dynamic", "--n", "3", "--p-list", "0.95", "--rmax", "3000")
    assert code == EXIT_OK
    rows = {int(row["r"]): row["distance"] for row in parse_csv(out)}
    assert rows[1200] == "3.82034e-160"
    assert max(rows) == 2308 and float(rows[2308]) > 2.2e-308
    assert err.count("note:") == 1 and "r = 2308" in err


def test_evolve_static_default_n5_is_refused(capsys):
    # above n = 4 the default budget of sampled graphs exceeds the memory guard
    code, _, err = run_cli(capsys, "evolve", "static", "--n", "5", "--rmax", "1")
    assert code == EXIT_COST
    assert "refused" in err


@pytest.mark.parametrize("n, fits", ((5, 179), (6, 10)))
def test_evolve_static_guard_names_the_graphs_that_fit(capsys, n, fits):
    # the guard counts block bytes: three flat (graphs, sum of block sizes^2)
    # arrays; it refuses before any transfer matrix is built
    code, _, err = run_cli(capsys, "evolve", "static", "--n", str(n), "--rmax", "1")
    assert code == EXIT_COST
    assert f"at most {fits} distinct graphs fit" in err
    assert "--budget" in err
    # the graphs it counts depend only on the G(n, p) draw at the default p
    # list, budget and seed; the counts were recorded from per-graph draws
    distinct = {5: 6592, 6: 9718}[n]
    assert f"static ensemble of {distinct} distinct graphs at n={n}" in err


def test_evolve_static_sampled_mode(capsys):
    args = ("evolve", "static", "--n", "5", "--budget", "5",
            "--rmax", "2", "--p-list", "0.5", "--seed", "3")
    code, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    assert out1 == out2
    assert len(parse_csv(out1)) == 3
    code, _, err = run_cli(capsys, "evolve", "static", "--n", "5", "--budget", "0", "--rmax", "1")
    assert code == EXIT_USAGE
    assert "--budget" in err


@pytest.mark.parametrize("state", ("zero", "plus", "mixed"))
def test_asymptote_rows_match_per_index_oracle(capsys, state):
    n = 3
    code, out, _ = run_cli(capsys, "asymptote", "--n", str(n), "--state", state)
    assert code == EXIT_OK
    rho = {"zero": state_zero, "plus": state_plus, "mixed": state_mixed}[state](n)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "word", "coefficient"])
    for a, c in enumerate(asymptotic_state(n, rho)):
        writer.writerow([a, index_to_word(a, n), format(float(c), ".6g")])
    assert out == buf.getvalue()


@pytest.mark.parametrize("state", ("zero", "plus", "mixed"))
def test_asymptote_prints_no_negative_zero(capsys, state):
    # these states are fixed, with no negative coefficient; a zero on a word
    # of sign -1 in its class's fixed vector is -1 * 0.0 and must print as 0
    for n in range(2, 7):
        code, out, _ = run_cli(capsys, "asymptote", "--n", str(n), "--state", state)
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 4 ** n
        assert not [r for r in rows if r["coefficient"].startswith("-")], (n, state)


def test_asymptote_zero_state_is_fixed(capsys):
    code, out, _ = run_cli(capsys, "asymptote", "--n", "2", "--state", "zero", "--precision", "12")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 16
    coeffs = np.array([float(r["coefficient"]) for r in rows])
    assert np.abs(coeffs - state_zero(2)).max() <= 1e-12
    assert rows[0]["word"] == "II"


def test_asymptote_coefficient_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(list(state_zero(2))))
    code, out, _ = run_cli(capsys, "asymptote", "--n", "2", "--state", str(path))
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 16


def test_asymptote_bad_file_length(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("[1.0, 0.0]")
    code, _, _ = run_cli(capsys, "asymptote", "--n", "2", "--state", str(path))
    assert code == EXIT_USAGE


def test_asymptote_refuses_malformed_coefficient_files(tmp_path, capsys):
    path = tmp_path / "state.json"
    for text in ('{"coefficients": [1.0]}', "[1e400" + ", 0" * 15 + "]",
                 json.dumps(state_zero(2).reshape(4, 4).tolist())):
        path.write_text(text)
        code, out, err = run_cli(capsys, "asymptote", "--n", "2", "--state", str(path))
        assert code == EXIT_USAGE and out == "", text
        assert err == "error: coefficient file must hold a flat JSON array of 16 finite numbers for n=2\n"


def test_empty_probability_list_is_a_usage_error(capsys):
    for argv in (("pc", "curve", "--p-list", ","), ("evolve", "dynamic", "--n", "2", "--p-list", ",")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --p-list ',' names no probability\n"


def test_asymptote_cost_guard(capsys):
    code, _, _ = run_cli(capsys, "asymptote", "--n", "11")
    assert code == EXIT_COST


def test_file_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (["pc", "table", "--out", str(missing / "x.csv")],
                 ["asymptote", "--n", "2", "--state", str(missing / "state.json")]):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and str(missing) in err


def test_asymptote_above_dense_map_sizes(capsys):
    # the state map needs O(4^n) memory, so n = 7 runs without a 4^7 x 4^7 matrix
    code, out, _ = run_cli(capsys, "asymptote", "--n", "7", "--state", "mixed")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 4 ** 7
    assert float(rows[0]["coefficient"]) == 2 ** -7
    assert all(float(r["coefficient"]) == 0 for r in rows[1:])


def test_unknown_flag_exits_two(capsys):
    for argv in (["pc", "table", "--bogus"],
                 ["evolve", "dynamic", "--budget", "5"],
                 ["evolve", "static", "--mode", "exhaustive"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # the parser of the command reports it, under the command's name
        err = capsys.readouterr().err
        assert f"{' '.join(['randqnet', *argv[:2]])}: error: unrecognized arguments: {argv[2]}" in err


# one argv per command that sets each of its flags away from its default
EVERY_FLAG = {
    ("pc", "table"): "--nmax 9 --p 1/3 --out o.csv --format json --precision 2",
    ("pc", "curve"): "--nmax 9 --p-list 1/3 --out o.csv --format json --precision 2",
    ("pc", "mc"): "--n 6 --p 1/3 --samples 10 --seed 3 --threads 2 --out o.csv --format json --precision 2",
    ("pc", "bound"): "--nmax 9 --p 1/3 --out o.csv --format json --precision 2",
    ("evolve", "dynamic"): "--n 3 --p-list 1/3 --rmax 9 --out o.csv --format json --precision 2",
    ("evolve", "static"): "--n 3 --p-list 1/3 --rmax 9 --budget 5 --seed 3 --out o.csv --format json --precision 2",
    ("asymptote",): "--n 3 --state plus --out o.csv --format json --precision 2",
}


def test_every_flag_of_every_command_takes_effect(capsys):
    assert set(EVERY_FLAG) == {path for path, *_ in cli.COMMANDS}
    for path, flags in EVERY_FLAG.items():
        required = ["--n", "5"] if path == ("pc", "mc") else []
        defaults, every = (vars(cli.parse_args(argv)) for argv in ([*path, *required], [*path, *flags.split()]))
        assert [k for k in defaults if defaults[k] == every[k]] == ["func"]
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([*path, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['randqnet', *path])} [-h]")


def _parsers_built(monkeypatch, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with contextlib.suppress(SystemExit):
        cli.parse_args(argv)
    return len(built)


@pytest.mark.parametrize("argv, count", [
    ("--help", 4), ("bogus", 4), ("pc --help", 5), ("pc tabel", 5), ("evolve --help", 3),
    *((" ".join((*path, flags)), 1) for path, flags in EVERY_FLAG.items()),
    ("pc table --help", 1), ("pc mc", 1),
])
def test_only_the_named_node_is_built(monkeypatch, argv, count):
    assert _parsers_built(monkeypatch, argv.split()) == count


@pytest.mark.parametrize("node, names", [
    ((), ["pc", "evolve", "asymptote"]),
    (("pc",), ["table", "curve", "mc", "bound"]),
    (("evolve",), ["dynamic", "static"]),
])
def test_root_and_group_help_list_the_names_below(monkeypatch, capsys, node, names):
    monkeypatch.setenv("COLUMNS", "200")  # one line per name
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([*node, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['randqnet', *node])} [-h] {{{','.join(names)}}} ...")
    help_of = {path: help_text for path, help_text, *_ in cli.COMMANDS}
    expected = [[name, help_of.get((*node, name)) or cli._GROUPS.get(name)] for name in names]
    listed = [line.split(maxsplit=1) for line in out.splitlines() if line.startswith("    ")]
    # a command without a help line shows only in the {...} of the usage line
    assert listed == [row for row in expected if row[1]]


def test_main_leaves_no_object_frozen(capsys):
    # main freezes what exists before the command only for the command's own
    # collections; a caller's objects are collectable again once it returns
    assert gc.get_freeze_count() == 0
    for argv in (["pc", "table", "--nmax", "3"], ["pc", "table", "--p", "0"]):
        main(argv)
        assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["pc", "table", "--bogus"])
    assert gc.get_freeze_count() == 0
    capsys.readouterr()
