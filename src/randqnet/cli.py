"""Command-line front end.

Commands emit CSV (default) or JSON tables with deterministic content for
a fixed flag set and seed. Probabilities may be given as exact rationals
("1/2") or decimals ("0.5"). ``pc table`` and ``pc curve`` take every
P_C row from ``_checked_pc_curve``: ``connectivity.pc_curve`` computes a
rational p exactly, in integer numerators over powers of its denominator,
up to ``connectivity.EXACT_PC_MAX_N`` vertices and any other p in floats,
and a float curve gets one note per p on stderr, one warning line if
values lie outside [0, 1], and exit code 4 if a value is nan or infinite.
Beyond ``connectivity.FLOAT_PC_MAX_N`` vertices the float path refuses
with exit code 3. An exact value prints the digits of its exact value.

Exit codes: 0 success, 2 usage, validation or file error, 3 cost-guard
refusal, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import channels, connectivity, digraph
from .digraph import CostGuardError

DEFAULT_SEED = 171717

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COST = 3
EXIT_NUMERIC = 4

_LOG10_2 = math.log10(2)


class UsageError(ValueError):
    pass


def _parse_prob(text: str, *, closed: bool = False) -> connectivity.Prob:
    """Parse "a/b" to an exact Fraction, decimals to float."""
    text = text.strip()
    try:
        if "/" in text:
            value: connectivity.Prob = Fraction(text)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse probability {text!r}") from exc
    if closed:
        if not 0 <= value <= 1:
            raise UsageError(f"probability {text!r} must lie in [0, 1]")
    elif not 0 < value < 1:
        raise UsageError(f"probability {text!r} must lie strictly in (0, 1)")
    return value


def _parse_prob_list(text: str) -> list[connectivity.Prob]:
    probs = [_parse_prob(tok) for tok in text.split(",") if tok.strip()]
    if not probs:
        raise UsageError(f"--p-list {text!r} names no probability")
    return probs


def _fmt(value, precision: int) -> str:
    """A float or a ``Fraction`` to ``precision`` significant digits, in the layout of ``format(x, 'g')``.

    A ``Fraction`` is rounded from its exact value, half to even, as
    ``format`` rounds the exact value of a float; so a ``Fraction`` that a
    float holds exactly prints as that float does.
    """
    if type(value) is not Fraction:  # isinstance would ask the numbers ABCs, ~70 ns a float row
        return format(float(value), f".{precision}g")
    digits = max(precision, 1)
    num, den = abs(value.numerator), value.denominator
    if num == 0:
        return "0"
    # 2^(bits - 1) < |value| < 2^(bits + 1), so the decimal exponent is exp or exp + 1
    exp = math.floor((num.bit_length() - den.bit_length() - 1) * _LOG10_2)
    if num * 10 ** max(-exp - 1, 0) >= den * 10 ** max(exp + 1, 0):
        exp += 1
    shift = digits - 1 - exp  # the significand is |value| * 10^shift, rounded
    top, bottom = num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0)
    mant, rem = divmod(top, bottom)
    if 2 * rem > bottom or (2 * rem == bottom and mant % 2):
        mant += 1
    if mant == 10 ** digits:  # rounded up to the next power of ten
        mant, exp = mant // 10, exp + 1
    text, sign = str(Decimal(mant)), "-" if value < 0 else ""  # str(int) refuses past 4300 digits
    if -4 <= exp < digits:  # fixed point
        whole, frac = (text[:exp + 1], text[exp + 1:]) if exp >= 0 else ("0", "0" * (-exp - 1) + text)
        frac = frac.rstrip("0")
        return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
    frac = text[1:].rstrip("0")
    return f"{sign}{text[0]}{'.' + frac if frac else ''}e{'-' if exp < 0 else '+'}{abs(exp):02d}"


def _fmt_fixed(value, decimals: int) -> str:
    """Round the exact value of a float or a ``Fraction`` half away from zero to ``decimals`` places."""
    num, den = Fraction(value).as_integer_ratio()
    whole, frac = divmod((2 * abs(num) * 10 ** decimals + den) // (2 * den), 10 ** decimals)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{frac:0{decimals}d}" if decimals else f"{sign}{whole}"


def _write_rows(rows, fieldnames: list[str], fmt: str, out_path: str | None) -> None:
    """Write ``rows``, value tuples in ``fieldnames`` order: CSV streamed row by row, or one JSON list.

    Every field is a number, a probability, a Pauli word or empty, none of
    which needs CSV quoting, so a CSV row is its fields joined by commas.
    """
    if out_path:
        target = open(out_path, "w", encoding="utf-8", newline="")
    else:
        target = contextlib.nullcontext(sys.stdout)
    with target as fh:
        if fmt == "json":
            fh.write(json.dumps([dict(zip(fieldnames, row)) for row in rows], indent=2) + "\n")
        else:
            line = ",".join(["%s"] * len(fieldnames)) + "\n"
            fh.write(line % tuple(fieldnames))
            fh.writelines(line % row for row in rows)


def _prob_str(p) -> str:
    return str(p) if isinstance(p, Fraction) else repr(float(p))


def _checked_pc_curve(n_max: int, p) -> connectivity.PcCurve:
    """P_C(n, p) for n = 1..n_max, the only source of the rows ``pc table`` and ``pc curve`` print.

    A float ``curve.p`` means the float path ran: it gets a note on stderr,
    a nan or infinite value raises FloatingPointError before any row is
    printed, and values outside [0, 1], where it cancels, one warning line.
    """
    curve = connectivity.pc_curve(n_max, p)  # looked up on the module, where tracers wrap it
    if isinstance(curve.p, float):
        print(f"note: P_C at p = {_prob_str(p)} uses the float path (exact only for a rational p "
              f"up to nmax = {connectivity.EXACT_PC_MAX_N})", file=sys.stderr)
        for n, val in curve.rows:
            if not math.isfinite(val):
                raise FloatingPointError(f"P_C({n}) at p = {_prob_str(p)} is {val}: the float path "
                                         "lost all precision there, so no row can be printed")
        out = [n for n, val in curve.rows if not 0 <= val <= 1]
        if out:
            print(f"warning: {len(out)} float P_C values at p = {_prob_str(p)} lie outside [0, 1], "
                  f"n = {out[0]}..{out[-1]}; the float path cancels there, so these rows are wrong",
                  file=sys.stderr)
    return curve


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_pc_table(args) -> int:
    p = _parse_prob(args.p)
    if args.nmax < 2:
        raise UsageError("--nmax must be >= 2")
    curve = _checked_pc_curve(args.nmax, p)
    rows = [(n, _fmt_fixed(val, args.precision)) for n, val in curve.rows[1:]]
    _write_rows(rows, ["n", "p_c"], args.format, args.out)
    return EXIT_OK


def _cmd_pc_curve(args) -> int:
    p_list = _parse_prob_list(args.p_list)
    if args.nmax < 1:
        raise UsageError("--nmax must be >= 1")
    per_p = args.out and "{p}" in args.out
    all_rows = []
    for p in p_list:
        curve = _checked_pc_curve(args.nmax, p)
        rows, ps = [], _prob_str(p)
        for n, val in curve.rows:
            bound = connectivity.lower_bound_pc(n, p) if n >= 2 else ""
            rows.append((n, ps, _fmt(val, args.precision),
                         _fmt(bound, args.precision) if bound != "" else ""))
        if per_p:
            tag = str(p).replace("/", "-")
            _write_rows(rows, ["n", "p", "p_c", "lower_bound"], args.format, args.out.replace("{p}", tag))
        else:
            all_rows.extend(rows)
    if not per_p:
        _write_rows(all_rows, ["n", "p", "p_c", "lower_bound"], args.format, args.out)
    return EXIT_OK


def _cmd_pc_mc(args) -> int:
    p = _parse_prob(args.p, closed=True)
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    est = digraph.estimate_pc_monte_carlo(args.n, p, args.samples, seed=args.seed)
    sampled = digraph.mc_arc_prob(p)  # k / 65536
    if sampled != p:
        print(f"note: pc mc samples each arc at p = {sampled * 65536}/65536 = {float(sampled)!r}, "
              f"the point of its 1/65536 grid nearest p = {_prob_str(p)}", file=sys.stderr)
    row = (args.n, _prob_str(p), est.samples, est.hits, _fmt(est.estimate, args.precision),
           _fmt(est.lo, args.precision), _fmt(est.hi, args.precision), est.confidence, args.seed)
    fields = ["n", "p", "samples", "hits", "estimate", "lo", "hi", "confidence", "seed"]
    _write_rows([row], fields, args.format, args.out)
    return EXIT_OK


def _cmd_pc_bound(args) -> int:
    p = _parse_prob(args.p)
    if args.nmax < 2:
        raise UsageError("--nmax must be >= 2")
    rows = [
        (n, _prob_str(p), _fmt(connectivity.lower_bound_pc(n, p), args.precision))
        for n in range(2, args.nmax + 1)
    ]
    _write_rows(rows, ["n", "p", "lower_bound"], args.format, args.out)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    p_list = _parse_prob_list(args.p_list)
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.rmax < 0:
        raise UsageError("--rmax must be >= 0")
    rows = []
    if args.mode == "dynamic":
        for p in p_list:
            ps = _prob_str(p)
            trace = channels.convergence_trace(args.n, float(p), "dynamic", args.rmax)
            if trace[-1][0] < args.rmax:
                print(f"note: D(r) at p = {ps} ends at r = {trace[-1][0]}: from there on max|mu|^r "
                      "falls below the normal float range", file=sys.stderr)
            rows.extend((ps, r, _fmt(d, args.precision)) for r, d in trace)
    else:
        traces = channels.static_convergence_traces(
            args.n, [float(p) for p in p_list], args.rmax, budget=args.budget, seed=args.seed
        )
        for p in p_list:
            ps = _prob_str(p)
            rows.extend((ps, r, _fmt(d, args.precision)) for r, d in traces[float(p)])
    _write_rows(rows, ["p", "r", "distance"], args.format, args.out)
    return EXIT_OK


def _cmd_asymptote(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.n > 10:
        raise CostGuardError("asymptotic state refused for n > 10 (4^n coefficients)")
    n = args.n
    named = {"zero": channels.state_zero, "plus": channels.state_plus, "mixed": channels.state_mixed}
    if args.state in named:
        rho = named[args.state](n)
    else:
        with open(args.state, encoding="utf-8") as fh:
            coeffs = json.load(fh, parse_int=float)  # an integer too large for a float reads as inf
        if not (isinstance(coeffs, list) and len(coeffs) == 4 ** n
                and all(type(c) is float and math.isfinite(c) for c in coeffs)):
            raise UsageError(f"coefficient file must hold a flat JSON array of {4 ** n} finite "
                             f"numbers for n={n}")
        rho = np.array(coeffs)
    sigma = channels.asymptotic_state(n, rho)
    _write_rows(_coefficient_rows(sigma, n, args.precision), ["index", "word", "coefficient"],
                args.format, args.out)
    return EXIT_OK


def _coefficient_rows(sigma: np.ndarray, n: int, precision: int):
    """Yield (index, word, coefficient) rows, formatting each distinct coefficient once.

    Coefficients are told apart by their bits, so -0.0 keeps its sign; the
    words are built 2^16 rows at a time.
    """
    chunk = 1 << 16
    bits, inverse = np.unique(sigma.view(np.int64), return_inverse=True)
    text = np.array([_fmt(float(c), precision) for c in bits.view(np.float64)], dtype=object)
    for lo in range(0, len(sigma), chunk):
        idx = np.arange(lo, min(lo + chunk, len(sigma)))
        yield from zip(idx.tolist(), channels.index_words(idx, n).tolist(), text[inverse[idx]].tolist())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_io_flags(sp, precision=6):
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--precision", type=int, default=precision, help="output digits")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="randqnet",
        description="Strong connectivity of random digraphs and random CNOT network dynamics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("pc", help="strong-connectivity probabilities")
    pcsub = pc.add_subparsers(dest="subcommand", required=True)

    t = pcsub.add_parser("table", help="P_C(n, p) for n = 2..nmax: exact for a rational p "
                         f"up to nmax = {connectivity.EXACT_PC_MAX_N}, binary64 floats otherwise")
    t.add_argument("--nmax", type=int, default=7)
    t.add_argument("--p", default="1/2")
    _add_io_flags(t, precision=4)
    t.set_defaults(func=_cmd_pc_table)

    c = pcsub.add_parser("curve", help="P_C and its lower bound over a p list")
    c.add_argument("--nmax", type=int, default=50)
    c.add_argument("--p-list", dest="p_list", default="2/3,1/2,3/7,2/5,1/3,1/5")
    _add_io_flags(c)
    c.set_defaults(func=_cmd_pc_curve)

    m = pcsub.add_parser("mc", help="Monte Carlo estimate with Wilson interval")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--p", default="1/2")
    m.add_argument("--samples", type=int, default=10 ** 6)
    m.add_argument("--seed", type=int, default=DEFAULT_SEED)
    m.add_argument("--threads", type=int, default=1,
                   help="accepted (>= 1) for old command lines; starts no thread, the chunks run in turn")
    _add_io_flags(m)
    m.set_defaults(func=_cmd_pc_mc)

    b = pcsub.add_parser("bound", help="exponential lower bound on P_C")
    b.add_argument("--nmax", type=int, default=50)
    b.add_argument("--p", default="1/2")
    _add_io_flags(b)
    b.set_defaults(func=_cmd_pc_bound)

    ev = sub.add_parser("evolve", help="distance of iterated channels to the asymptotic map")
    evsub = ev.add_subparsers(dest="subcommand", required=True)
    for name in ("dynamic", "static"):
        e = evsub.add_parser(name)
        e.add_argument("--n", type=int, default=4)
        e.add_argument("--p-list", dest="p_list", default="0.2,0.4,0.6,0.8,0.95")
        e.add_argument("--rmax", type=int, default=160 if name == "static" else 1000)
        if name == "static":
            e.add_argument("--budget", type=int, default=10 ** 4,
                           help=f"graphs drawn per p above n={channels.STATIC_EXHAUSTIVE_MAX_N}")
            e.add_argument("--seed", type=int, default=DEFAULT_SEED)
        _add_io_flags(e)
        e.set_defaults(func=_cmd_evolve, mode=name)

    a = sub.add_parser("asymptote", help="Pauli coefficients of the asymptotic state")
    a.add_argument("--n", type=int, default=4)
    a.add_argument("--state", default="zero", help="zero | plus | mixed | coefficient file (JSON)")
    _add_io_flags(a)
    a.set_defaults(func=_cmd_asymptote)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.precision < 0:
            raise UsageError("--precision must be >= 0")
        return args.func(args)
    except CostGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_COST
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
