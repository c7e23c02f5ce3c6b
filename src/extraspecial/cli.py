"""Command-line front end.

Subcommands: plan, verdict, example, ram (convert | tables),
oracle (verify).  Exit codes: 0 for certified/verified outcomes and for an
explicit no-conclusion, 1 for malformed input, 2 for hypothesis failure,
3 for precision failure.  A reader that closes standard output early ends
the command with exit 1 and no message, as Python itself exits on EPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .localfield import ConstructionError, PlanRejection
from .oracle import OracleMismatch, verify_family
from .planner import (TowerParams, _is_odd_prime, example_family, family_field, gms_verdict,
                      plan)
from .ramification import RamSequence, build_shift_tables, check_ram_inequalities
from .valuation import PrecisionError, parse_extended

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESES = 2
EXIT_PRECISION = 3


class CliError(Exception):
    """Malformed input; maps to exit 1."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from exc


def _validate_p_n(p: int, n: int | None = None) -> None:
    if not _is_odd_prime(p):
        raise CliError(f"p = {p} is not an odd prime")
    if n is not None and n < 1:
        raise CliError(f"n = {n} must be >= 1")


def emit(report: dict, output: str, text_renderer) -> None:
    # canonical JSON: insertion order preserved, two-space indent
    if output == "json":
        print(json.dumps(report, indent=2))
    else:
        text_renderer(report)


# -- text renderers ----------------------------------------------------------


def _render_plan(d: dict) -> None:
    print(f"variant {d['variant']}  p={d['p']} n={d['n']}  mode={d['mode']}  "
          f"e0={d['e0']}  q={d['q']}")
    print(f"u = {d['u']}")
    print(f"b = {d['b']}")
    asr = d["as_conditions"]
    print("reduced-constant conditions: "
          + ", ".join(f"{k}={asr[k]}" for k in ("i_range", "ii_coprime",
                                                "iii_independent", "iv_tail")))
    for c in d["checks"]:
        mark = "ok " if c["holds"] else "FAIL"
        print(f"  [{mark}] {c['id']}: {c['text']}  (slack {c['slack']})")
    print(f"precision: {d['cfrak']}")
    print(f"verdict: {d['verdict']}")
    print(f"module verdict: {d['gms']}")
    for note in d.get("notes", []):
        print(f"note: {note}")


def _render_oracle(d: dict) -> None:
    print(f"tower {d['params']['variant']} p={d['params']['p']} n={d['params']['n']} "
          f"q={d['params']['q']} prec={d['prec']}")
    print(f"group: order {d['group']['order']}, generator orders {d['group']['gen_orders']}")
    print(f"generator valuation: measured {d['generator']['vtop']}, "
          f"predicted {d['generator']['vtop_predicted']}")
    print(f"lower breaks: predicted {d['predicted_b']}, measured {d['measured_b']} "
          f"-> match: {d['b_match']}")
    print(f"different: {d['filtration']['different_val']}")
    print(f"scaffold: min row contribution {d['scaffold']['min_contribution']} "
          f">= precision {d['scaffold']['cfrak']}: {d['scaffold']['ok']}")
    print(f"elementary layers ok: {d['layers']['ok']}")
    print(f"PASS: {d['passed']}")


def _render_ram_convert(d: dict) -> None:
    print(f"lower = {d['lower']}")
    print(f"upper = {d['upper']}")
    print(f"inequalities hold: {d['inequalities']['all_hold']}")


def _render_tables(d: dict) -> None:
    print(f"p={d['p']} n={d['n']} b={d['b']}")
    print(f"shift:   {d['shift']}")
    print(f"inverse: {d['inverse']}")


def _render_verdict(d: dict) -> None:
    print(f"precision {d['cfrak']}, u1 = {d['u1']}, residue {d['rho']}")
    print(f"verdict: {d['gms']}")


# -- command implementations ---------------------------------------------------


def _cmd_plan(args) -> int:
    _validate_p_n(args.p, args.n)
    field = family_field(args.p, args.n, args.q)
    leads = tuple(field.parse_element(x) for x in args.leads.split(","))
    params = TowerParams(
        p=args.p, n=args.n, variant=args.variant,
        e0=parse_extended(args.e0), r=args.r,
        m=tuple(_int_list(args.m)), leads=leads, field=field,
    )
    report = plan(params, mode=args.mode)
    emit(report.to_dict(), args.output, _render_plan)
    return EXIT_OK if report.certified else EXIT_HYPOTHESES


def _cmd_example(args) -> int:
    _validate_p_n(args.p, args.n)
    report = example_family(args.p, args.n, args.u, args.t, args.variant)
    emit(report.to_dict(), args.output, _render_plan)
    return EXIT_OK if report.certified else EXIT_HYPOTHESES


def _cmd_verdict(args) -> int:
    _validate_p_n(args.p, args.n)
    verdict = gms_verdict(args.p, args.n, args.c, args.u1)
    d = {
        "schema": 1,
        "p": args.p,
        "n": args.n,
        "cfrak": args.c,
        "u1": args.u1,
        "rho": args.u1 % args.p ** (2 * args.n + 1),
        "gms": verdict,
    }
    emit(d, args.output, _render_verdict)
    return EXIT_OK


def _cmd_ram_convert(args) -> int:
    _validate_p_n(args.p)
    if (args.lower is None) == (args.upper is None):
        raise CliError("exactly one of --lower/--upper is required")
    if args.lower is not None:
        seq = RamSequence.from_lower(args.p, _int_list(args.lower))
    else:
        seq = RamSequence.from_upper(args.p, _int_list(args.upper))
    ineq = check_ram_inequalities(seq)
    d = {"schema": 1}
    d.update(seq.to_dict())
    d["inequalities"] = ineq.to_dict()
    emit(d, args.output, _render_ram_convert)
    return EXIT_OK


def _cmd_ram_tables(args) -> int:
    _validate_p_n(args.p, args.n)
    tables = build_shift_tables(args.p, args.n, _int_list(args.b))
    d = {"schema": 1}
    d.update(tables.to_dict())
    emit(d, args.output, _render_tables)
    return EXIT_OK


def _cmd_oracle_verify(args) -> int:
    _validate_p_n(args.p, args.n)
    report = verify_family(args.variant, args.p, args.n, args.u, args.t,
                           q=args.q, prec=args.prec)
    emit(report.to_dict(), args.output, _render_oracle)
    return EXIT_OK if report.passed else EXIT_HYPOTHESES


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extraspecial",
        description="Plan, certify, and brute-force-verify totally ramified "
                    "extraspecial p-group extensions of local fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", choices=("text", "json"), default="text")

    sp = sub.add_parser("plan", help="certify explicit tower parameters")
    sp.add_argument("--variant", choices=("H", "M"), required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--e0", default="inf")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--m", required=True, help="comma-separated m_1..m_(2n+1)")
    sp.add_argument("--leads", required=True,
                    help="comma-separated residue leading coefficients of the omega_i")
    sp.add_argument("--q", type=int, default=None, help="residue cardinality (default p^(2n))")
    sp.add_argument("--mode", choices=("full", "simple"), default="full")
    add_output(sp)
    sp.set_defaults(fn=_cmd_plan)

    sp = sub.add_parser("example", help="plan one member of the standard families")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--variant", choices=("H", "M"), required=True)
    add_output(sp)
    sp.set_defaults(fn=_cmd_example)

    sp = sub.add_parser("verdict", help="module-structure verdict from a precision")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=int, required=True, help="scaffold precision")
    sp.add_argument("--u1", type=int, required=True)
    add_output(sp)
    sp.set_defaults(fn=_cmd_verdict)

    ram = sub.add_parser("ram", help="ramification-number tools")
    ram_sub = ram.add_subparsers(dest="ram_command", required=True)
    sp = ram_sub.add_parser("convert", help="convert lower <-> upper numbers")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lower", default=None)
    sp.add_argument("--upper", default=None)
    add_output(sp)
    sp.set_defaults(fn=_cmd_ram_convert)
    sp = ram_sub.add_parser("tables", help="digit-shift tables for integer breaks")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", required=True, help="comma-separated lower numbers")
    add_output(sp)
    sp.set_defaults(fn=_cmd_ram_tables)

    orc = sub.add_parser("oracle", help="concrete char-p verification")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    sp = orc_sub.add_parser("verify", help="build a family tower and verify it")
    sp.add_argument("--variant", choices=("H", "M"), required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--prec", type=int, default=None,
                    help="checked (must be positive) and echoed into the report's prec; "
                         "no stage takes a window (default max(64, 4*max(u_top, b_top)))")
    add_output(sp)
    sp.set_defaults(fn=_cmd_oracle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize to 1
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # the one place exceptions become exit codes; PlanRejection is a
    # ValueError, so it is caught first.  The report is flushed here, so a
    # closed reader raises inside the handler, not at interpreter exit.
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: later flushes write to devnull, and the exit
        # status is Python's own on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PlanRejection as exc:
        print(f"hypotheses fail: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (OracleMismatch, ConstructionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES


if __name__ == "__main__":
    sys.exit(main())
