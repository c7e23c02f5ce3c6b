"""Correctness gate for benchmark operations.

Every answer checked here comes from outside the code under test:

* the paper's closed forms for the standard families r = u,
  m = (0, ..., 0, t): upper numbers (u, ..., u, u + t p^(2n)), lower numbers
  b = (u, ..., u, t p^(4n) + u), generator valuation v_top = -b_top, group
  order p^(2n+1), and the scaffold precision
  t p^(4n) + u - 2u p^(2n) (H) or t p^(4n) + u - u p^(2n+1) (M);
* the different recomputed from b by the Hilbert formula;
* the rho-rule for the Galois-module verdict;
* the Herbrand lower <-> upper conversion, written out again here, and its
  round trip;
* the digit formula for the shift table and the bijection it induces;
* SHA-256 digests of the canonical JSON of every operation, recorded by
  ``record_digests.py`` (JSON output must stay byte-identical).

``check`` returns a list of problems; an empty list means the operation
passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

EXIT_OK = 0
EXIT_HYPOTHESES = 2


# -- closed forms --------------------------------------------------------------


def family_upper(p: int, n: int, u: int, t: int) -> list[int]:
    return [u] * (2 * n) + [u + t * p ** (2 * n)]


def family_lower(p: int, n: int, u: int, t: int) -> list[int]:
    return [u] * (2 * n) + [t * p ** (4 * n) + u]


def scaffold_precision(variant: str, p: int, n: int, u: int, t: int) -> int:
    if variant == "H":
        return t * p ** (4 * n) + u - 2 * u * p ** (2 * n)
    return t * p ** (4 * n) + u - u * p ** (2 * n + 1)


def hilbert_sum(p: int, b: list[int]) -> int:
    """Valuation of the different from the lower breaks."""
    return sum(p ** sum(1 for x in b if x >= i) - 1 for i in range(max(b) + 1))


def gms_rule(p: int, n: int, c: int, u1: int) -> str:
    """The rho-rule: free-and-hopf, free or no-conclusion."""
    k = 2 * n + 1
    rho = u1 % p**k
    if rho == p**k - 1 and c >= 2 * p**k - 1:
        return "free-and-hopf"
    if c >= rho and any((p**m - 1) % rho == 0 for m in range(1, k + 1)):
        return "free"
    return "no-conclusion"


def herbrand_upper(p: int, lower: list) -> list[Fraction]:
    out = [Fraction(lower[0])]
    for i in range(1, len(lower)):
        out.append(out[-1] + Fraction(lower[i] - lower[i - 1], p**i))
    return out


def herbrand_lower(p: int, upper: list) -> list[Fraction]:
    out = [Fraction(upper[0])]
    for i in range(1, len(upper)):
        out.append(out[-1] + p**i * (Fraction(upper[i]) - Fraction(upper[i - 1])))
    return out


def shift_value(p: int, b: list[int], s: int) -> int:
    """sum_i s_(k-i) p^(k-i) b_i over the base-p digits s_j of s."""
    k = len(b)
    digits = [(s // p**j) % p for j in range(k)]
    return sum(digits[k - i] * p ** (k - i) * b[i - 1] for i in range(1, k + 1))


# -- digests ---------------------------------------------------------------------


def argv_key(argv) -> str:
    return " ".join(argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


# -- per-command expectations -------------------------------------------------------


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_oracle(q: dict, d: dict, problems: list) -> None:
    v, p, n, u, t = q["variant"], q["p"], q["n"], q["u"], q["t"]
    b = family_lower(p, n, u, t)
    _expect(problems, "passed", d["passed"], True)
    _expect(problems, "params", [d["params"][k] for k in ("variant", "p", "n")], [v, p, n])
    _expect(problems, "plan.b", d["plan"]["b"], b)
    _expect(problems, "plan.u", d["plan"]["u"], family_upper(p, n, u, t))
    _expect(problems, "predicted_b", d["predicted_b"], b)
    _expect(problems, "measured_b", d["measured_b"], b)
    _expect(problems, "filtration.lower_multiset", d["filtration"]["lower_multiset"], b)
    _expect(problems, "generator.vtop", d["generator"]["vtop"], -b[-1])
    _expect(problems, "filtration.different_val", d["filtration"]["different_val"],
            hilbert_sum(p, b))
    _expect(problems, "filtration.hilbert_sum", d["filtration"]["hilbert_sum"],
            hilbert_sum(p, b))
    _expect(problems, "group.order", d["group"]["order"], p ** (2 * n + 1))
    c = scaffold_precision(v, p, n, u, t)
    _expect(problems, "plan.cfrak", d["plan"]["cfrak"], c)
    _expect(problems, "scaffold.cfrak", d["scaffold"]["cfrak"], c)


def _check_plan(q: dict, d: dict, problems: list, mode: str, e0) -> None:
    v, p, n, u, t = q["variant"], q["p"], q["n"], q["u"], q["t"]
    _expect(problems, "header", [d[k] for k in ("variant", "p", "n", "mode", "e0")],
            [v, p, n, mode, e0])
    _expect(problems, "u", d["u"], family_upper(p, n, u, t))
    _expect(problems, "b", d["b"], family_lower(p, n, u, t))
    if q["certified"]:
        c = scaffold_precision(v, p, n, u, t)
        _expect(problems, "verdict", d["verdict"], "scaffold-certified")
        _expect(problems, "cfrak", d["cfrak"], c)
        _expect(problems, "gms", d["gms"], gms_rule(p, n, c, u))
    else:
        _expect(problems, "verdict", d["verdict"], "hypotheses-fail")
        _expect(problems, "cfrak", d["cfrak"], "not-applicable")
        _expect(problems, "gms", d["gms"], "no-conclusion")


def _check_verdict(q: dict, d: dict, problems: list) -> None:
    p, n, c, u1 = q["p"], q["n"], q["c"], q["u1"]
    _expect(problems, "echo", [d[k] for k in ("p", "n", "cfrak", "u1")], [p, n, c, u1])
    _expect(problems, "rho", d["rho"], u1 % p ** (2 * n + 1))
    _expect(problems, "gms", d["gms"], gms_rule(p, n, c, u1))


def _check_ram_convert(q: dict, d: dict, problems: list) -> None:
    p = q["p"]
    lower = [Fraction(x) for x in d["lower"]]  # JSON int or "a/b"
    upper = [Fraction(x) for x in d["upper"]]
    _expect(problems, "lower", lower, q["lower"])
    _expect(problems, "upper", upper, q["upper"])
    # lower -> upper -> lower round trip through the Herbrand formulas
    _expect(problems, "lower -> upper", herbrand_upper(p, lower), upper)
    _expect(problems, "upper -> lower", herbrand_lower(p, upper), lower)
    _expect(problems, "inequalities", d["inequalities"]["all_hold"], True)


def _check_ram_tables(q: dict, d: dict, problems: list) -> None:
    p, b = q["p"], q["b"]
    pk = p ** len(b)
    _expect(problems, "b", d["b"], b)
    shift = d["shift"]
    _expect(problems, "shift", shift, [shift_value(p, b, s) for s in range(pk)])
    inverse = d["inverse"]
    if len(inverse) != pk or any(inverse[(-shift[s]) % pk] != s for s in range(pk)):
        problems.append("inverse is not the inverse of s -> -shift(s) mod p^k")


_CHECKS = {
    "oracle": _check_oracle,
    "verdict": _check_verdict,
    "ram-convert": _check_ram_convert,
    "ram-tables": _check_ram_tables,
}


def check(op, code: int, stdout: str, digests: dict | None = None) -> list[str]:
    """Problems with one operation's exit code and JSON output."""
    problems: list[str] = []
    _expect(problems, "exit code", code, op.expect_exit)
    try:
        d = json.loads(stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    try:
        if op.kind == "example":
            _check_plan(op.query, d, problems, "simple", op.query["e0"])
        elif op.kind == "plan":
            _check_plan(op.query, d, problems, "full", op.query["e0"])
        else:
            _CHECKS[op.kind](op.query, d, problems)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"report is missing a field: {exc!r}")
    if digests is not None:
        want = digests.get(argv_key(op.argv))
        if want is None:
            problems.append("no recorded digest for this argv")
        elif want != {"exit": code, "sha256": digest(stdout)}:
            problems.append("canonical JSON differs from the recorded digest")
    return problems
