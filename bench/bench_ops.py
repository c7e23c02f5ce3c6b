"""Workloads of the benchmark: fixed sets of CLI operations.

An operation is one argv for ``extraspecial.cli.main`` with ``--output json``,
plus the query it encodes (for the correctness gate) and the exit code the
closed forms predict.  A workload is a fixed multiset of operations; one pass
runs each of them once, in an order drawn from the seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

from bench_gate import EXIT_HYPOTHESES, EXIT_OK, family_lower, family_upper, scaffold_precision

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no extraspecial sources next to the benchmark."""


def ensure_source() -> Path:
    """Put the checkout's ``src`` first on sys.path and import the package
    from there, never from an installed copy."""
    if not (SRC / "extraspecial" / "__init__.py").is_file():
        raise SourceMissing(f"no extraspecial package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import extraspecial
    if Path(extraspecial.__file__).resolve().parent != (SRC / "extraspecial").resolve():
        raise SourceMissing(f"extraspecial imported from {extraspecial.__file__}, not {SRC}")
    return SRC


@dataclass(frozen=True)
class Op:
    kind: str            # oracle | example | plan | verdict | ram-convert | ram-tables
    label: str           # instance (oracle) or command kind; the per-kind statistics key
    argv: tuple[str, ...]
    query: dict
    expect_exit: int


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    fields: tuple[tuple[int, int], ...]   # residue fields (p, d) built at set-up
    warm_pass: bool                       # run one gated pass before timing

    def order(self, seed: int, tag: str) -> list[Op]:
        return random.Random(f"{self.name}/{seed}/{tag}").sample(self.ops, len(self.ops))


# -- oracle workloads ------------------------------------------------------------


def instance_label(variant: str, p: int, n: int) -> str:
    return f"{variant}-{p}-{n}"


def oracle_op(variant: str, p: int, n: int, u: int = 1, t: int = 1) -> Op:
    argv = ("oracle", "verify", "--variant", variant, "--p", str(p), "--n", str(n),
            "--u", str(u), "--t", str(t), "--output", "json")
    query = {"variant": variant, "p": p, "n": n, "u": u, "t": t}
    return Op("oracle", instance_label(variant, p, n), argv, query, EXIT_OK)


LADDER = (("H", 3, 1), ("M", 3, 1), ("H", 3, 2), ("M", 3, 2), ("H", 5, 1), ("M", 5, 1))
P7 = (("H", 7, 1),)
ORACLE_INSTANCES = tuple(instance_label(*x) for x in LADDER + P7)
ORACLE_STAGES = ("build", "generators", "group", "structure", "generator",
                 "filtration", "scaffold", "layers")


# -- planner-cli ------------------------------------------------------------------


def _leads(n: int) -> str:
    powers = ["1", "g"] + [f"g^{i}" for i in range(2, 2 * n)]
    return ",".join(powers[:2 * n] + ["1"])


def failing_u(variant: str, p: int, n: int, t: int = 1) -> int:
    """Smallest u prime to p whose closed-form scaffold precision is < 1."""
    u = 1
    while u % p == 0 or scaffold_precision(variant, p, n, u, t) >= 1:
        u += 1
    return u


def _plan_ops(variant: str, p: int, n: int) -> list[Op]:
    ops = []
    uf = failing_u(variant, p, n)
    pn = ("--p", str(p), "--n", str(n))
    for u, t in ((1, 1), (2, 1), (1, 2), (uf, 1)):
        certified = scaffold_precision(variant, p, n, u, t) >= 1
        code = EXIT_OK if certified else EXIT_HYPOTHESES
        base = {"variant": variant, "p": p, "n": n, "u": u, "t": t, "certified": certified}
        utop = family_upper(p, n, u, t)[-1]
        ops.append(Op("example", "example",
                      ("example", *pn, "--u", str(u), "--t", str(t), "--variant", variant,
                       "--output", "json"),
                      {**base, "e0": utop}, code))
        m = ",".join(["0"] * (2 * n) + [str(t)])
        # e0 = inf; a large finite e0 (no e0 inequality binds); e0 = u (H3/M3 fail)
        e0s = [("inf", certified)]
        if t == 1 and u in (1, uf):
            e0s.append((2 * utop, certified))
        if (u, t) == (1, 1):
            e0s.append((u, False))
        for e0, cert in e0s:
            ops.append(Op("plan", "plan-inf" if e0 == "inf" else "plan-e0",
                          ("plan", "--variant", variant, *pn, "--e0", str(e0), "--r", str(u),
                           "--m", m, "--leads", _leads(n), "--mode", "full", "--output", "json"),
                          {**base, "certified": cert, "e0": e0},
                          EXIT_OK if cert else EXIT_HYPOTHESES))
    return ops


def _field_ops(p: int, n: int) -> list[Op]:
    ops = []
    k = 2 * n + 1
    pn = ("--p", str(p), "--n", str(n))
    verdicts = ((scaffold_precision("H", p, n, 1, 1), 1), (2 * p**k - 1, p**k - 1), (1, 2))
    for c, u1 in verdicts:
        ops.append(Op("verdict", "verdict",
                      ("verdict", *pn, "--c", str(c), "--u1", str(u1), "--output", "json"),
                      {"p": p, "n": n, "c": c, "u1": u1}, EXIT_OK))
    lower, upper = family_lower(p, n, 1, 1), family_upper(p, n, 1, 1)
    q = {"p": p, "lower": lower, "upper": upper}
    for flag, seq in (("--lower", lower), ("--upper", upper)):
        ops.append(Op("ram-convert", "ram-convert",
                      ("ram", "convert", "--p", str(p), flag, ",".join(map(str, seq)),
                       "--output", "json"), q, EXIT_OK))
    if p**k <= 343:
        ops.append(Op("ram-tables", "ram-tables",
                      ("ram", "tables", "--p", str(p), "--n", str(k),
                       "--b", ",".join(map(str, lower)), "--output", "json"),
                      {"p": p, "b": lower}, EXIT_OK))
    return ops


def planner_ops() -> tuple[Op, ...]:
    ops = []
    for p in (3, 5, 7):
        for n in (1, 2):
            for variant in ("H", "M"):
                ops.extend(_plan_ops(variant, p, n))
            ops.extend(_field_ops(p, n))
    return tuple(ops)


_ALL_FIELDS = ((3, 2), (3, 4), (5, 2), (5, 4), (7, 2), (7, 4))

WORKLOADS = {
    "oracle-ladder": Workload("oracle-ladder", tuple(oracle_op(*x) for x in LADDER),
                              ((3, 2), (3, 4), (5, 2)), warm_pass=False),
    "oracle-p7": Workload("oracle-p7", tuple(oracle_op(*x) for x in P7),
                          ((7, 2),), warm_pass=False),
    "planner-cli": Workload("planner-cli", planner_ops(), _ALL_FIELDS, warm_pass=True),
}


def all_ops() -> list[Op]:
    """Every distinct operation any workload can run (the digest set)."""
    seen = {}
    for w in WORKLOADS.values():
        for op in w.ops:
            seen.setdefault(op.argv, op)
    return list(seen.values())
