"""Benchmark of extraspecial through its public CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``bench_ops.py``): ``oracle-ladder``, ``oracle-p7`` and
``planner-cli``.  Each is a closed loop in one process with no threads: one
``extraspecial.cli.main(argv)`` call at a time, each started after the
previous one returned, every output checked by the gate in ``bench_gate.py``.

A run measures set-up in fresh processes (``setup_probe.py``), half of
them before and half after the timed passes, and reports their median.  It
gets ready itself: imports the package from the checkout's ``src``, builds
the workload's residue fields with their lazy tables and, for planner-cli,
runs one gated pass so that lazy field memos are filled.  Then it times
whole passes for about ``--seconds``; a pass runs every operation of the
workload once, in an order drawn from ``--seed``.

``--trace 0`` prints the end-to-end metrics.  Their times are wall times
divided by a host-speed factor (``host_speed.py``, sampled every 25 ms
while the passes run): each operation by the factor sampled from 0.1 s
before it to 0.1 s after it, set-up by the run's.  So they read as seconds
at a fixed reference speed; the raw wall times and the run's factor are
printed above the result line.  Each is taken over the whole timed window:
``pass_s`` is the mean pass, ``op_kind_s.geomean`` the geometric mean of
each instance's or command's mean.

``--trace 1`` times untraced passes for half the budget, then runs one pass
under the outside-in tracer (``bench_trace.py``), prints the per-layer
metrics and writes the spans to ``bench/.trace/``.  The host-speed sampler
runs throughout: ``verdict_s``, ``cli_op_s`` and ``trace.overhead_frac``
use times at the reference speed; the tracer's stage and self times are raw
and include the sampler's share (about 1%).  The last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_gate
from bench_ops import (ORACLE_INSTANCES, ORACLE_STAGES, SRC, SourceMissing, Workload,
                       WORKLOADS, ensure_source)
from bench_trace import Tracer
from host_speed import HostSpeed

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / ".trace"
SETUP_RUNS = 10

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("cli_op_s.p50", "s", "lower"),
    ("op_kind_s.geomean", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_COUNTED = ("valuation.series_add", "valuation.series_inverse", "localfield.elt_valuation",
            "localfield.tower_mul", "localfield.galois_apply", "localfield.galois_compose")


def _per_layer() -> tuple:
    out = [(f"verdict_s.{i}", "s", "lower") for i in ORACLE_INSTANCES]
    # a tail percentile has ten samples beyond it only on planner-cli (about
    # four on oracle-ladder, none on oracle-p7), so it is reported without a bound
    out += [("cli_op_s.p90", "s", "lower"), ("cli_op_s.p99", "s", "lower"),
            ("cli_op_s.samples", "count", "higher")]
    out += [(f"oracle.{s}_s.{i}", "s", "lower") for i in ORACLE_INSTANCES for s in ORACLE_STAGES]
    out += [("oracle.attempts_per_verdict", "ratio", "lower"),
            ("valuation.series_mul.calls", "count", "lower"),
            ("valuation.series_mul.pair_ops", "count", "lower"),
            ("valuation.series_mul.self_s", "s", "lower"),
            ("valuation.series_mul.ns_per_pair", "ns", "lower")]
    for layer in _COUNTED:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [("valuation.field_setup_s", "s", "lower"),
            ("detval.ring_det.calls", "count", "lower"),
            ("detval.ring_det.expansions", "count", "lower"),
            ("detval.ring_det.self_s", "s", "lower"),
            ("planner.plan.calls", "count", "lower"),
            ("planner.plan.self_s", "s", "lower"),
            ("artin_schreier.validate_reduced_AS.self_s", "s", "lower"),
            ("ramification.convert.self_s", "s", "lower"),
            ("ramification.build_shift_tables.self_s", "s", "lower"),
            ("cli.build_parser.self_s", "s", "lower"),
            ("cli.emit.self_s", "s", "lower"),
            ("cli.main.calls", "count", "higher"),
            ("trace.overhead_frac", "ratio", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


# -- running operations -----------------------------------------------------------


def run_op(op):
    """Run one operation in-process; returns (seconds, exit code, stdout, error)."""
    import extraspecial.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code, error = cli.main(list(op.argv)), None
        except (Exception, SystemExit) as exc:
            code, error = None, exc
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), error


class Runner:
    """Runs passes, gates every operation and keeps the samples."""

    def __init__(self, workload: Workload, digests: dict):
        self.workload = workload
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, ops, tracer: Tracer | None = None,
                 host: HostSpeed | None = None) -> list[tuple[str, float, float, float]]:
        """One (label, wall seconds, start, end) per operation; with ``host``
        the sampler's time is taken out of the seconds."""
        samples = []
        for op in ops:
            if tracer is not None:
                tracer.op = op.label
            spent = host.spent if host is not None else 0.0
            start = time.perf_counter()
            dt, code, stdout, error = run_op(op)
            end = time.perf_counter()
            if host is not None:
                dt -= host.spent - spent
            self.attempted += 1
            problems = ([f"raised {error!r}"] if error is not None
                        else bench_gate.check(op, code, stdout, self.digests))
            if problems:
                self.failed += 1
                self.problems.append(f"{bench_gate.argv_key(op.argv)}: {'; '.join(problems)}")
            samples.append((op.label, dt, start, end))
        return samples

    def timed(self, seed: int, budget: float, tag: str,
              host: HostSpeed | None = None) -> list[list[tuple[str, float, float, float]]]:
        """Whole passes while the next one is expected to fit the budget
        (at least one)."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(self.workload.order(seed, f"{tag}{len(passes)}"),
                                        host=host))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > budget:
                return passes


def op_times(passes, host: HostSpeed | None = None) -> list[list[tuple[str, float]]]:
    """(label, seconds) per operation of each pass: raw wall times or, with
    ``host``, times at the reference speed, each divided by the host-speed
    factor sampled around it (the run's if none was)."""
    if host is None:
        return [[(label, dt) for label, dt, _, _ in samples] for samples in passes]
    run = host.factor()
    return [[(label, dt / (host.factor(start, end) or run)) for label, dt, start, end in samples]
            for samples in passes]


def pass_s(samples) -> float:
    return sum(dt for _, dt in samples)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def by_label(passes) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for samples in passes:
        for label, dt in samples:
            out.setdefault(label, []).append(dt)
    return out


# -- set-up ----------------------------------------------------------------------------


def measure_setup(workload: Workload, runs: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes importing the CLI and building the
    workload's fields, and the field-building part of each."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += [f"{p},{d}" for p, d in workload.fields]
    walls, fields = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        fields.append(json.loads(proc.stdout.splitlines()[-1])["field_setup_s"])
    return walls, fields


# -- metrics -------------------------------------------------------------------------------


def end_to_end(setup: float, passes) -> dict[str, float]:
    """Means, not medians, over passes and per kind: the host drifts on the
    scale of a pass.

    ``cli_op_s.p50`` is the median over passes of each pass's median
    operation.  On oracle-ladder, whose six instances fall in two groups of
    three, the median of all samples is the mean of one instance's slowest
    and another's fastest verify; per pass it is the middle of the gap."""
    kinds = by_label(passes)
    return {
        "setup_s": setup,
        "pass_s": statistics.fmean(pass_s(x) for x in passes),
        "cli_op_s.p50": statistics.median(
            statistics.median(dt for _, dt in samples) for samples in passes),
        "op_kind_s.geomean": statistics.geometric_mean(
            statistics.fmean(v) for v in kinds.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(field_setup: float, untraced, traced, tracer: Tracer) -> dict[str, float]:
    st = tracer.stats
    out: dict[str, float] = {}
    verdicts = by_label(untraced)
    for inst in ORACLE_INSTANCES:
        out[f"verdict_s.{inst}"] = statistics.median(verdicts.get(inst, [0.0]))
    ops = [dt for samples in untraced for _, dt in samples]
    out["cli_op_s.p90"] = percentile(ops, 0.90)
    out["cli_op_s.p99"] = percentile(ops, 0.99)
    out["cli_op_s.samples"] = len(ops)
    stage_s = {}
    for name, start, end, _parent, op in tracer.spans:
        if name.startswith("oracle.") and name != "oracle.verify_tower":
            key = f"{name}_s.{op}"
            stage_s[key] = stage_s.get(key, 0.0) + (end - start)
    for inst in ORACLE_INSTANCES:
        for stage in ORACLE_STAGES:
            key = f"oracle.{stage}_s.{inst}"
            out[key] = stage_s.get(key, 0.0)
    verifies = st["oracle.verify_tower"].calls
    out["oracle.attempts_per_verdict"] = st["oracle.build"].calls / verifies if verifies else 0.0
    mul = st["valuation.series_mul"]
    out["valuation.series_mul.calls"] = mul.calls
    out["valuation.series_mul.pair_ops"] = mul.pair_ops
    out["valuation.series_mul.self_s"] = mul.self_s
    out["valuation.series_mul.ns_per_pair"] = 1e9 * mul.self_s / mul.pair_ops if mul.pair_ops else 0.0
    for layer in _COUNTED:
        out[f"{layer}.calls"] = st[layer].calls
        out[f"{layer}.self_s"] = st[layer].self_s
    out["valuation.field_setup_s"] = field_setup
    out["detval.ring_det.calls"] = st["detval.ring_det"].calls
    out["detval.ring_det.expansions"] = tracer.expansions
    out["detval.ring_det.self_s"] = st["detval.ring_det"].self_s
    out["planner.plan.calls"] = st["planner.plan"].calls
    for layer in ("planner.plan", "artin_schreier.validate_reduced_AS", "ramification.convert",
                  "ramification.build_shift_tables", "cli.build_parser", "cli.emit"):
        out[f"{layer}.self_s"] = st[layer].self_s
    out["cli.main.calls"] = st["cli.main"].calls
    out["trace.overhead_frac"] = (pass_s(traced) / statistics.fmean(pass_s(x) for x in untraced)
                                  - 1)
    return out


def _print_summary(name: str, values: dict, spec, note: str) -> None:
    print(f"# {name}: {note}")
    for metric, unit, _ in spec:
        print(f"#   {metric:48s} {values[metric]:>16.6g} {unit}")


# -- main -------------------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ensure_source()
        digests = bench_gate.load_digests()
    except (SourceMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    walls, fields = measure_setup(workload, SETUP_RUNS // 2)

    import setup_probe
    setup_probe.warm_fields(workload.fields)
    runner = Runner(workload, digests)
    if workload.warm_pass:
        runner.run_pass(workload.order(args.seed, "warm"))

    with HostSpeed() as host:
        if args.trace:
            timed = runner.timed(args.seed, args.seconds / 2, "untraced", host)
            with Tracer() as tracer:
                traced = runner.run_pass(workload.order(args.seed, "traced"), tracer, host)
        else:
            timed = runner.timed(args.seed, args.seconds, "timed", host)
    # the other half of the set-up probes, so that they span the timed window
    more_walls, more_fields = measure_setup(workload, SETUP_RUNS - SETUP_RUNS // 2)
    setup = statistics.median(walls + more_walls)
    field_setup = statistics.median(fields + more_fields)

    if args.trace:
        tracer.dump(TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl")
        [traced] = op_times([traced], host)
        metrics = per_layer(field_setup, op_times(timed, host), traced, tracer)
        spec = PER_LAYER
        note = f"{len(timed)} untraced passes, 1 traced pass"
    else:
        factor = host.factor()
        metrics = end_to_end(setup / factor, op_times(timed, host))
        spec = END_TO_END
        note = (f"{len(timed)} passes, {sum(len(x) for x in timed)} operation samples, "
                f"set-up median of {SETUP_RUNS} fresh processes, times at reference speed")
        print(f"# host-speed factor {factor:.4f} from {len(host.samples)} samples "
              f"({host.spent:.3f} s, taken out of the operation times)")
        passes = op_times(timed)
        raw = end_to_end(setup, passes)
        for metric in ("setup_s", "pass_s", "cli_op_s.p50", "op_kind_s.geomean"):
            print(f"#   raw wall {metric:20s} {raw[metric]:.6g} s")
        for label, values in sorted(by_label(passes).items()):
            print(f"#   {label:24s} raw mean {statistics.fmean(values):.6g} s over {len(values)}")
        ops = [dt for samples in passes for _, dt in samples]
        print(f"#   raw cli_op_s.p90 {percentile(ops, 0.90):.6g} s, p99 {percentile(ops, 0.99):.6g} s "
              f"over {len(ops)} samples (per-layer metrics of the traced run)")

    _print_summary(workload.name, metrics, spec, note)
    print(f"# failed_frac = {runner.failed}/{runner.attempted}")
    for problem in runner.problems[:20]:
        print(f"# FAILED {problem}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
