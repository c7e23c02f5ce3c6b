"""Tests of the benchmark's own code: the tracer, the gate and the metric
catalogue.  They use the two small (3,1) towers and a slice of the
planner-cli operations, so they run in a few seconds."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import bench_gate  # noqa: E402
import bench_ops  # noqa: E402

bench_ops.ensure_source()

import extraspecial.cli  # noqa: E402,F401  (every traced module is loaded)
from bench_trace import Tracer  # noqa: E402
from host_speed import HostSpeed  # noqa: E402
from run import END_TO_END, PER_LAYER, Runner, run_op  # noqa: E402

SMALL = ([op for op in bench_ops.all_ops() if op.label in ("H-3-1", "M-3-1")]
         + list(bench_ops.WORKLOADS["planner-cli"].ops[::7]))


def _op(label):
    return next(op for op in bench_ops.all_ops() if op.label == label)


def _namespaces() -> dict:
    """Every attribute of every extraspecial module and of its classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "extraspecial" or name.startswith("extraspecial."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


def test_tracing_keeps_output_and_restores_every_name():
    before = _namespaces()
    plain = [run_op(op)[1:] for op in SMALL]
    with Tracer():
        during = _namespaces()
        traced = [run_op(op)[1:] for op in SMALL]
    after = _namespaces()

    assert traced == plain
    assert all(error is None for _, _, error in plain)
    patched = {k for k, v in before.items() if during[k] is not v}
    # names bound by from-imports and operator aliases are traced too
    for key in [("extraspecial.detval", "ring_det"), ("extraspecial.localfield", "ring_det"),
                ("extraspecial.oracle", "ring_det"), ("extraspecial", "ring_det"),
                ("extraspecial.oracle", "build_tower"), ("extraspecial.cli", "plan"),
                ("extraspecial.valuation", "LaurentSeries", "__mul__"),
                ("extraspecial.valuation", "LaurentSeries", "__rmul__"),
                ("extraspecial.valuation", "LaurentSeries", "__radd__"),
                ("extraspecial.localfield", "TowerElement", "__rmul__")]:
        assert key in patched, key
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_counts_repeat_exactly():
    def counts():
        with Tracer() as tr:
            for op in SMALL:
                tr.op = op.label
                run_op(op)
        stats = {k: (s.calls, s.pair_ops) for k, s in tr.stats.items()}
        return stats, tr.expansions, [(s[0], s[3], s[4]) for s in tr.spans]

    first, second = counts(), counts()
    assert first == second
    stats, expansions, spans = first
    assert stats["valuation.series_mul"][1] > stats["valuation.series_mul"][0] > 0
    # one span per outermost ring_det call; recursive calls only count
    assert expansions > stats["detval.ring_det"][0] > 0
    assert sum(1 for s in spans if s[0] == "detval.ring_det") == stats["detval.ring_det"][0]


def test_self_time_excludes_children():
    with Tracer() as tr:
        tr.op = "H-3-1"
        run_op(_op("H-3-1"))
    main = next(s for s in tr.spans if s[0] == "cli.main")
    assert 0 < tr.stats["cli.main"].self_s < main[2] - main[1]
    stages = [s for s in tr.spans if s[0].startswith("oracle.") and s[3] >= 0]
    assert {s[0] for s in stages} >= {"oracle.build", "oracle.filtration", "oracle.layers"}


def test_gate_passes_recorded_outputs():
    digests = bench_gate.load_digests()
    for op in SMALL:
        _, code, stdout, error = run_op(op)
        assert error is None
        assert bench_gate.check(op, code, stdout, digests) == [], op.argv


def test_gate_fails_tampered_reports():
    digests = bench_gate.load_digests()
    op = _op("H-3-1")
    _, code, stdout, _ = run_op(op)
    report = json.loads(stdout)
    report["measured_b"][-1] += 1
    tampered = json.dumps(report, indent=2) + "\n"
    problems = bench_gate.check(op, code, tampered, digests)
    assert any(p.startswith("measured_b") for p in problems)
    assert any("digest" in p for p in problems)
    # the closed forms alone catch it, without the digests
    assert bench_gate.check(op, code, tampered)
    assert bench_gate.check(op, 2, stdout)

    verdict = next(o for o in SMALL if o.kind == "verdict")
    _, code, stdout, _ = run_op(verdict)
    report = json.loads(stdout)
    report["gms"] = "free-and-hopf" if report["gms"] != "free-and-hopf" else "free"
    assert bench_gate.check(verdict, code, json.dumps(report, indent=2) + "\n")

    convert = next(o for o in bench_ops.all_ops() if o.kind == "ram-convert")
    _, code, stdout, _ = run_op(convert)
    report = json.loads(stdout)
    report["upper"][-1] += 1
    assert bench_gate.check(convert, code, json.dumps(report, indent=2) + "\n")


def test_host_speed_samples_outside_the_timed_operations():
    previous = signal.getsignal(signal.SIGALRM)
    runner = Runner(bench_ops.WORKLOADS["oracle-ladder"], bench_gate.load_digests())
    t0 = time.perf_counter()
    with HostSpeed() as host:
        samples = runner.run_pass([_op("M-3-1")] * 3, host=host)
    wall = time.perf_counter() - t0
    assert runner.failed == 0 and host.factor() > 0
    first = host.times[0]
    assert host.factor(first - 1, first - 0.5) is None
    assert host.factor(first, host.times[-1]) == host.factor()
    # the sampler's time is taken out of each operation's time
    assert 0 < sum(dt for _, dt, _, _ in samples) <= wall - host.spent
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench_ops.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".trace", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "planner-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
