"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

cli = workload.import_qcheat(ROOT)

SMALL = {"ladder_sizes": (7, 8), "coin_rounds": 8}


def traced_run(name, seed, tmp_path, passes=2, **sizes):
    """``passes`` traced passes of one workload: (tracer, log, pass snapshots)."""
    w = workload.prepare(name, seed, str(tmp_path), **{**SMALL, **sizes})
    out = str(tmp_path / "report.out")
    tracer = spans.Tracer().install()
    log, snapshots = [], []
    try:
        for _ in range(passes):
            first = len(tracer.start)
            workload.run_pass(cli, w.ops, out, log, tracer)
            snapshots.append(tracer.take_pass(first))
    finally:
        tracer.uninstall()
    assert workload.check_all(w, log)["failed"] == 0
    return tracer, log, snapshots


def test_generators_repeat_byte_for_byte():
    for make in (gen.ladder_documents, gen.coin_documents):
        first = [gen.to_yaml(doc) for doc in make(3).values()]
        again = [gen.to_yaml(doc) for doc in make(3).values()]
        other = [gen.to_yaml(doc) for doc in make(4).values()]
        assert first == again
        assert first != other


def test_ladder_mix_matches_the_plan():
    docs = gen.ladder_documents(1)
    assert len(docs) == 14
    ops = gen.ladder_ops(docs, {name: name for name in docs})
    assert [op.kind for op in ops] == ["attack", "simulate"] * 7
    for name, doc in docs.items():
        n = sum(doc["qubits"].values())
        assert f"-n{n}-" in name
        assert ("verify" in doc) == (not name.endswith("-open"))


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_self_times_add_up_to_each_op(name, tmp_path):
    tracer, log, _ = traced_run(name, 1, tmp_path, passes=1)
    own = tracer.self_times()
    per_op = [0.0] * len(log)
    for i, value in enumerate(own):
        per_op[tracer.op[i]] += value
    for (op, _, latency, _), total in zip(log, per_op):
        assert total == pytest.approx(latency, rel=1e-9, abs=1e-12), op.key
    assert all(value >= -1e-9 for value in own)


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_counts_repeat_between_runs_and_passes(name, tmp_path):
    _, _, first = traced_run(name, 5, tmp_path / "a")
    _, _, second = traced_run(name, 5, tmp_path / "b")
    assert first[0]["counts"] == first[1]["counts"]
    assert first[0]["counts"] == second[0]["counts"]
    assert first[0]["counts"]["cli.main.calls"] == len(workload.prepare(
        name, 5, str(tmp_path / "c"), **SMALL).ops)
    assert spans.layer_metrics(first)["qcore.errors"] == 0


def test_timing_metrics_take_each_ops_mean():
    # op a runs three passes, op b one
    entries = [("a", 0.5), ("b", 1.5), ("a", 1.0), ("a", 3.0)]
    out = workload.timing_metrics(entries)
    assert out["ops"] == 4 and out["busy_s"] == 6.0
    assert out["ops_per_s"] == 4 / 6.0
    assert out["op_p50_s"] == pytest.approx(1.5)    # HD median of the means 1.5, 1.5
    assert "op_tail_s" not in out


def test_hd_quantile_matches_scipy():
    mstats = pytest.importorskip("scipy.stats.mstats")
    import numpy as np

    rng = np.random.default_rng(3)
    for n, p in ((2, 0.5), (14, 0.5), (28, 18 / 28), (1200, 1190 / 1200)):
        x = rng.exponential(size=n)
        want = float(mstats.hdquantiles(x, prob=[p])[0])
        assert workload.hd_quantile(x, p) == pytest.approx(want, rel=1e-7)
    assert workload.hd_quantile([2.0] * 9, 0.5) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("kind", ["interp", "kernels"])
def test_speed_probe_runs_once_per_probe_interval(kind):
    probe = workload.SpeedProbe(kind)
    probe.sample()
    latencies = [f * workload.PROBE_EVERY_S for f in (0.0, 0.5, 0.5, 0.5, 2.0)]
    for latency in latencies:
        probe.after_op(latency)
    assert [busy / workload.PROBE_EVERY_S for busy, _ in probe.marks] == [0, 1, 3.5, 3.5]
    assert all(t > 0 for _, t in probe.marks)


def test_speed_probe_scales_each_op_by_the_references_near_it():
    probe = workload.SpeedProbe("interp")
    ref, window = probe.ref_s, workload.SCALE_WINDOW_S
    # a slow stretch (references at twice ref_s) then a fast one (at half)
    probe.marks = [(0.0, 2 * ref), (window, 2 * ref),
                   (3 * window, 0.5 * ref), (4 * window, 0.5 * ref)]
    assert probe.scales([window, window, 2 * window]) == pytest.approx([0.5, 2 / 3, 1.0])
    assert probe.scale() == pytest.approx(0.8)


def test_traced_run_alternates_and_restores(tmp_path):
    import numpy as np

    w = workload.prepare("cli-shipped", 1, str(tmp_path))
    main, eigh = cli.main, np.linalg.eigh
    log = []
    _, passes, traced = workload.run_traced(cli, w.ops, str(tmp_path / "out"), 0.0, log)
    n = len(w.ops)
    assert len(passes) == workload.MIN_TRACED_PASSES == 2
    assert traced == list(range(n, 2 * n)) + list(range(3 * n, 4 * n))
    assert cli.main is main and np.linalg.eigh is eigh


def test_seed_commit_counts(tmp_path):
    tracer, log, _ = traced_run("attack-ladder", 1, tmp_path, passes=1)
    by_kind = tracer.calls_by_kind({i: entry[0].kind for i, entry in enumerate(log)})
    assert by_kind["protocol.run_commit"] == {"attack": 4, "simulate": 6}

    def induction_counts(rounds):
        _, _, snaps = traced_run("induction-long", 1, tmp_path / str(rounds),
                                 passes=1, coin_rounds=rounds)
        counts = snaps[0]["counts"]
        return counts["cointoss.run_rounds.calls"], counts["qcore.apply_gate.calls"]

    runs, gates = zip(*(induction_counts(r) for r in (8, 16, 24, 32)))
    steps = [b - a for a, b in zip(runs, runs[1:])]
    assert steps[0] > 0 and len(set(steps)) == 1           # linear in rounds
    growth = [b - a for a, b in zip(gates, gates[1:])]
    bends = [b - a for a, b in zip(growth, growth[1:])]
    assert bends[0] > 0 and len(set(bends)) == 1           # quadratic in rounds


def test_checks_reject_wrong_reports():
    docs = gen.ladder_documents(2, (7,))
    name, doc = next(iter(docs.items()))
    op = gen.ladder_ops(docs, {n: n for n in docs})[0]
    ref = checks.ladder_reference(doc)
    good = {"command": "attack", "protocol": name, "delta": ref["delta"],
            "honest_accept": {"0": ref["honest_accept"][0], "1": ref["honest_accept"][1]}}
    assert checks.check_ladder(good, op, ref) is None
    assert checks.check_ladder({**good, "delta": ref["delta"] + 1e-6}, op, ref)

    coins = gen.coin_documents(2, 8)
    for cname, cdoc in coins.items():
        want = checks.coin_expectation(cdoc)
        assert want["steps"] == (7 if "hadamard" in cname else 8)

    expected = {"k": checks.sha256(b'{"a": 0.5}\n')}
    shipped = gen.Op("k", [], "simulate", "x", "json")
    assert checks.check_shipped(b'{"a": 0.5}\n', shipped, expected) is None
    for other in (b'{"a": 0.50}\n', b'{"a": 0.50000000000001}\n', b'{"a": 0.5}'):
        assert checks.check_shipped(other, shipped, expected)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-shipped", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    with pytest.raises(workload.MissingProgram):
        workload.import_qcheat(str(tmp_path))
    assert json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["paths"] == ["perfbench"]
