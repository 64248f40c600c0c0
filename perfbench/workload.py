"""One workload in one fresh process: set up, run the closed loop, check.

Run by ``run.py``; the last line of standard output is a JSON object.  The
caller is a single client that calls ``qcheat.cli.main(argv)`` in-process
with ``--out`` set to a file in the work directory and waits for each
report before sending the next call.  Ops run in whole passes over the
workload's fixed op list for about ``--seconds`` and at least ``MIN_OPS``
ops.

Modes: ``measure`` (untraced; end-to-end metrics), ``setup`` (set up, then
exit; for repeated set-up timings), ``trace`` (untraced and traced passes
in turn; per-layer metrics and the tracing overhead).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("attack-ladder", "induction-long", "cli-shipped")
MIN_OPS = 20
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.25
SCALE_WINDOW_S = 1.0
# each reference's time on a 2-core Xeon at its usual speed
REF_S = {"interp": 0.020, "kernels": 0.026}
PROBE_KIND = {"attack-ladder": "kernels", "induction-long": "interp",
              "cli-shipped": "interp"}
EXPECTED_CLI = os.path.join(HERE, "expected_cli.json")


class MissingProgram(RuntimeError):
    """The checkout has no qcheat sources to benchmark."""


def import_qcheat(root: str):
    """Import qcheat from ``root``/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qcheat", "__init__.py")):
        raise MissingProgram(f"no qcheat package under {src}")
    sys.path.insert(0, src)
    import qcheat
    import qcheat.cli

    if not os.path.abspath(qcheat.__file__).startswith(os.path.abspath(src) + os.sep):
        raise MissingProgram(f"qcheat was imported from {qcheat.__file__}, not {src}")
    return qcheat.cli


class Workload:
    """The generated inputs, op list, warm-up ops and checker of one workload."""

    def __init__(self, ops, warm, checker):
        self.ops = ops
        self.warm = warm
        self.checker = checker


def _write_docs(docs: dict, workdir: str) -> dict:
    paths = {}
    for name, doc in docs.items():
        path = os.path.join(workdir, f"{name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.to_yaml(doc))
        paths[name] = path
    return paths


def prepare(name: str, seed: int, workdir: str, *, ladder_sizes=gen.LADDER_SIZES,
            coin_rounds=gen.INDUCTION_ROUNDS) -> Workload:
    """Generate and write the inputs; the sizes are smaller only in tests."""
    os.makedirs(workdir, exist_ok=True)
    if name == "attack-ladder":
        docs = gen.ladder_documents(seed, ladder_sizes)
        ops = gen.ladder_ops(docs, _write_docs(docs, workdir))
        # the smallest rung runs every kernel the larger ones run
        return Workload(ops, ops[:2], LadderChecker(docs))
    if name == "induction-long":
        docs = gen.coin_documents(seed, coin_rounds)
        small = gen.coin_documents(seed, 8)
        ops = gen.coin_ops(docs, _write_docs(docs, workdir))
        warm = gen.coin_ops(small, _write_docs(small, workdir))
        return Workload(ops, warm, CoinChecker(docs))
    if name == "cli-shipped":
        ops = gen.shipped_ops()
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        return Workload(ops, list(first.values()), ShippedChecker())
    raise ValueError(f"unknown workload {name!r}")


class LadderChecker:
    def __init__(self, docs):
        self.docs = docs
        self.refs = {}

    def __call__(self, op, data):
        if op.doc not in self.refs:
            self.refs[op.doc] = checks.ladder_reference(self.docs[op.doc])
        return checks.check_ladder(json.loads(data), op, self.refs[op.doc])


class CoinChecker:
    def __init__(self, docs):
        self.want = {name: checks.coin_expectation(doc) for name, doc in docs.items()}

    def __call__(self, op, data):
        return checks.check_coin(json.loads(data), op, self.want[op.doc])


class ShippedChecker:
    def __init__(self):
        with open(EXPECTED_CLI, encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def __call__(self, op, data):
        if op.fmt == "json":
            json.loads(data)
        return checks.check_shipped(data, op, self.expected)


class SpeedProbe:
    """A fixed reference computation of one kind, timed between ops.

    It runs no qcheat code, so a change to the program leaves it alone,
    while the slow and fast stretches of a shared machine move it along
    with the ops of the same kind.  ``interp``: a pure-Python YAML load
    and small numpy calls, like the ops of induction-long and cli-shipped.
    ``kernels``: a 256-wide complex eigh and a 400-wide complex matmul on
    the workload's BLAS threads, like the ladder's large kernels.  It runs
    before the first op and then once per ``PROBE_EVERY_S`` of op time, so
    its timings sample the run's busy time evenly.  ``marks`` holds
    (busy time so far, reference time) pairs.
    """

    def __init__(self, kind):
        import numpy as np
        import yaml

        rng = np.random.default_rng(0)
        self._np, self._yaml = np, yaml
        if kind == "interp":
            m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            self._herm = m @ m.conj().T
            self._mat = rng.standard_normal((256, 256))
            self._text = gen.to_yaml(gen.coin_documents(0, 4))
            self.reference = self._interp
        else:
            m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
            self._herm = m @ m.conj().T
            self._mat = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
            self.reference = self._kernels
        self.ref_s = REF_S[kind]
        self._due = 0.0
        self.busy = 0.0
        self.marks = []

    def _interp(self):
        self._yaml.load(self._text, Loader=self._yaml.SafeLoader)
        for _ in range(4):
            self._np.linalg.eigh(self._herm)
            self._mat @ self._mat

    def _kernels(self):
        self._np.linalg.eigh(self._herm)
        self._mat @ self._mat

    def sample(self):
        t0 = perf_counter()
        self.reference()
        self.marks.append((self.busy, perf_counter() - t0))

    def after_op(self, latency):
        self.busy += latency
        self._due += latency
        while self._due >= PROBE_EVERY_S:
            self._due -= PROBE_EVERY_S
            self.sample()

    def scale(self) -> float:
        """ref_s over the mean reference time of the whole run."""
        return self.ref_s / statistics.fmean(t for _, t in self.marks)

    def scales(self, latencies) -> list:
        """One scale per op: ref_s over the mean reference time near it.

        ``latencies`` are those of the ops ``after_op`` saw, in order.  An
        op's latency times its scale is its time on a machine on which the
        reference takes ``ref_s``: the shared machine's slow or fast
        stretch, which moves the reference as much as the ops, cancels out.
        "Near" is within ``SCALE_WINDOW_S`` of busy time either side of the
        op, which always holds a reference, as one runs before the first op
        and one per ``PROBE_EVERY_S`` after it.
        """
        at = [busy for busy, _ in self.marks]
        out, begin = [], 0.0
        for latency in latencies:
            end = begin + latency
            near = self.marks[bisect.bisect_left(at, begin - SCALE_WINDOW_S):
                              bisect.bisect_right(at, end + SCALE_WINDOW_S)]
            out.append(self.ref_s / statistics.fmean(t for _, t in near))
            begin = end
        return out


def run_pass(cli, ops, out_path, log, tracer=None, probe=None):
    """Send each op, wait for its report, keep (op, exit code, latency, bytes)."""
    for op in ops:
        argv = op.argv + ["--out", out_path]
        main = cli.main  # looked up per call, so a traced run sees its wrapper
        if tracer is None:
            t0 = perf_counter()
            code = main(argv)
            t1 = perf_counter()
        else:
            t0 = perf_counter()
            span = tracer.open_op(len(log), t0)
            code = main(argv)
            t1 = perf_counter()
            tracer.close_op(span, t1)
        try:
            with open(out_path, "rb") as fh:
                data = fh.read()
            os.remove(out_path)
        except FileNotFoundError:
            data = None
        log.append((op, code, t1 - t0, data))
        if probe is not None:
            probe.after_op(t1 - t0)


def _nearest_done(begin, done, seconds) -> bool:
    """Stop after the pass whose end lies nearest to ``seconds``.

    The pass count then stays put while the pass time wanders by less than
    half a pass either way.
    """
    elapsed = perf_counter() - begin
    return elapsed * (done + 0.5) / done >= seconds


def run_until(cli, ops, out_path, seconds, min_ops, log, probe=None):
    """Whole passes for about ``seconds`` of wall time, and ``min_ops`` ops."""
    begin = perf_counter()
    first_op = len(log)
    done = 0
    while True:
        run_pass(cli, ops, out_path, log, probe=probe)
        done += 1
        if _nearest_done(begin, done, seconds) and len(log) - first_op >= min_ops:
            return


def run_traced(cli, ops, out_path, seconds, log):
    """Alternate untraced and traced passes for about ``seconds``.

    Alternating keeps a drift in machine speed out of the tracing overhead.
    At least ``MIN_TRACED_PASSES`` pairs run, so the overhead rests on more
    than one pass each way and the counts can be compared between passes.
    Returns the tracer, its per-pass snapshots and the log indices of the
    traced ops.
    """
    from spans import Tracer

    tracer = Tracer()
    passes, traced = [], []
    begin = perf_counter()
    done = 0
    while True:
        run_pass(cli, ops, out_path, log)
        first, first_span = len(log), len(tracer.start)
        tracer.install()
        try:
            run_pass(cli, ops, out_path, log, tracer)
        finally:
            tracer.uninstall()
        passes.append(tracer.take_pass(first_span))
        traced.extend(range(first, len(log)))
        done += 1
        if _nearest_done(begin, done, seconds) and done >= MIN_TRACED_PASSES:
            return tracer, passes, traced


def check_all(workload: Workload, log) -> dict:
    failed, messages = 0, []
    for op, code, _, data in log:
        if code != 0:
            error = f"exit code {code}"
        elif data is None:
            error = "no report written"
        else:
            try:
                error = workload.checker(op, data)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable report: {exc!r}"
        if error is not None:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{op.key}: {error}")
    return {"attempted": len(log), "failed": failed, "failures": messages}


def hd_quantile(values, p) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of all order statistics, the i-th of n weighted by the
    Beta((n + 1)p, (n + 1)(1 - p)) probability of ((i - 1)/n, i/n].  Where
    the plain sample quantile rests on one or two ops (the ladder's median
    falls between the n = 16 rungs, each run twice), this spreads the
    weight over the neighbouring ops and so over more of the run.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cells = 20000  # midpoint rule for the Beta CDF
    mid = (np.arange(cells) + 0.5) / cells
    log_pdf = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
               + (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid))
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf))))
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, cells + 1), cdf)
    return float(np.diff(edges) @ x / (edges[-1] - edges[0]))


def timing_metrics(entries) -> dict:
    """ops_per_s over busy time, median op latency and the tail percentile.

    ``entries`` are (op key, latency) pairs.  Each op of the mix runs once
    a pass; op_p50_s is the median, over the ops of the mix, of each op's
    mean latency in the run.  The tail is the highest percentile of all
    latencies that still has TAIL_BEYOND ops beyond it, the (n -
    TAIL_BEYOND)/n quantile.  Both quantiles are Harrell-Davis estimates.
    """
    by_key = {}
    for key, latency in entries:
        by_key.setdefault(key, []).append(latency)
    ordered = sorted(latency for v in by_key.values() for latency in v)
    n = len(ordered)
    out = {"ops": n, "passes": n / len(by_key), "busy_s": math.fsum(ordered),
           "ops_per_s": n / math.fsum(ordered),
           "op_p50_s": hd_quantile([statistics.fmean(v) for v in by_key.values()], 0.5)}
    if n >= 2 * TAIL_BEYOND:
        out["op_tail_pct"] = 100.0 * (n - TAIL_BEYOND) / n
        out["op_tail_s"] = hd_quantile(ordered, (n - TAIL_BEYOND) / n)
    return out


def metadata(seed: int) -> dict:
    import numpy as np
    import yaml

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    parser.add_argument("--root", required=True, help="checkout root")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the caller started this process")
    args = parser.parse_args(argv)

    try:
        cli = import_qcheat(args.root)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(args.root, ".perfbench", args.workload)
    workload = prepare(args.workload, args.seed, workdir)
    out_path = os.path.join(workdir, "report.out")
    warm_log = []
    run_pass(cli, workload.warm, out_path, warm_log)
    setup_s = time.monotonic() - args.t0
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "warm_failed": [op.key for op, code, _, _ in warm_log if code != 0]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    log = []
    if args.mode == "measure":
        probe = SpeedProbe(PROBE_KIND[args.workload])
        probe.reference()  # untimed warm-up
        probe.sample()
        begin = perf_counter()
        run_until(cli, workload.ops, out_path, args.seconds, MIN_OPS, log, probe)
        result["wall_s"] = perf_counter() - begin
        scales = probe.scales([lat for _, _, lat, _ in log])
        result["raw"] = timing_metrics([(op.key, lat) for op, _, lat, _ in log])
        result.update(timing_metrics([(op.key, lat * scale)
                                      for (op, _, lat, _), scale in zip(log, scales)]))
        result["scale"] = probe.scale()
        result["probe_s"] = probe.ref_s / result["scale"]
        result["probe_marks"] = probe.marks
        result["op_scales"] = scales
    else:
        from spans import layer_metrics

        tracer, passes, traced = run_traced(cli, workload.ops, out_path, args.seconds, log)
        traced_set = set(traced)
        untraced = timing_metrics([(op.key, lat) for i, (op, _, lat, _) in enumerate(log)
                                   if i not in traced_set])
        traced_timing = timing_metrics([(log[i][0].key, log[i][2]) for i in traced])
        result["layers"] = layers = layer_metrics(passes)
        layers["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
        layers["trace.traced_ops_per_s"] = traced_timing["ops_per_s"]
        layers["trace.overhead"] = 1.0 - traced_timing["ops_per_s"] / untraced["ops_per_s"]
        result["traced_passes"] = len(passes)
        result["calls_by_kind"] = tracer.calls_by_kind({i: log[i][0].kind for i in traced})
        tracer.dump(os.path.join(workdir, f"spans-seed{args.seed}.json"))
    result["op_log"] = [(op.key, latency) for op, _, latency, _ in log]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(check_all(workload, log))
    result["meta"] = metadata(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
