"""qcheat benchmark: seeded closed-loop workloads over ``qcheat.cli.main``.

Run from the checkout root:

    python3 perfbench/run.py --workload attack-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in fresh Python processes: one that sets up and
measures, with ``SETUP_RUNS - 1`` that only set up split around it.  With ``--trace 0`` the result
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  Every line but the last is for people; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("attack-ladder", "induction-long", "cli-shipped")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 170
# BLAS threads per workload.  The small matrices of induction-long and
# cli-shipped run on one: on a small shared machine a second thread waits on
# whatever else holds the other core, and identical ops then vary twofold.
# The ladder's large eigh/SVD kernels run on two (at most nproc), which cuts
# a pass from about 26 s to 19 s on a 2-core Xeon, so that seventy runs of
# the three workloads fit in under an hour.
BLAS_THREADS = {"attack-ladder": min(2, len(os.sched_getaffinity(0))),
                "induction-long": 1, "cli-shipped": 1}


class BenchError(RuntimeError):
    pass


def spawn(root, workload, seed, seconds, mode, timeout) -> dict:
    """Run one workload process and return its JSON result line."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--root", root, "--t0", repr(time.monotonic())]
    threads = str(BLAS_THREADS[workload])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    try:
        proc = subprocess.run(cmd, cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(root, workload, seed, seconds, trace, deadline) -> dict:
    """Set up SETUP_RUNS times (one of them measures) and merge the results.

    Half the set-up-only processes run before the measuring one and half
    after it, so the median spans the run and not one slow or fast stretch
    of a shared machine.
    """
    def setup_only(count):
        return [spawn(root, workload, seed, seconds, "setup",
                      deadline - time.monotonic())["setup_s"] for _ in range(count)]

    extra = 0 if trace else SETUP_RUNS - 1
    setups = setup_only(extra // 2)
    result = spawn(root, workload, seed, seconds, "trace" if trace else "measure",
                   deadline - time.monotonic())
    setups.append(result["setup_s"])
    setups += setup_only(extra - extra // 2)
    result["setup_runs"] = setups
    # scaled by the run's mean reference time; a traced run has no scale and reports no setup_s
    result["setup_s"] = statistics.median(setups) * result.get("scale", 1.0)
    path = os.path.join(root, ".perfbench", workload,
                        f"result-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result, trace, declared) -> dict:
    """Print one workload's metrics; return the declared ones for the JSON line.

    ``declared`` is BENCHMARK.json's end_to_end or per_layer list.  A traced
    run also prints the per-layer metrics left out of it.
    """
    name = result["workload"]
    print(f"# {name} meta {json.dumps(result['meta'], sort_keys=True)}")
    print(f"{name} attempted {result['attempted']} failed {result['failed']}")
    print(f"{name} fail_ratio {result['failed'] / result['attempted']!r} ratio")
    for message in result["failures"]:
        print(f"{name} FAILED {message}")
    if result["warm_failed"]:
        print(f"{name} FAILED warm-up ops {result['warm_failed']}")
    units = {m["name"]: m["unit"] for m in declared}
    if trace:
        values = result["layers"]
        print(f"{name} traced passes {result['traced_passes']}")
        for fn, by_kind in sorted(result["calls_by_kind"].items()):
            if any(by_kind.values()):
                print(f"{name} calls-per-op {fn} {json.dumps(by_kind)}")
        for key, value in values.items():
            if key not in units:
                print(f"{name} {key} {value!r} {'s' if key.endswith('_s') else 'count'}")
    else:
        values = result
        raw = result["raw"]
        print(f"{name} ops {result['ops']} in {result['passes']:g} passes, "
              f"{raw['busy_s']:.4f} s busy ({result['wall_s']:.4f} s wall); "
              f"op_tail_s is p{result['op_tail_pct']:.4g}")
        print(f"{name} reference {result['probe_s'] * 1e3:.3f} ms on average (setup_s "
              f"scaled by {result['scale']:.4f}, each op by the references near it); "
              f"unscaled: ops_per_s {raw['ops_per_s']:.5g}, "
              f"op_p50_s {raw['op_p50_s']:.5g}, op_tail_s {raw['op_tail_s']:.5g}, "
              f"setup runs {['%.4f' % s for s in result['setup_runs']]}")
    metrics = {}
    for key, unit in units.items():
        metrics[key] = {"value": values[key], "unit": unit}
        print(f"{name} {key} {values[key]!r} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured wall time per workload, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcheat", "__init__.py")):
        print("error: run from a qcheat checkout root (src/qcheat is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            results.append(run_workload(root, name, args.seed, args.seconds,
                                        args.trace, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for result in results:
        own = report(result, args.trace, declared)
        if len(results) == 1:
            metrics = own
        else:
            metrics.update({f"{result['workload']}.{k}": v for k, v in own.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["warm_failed"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
