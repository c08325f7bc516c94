"""Benchmark of the ``dihom`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hom-homology --seed 0 --seconds 20 --trace 0

One op is one ``dihom.cli.run(argv)`` call in this process with stdout
captured: argument parsing, the computation and JSON rendering.  Load is
a closed loop with one client: ops run back to back, no threads.  A pass
runs every op of the workload once; passes repeat until ``--seconds`` have
gone by (three at the least), and the last pass always finishes.  Every
op's output goes through the oracle; for the frozen seed its sha256 must
also match ``frozen_sha256.json`` byte for byte.

End-to-end times are wall times scaled to a reference host speed, which
a fixed kernel timed before every op tracks (``at_reference_speed``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then the traced replay (``replay.py``) of the same ops, and
prints the per-layer metrics.  ``--workload all`` runs every workload in
its own process.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FROZEN_FILE = os.path.join(HERE, "frozen_sha256.json")
# Cold starts per run; setup_s is their median.
SETUP_SAMPLES = 21
# Passes per run at the least, so that every op time is a median of three.
MIN_PASSES = 3
# Median time of reference_kernel() on the host the baseline was taken on
# (2 vCPUs, CPython 3.11); all end-to-end times are scaled to that speed.
REF_KERNEL_S = 0.75e-3
# Kernel samples on each side that make up one speed estimate.
SPEED_WINDOW = 15
SETUP_CODE = "import dihom.cli; dihom.cli.build_parser()"

sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402


def reference_kernel():
    """Fixed pure-Python work of the kind dihom does: hashing, frozensets,
    a dict and a sort.  Timed before every op, it tracks the host's speed."""
    d = {}
    for i in range(1500):
        d[frozenset((i % 97, i % 89))] = i
    return sorted(d.values())[:3]


def kernel_seconds():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def at_reference_speed(times, kernels):
    """Scale each time by ``REF_KERNEL_S`` over the median kernel time of
    its neighbours in time order.

    Other tenants of a shared host change its speed by up to a third, in
    phases of seconds to minutes.  The kernel slows down with the op, so
    the ratio leaves the phases out where a raw time would follow them.
    """
    out = []
    for j, t in enumerate(times):
        near = kernels[max(0, j - SPEED_WINDOW) : j + SPEED_WINDOW + 1]
        out.append(t * REF_KERNEL_S / statistics.median(near))
    return out


def setup_seconds():
    """Median wall time of a fresh interpreter importing ``dihom`` and
    building the CLI parser, which every ``dihom`` invocation pays."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples, kernels = [], []
    for _ in range(SETUP_SAMPLES):
        kernels.append(kernel_seconds())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * REF_KERNEL_S / statistics.median(kernels)


def run_op(cli, argv):
    """One op: ``(ok, seconds, stdout)``; ``ok`` is False on a non-zero
    exit code or an exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as e:  # an op that raises is a failed op
            code = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
    if code != 0:
        print(f"op {argv[0]} failed: {code} {err.getvalue().strip()}", file=sys.stderr)
    return code == 0, seconds, out.getvalue()


def frozen_digests(workload, seed):
    with open(FROZEN_FILE, encoding="utf-8") as fh:
        frozen = json.load(fh)
    return frozen["digests"][workload] if seed == frozen["seed"] else None


def verify(op, ok, stdout, digest):
    """True when the op succeeded and its output passes the oracle."""
    if not ok:
        return False
    problems = oracle.check(op, stdout)
    if digest is not None and hashlib.sha256(stdout.encode()).hexdigest() != digest:
        problems.append("stdout differs from the frozen output")
    if problems:
        print(f"op {op['argv']}: {'; '.join(problems)}", file=sys.stderr)
    return not problems


def timed_passes(cli, ops, argvs, digests, seconds):
    """Untraced passes until ``seconds`` are spent; the end-to-end metrics.

    Each op's time is the median over the passes of its time at reference
    speed (``at_reference_speed``).
    """
    order, times, kernels = [], [], []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for i, (op, argv) in enumerate(zip(ops, argvs)):
            kernels.append(kernel_seconds())
            ok, t, stdout = run_op(cli, argv)
            attempted += 1
            failed += not verify(op, ok, stdout, digests and digests[i])
            order.append(i)
            times.append(t)
        passes += 1
    per_op = [[] for _ in ops]
    for i, t in zip(order, at_reference_speed(times, kernels)):
        per_op[i].append(t)
    op_s = [statistics.median(ts) for ts in per_op]
    deciles = statistics.quantiles(op_s, n=10)
    metrics = {
        "ops_per_s": (len(op_s) / sum(op_s), "ops/s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(
        f"{len(ops)} ops per pass, {passes} passes, fail_frac {failed / attempted:.4f}, "
        f"raw {len(times) / sum(times):.3f} ops/s, "
        f"kernel {statistics.median(kernels) * 1e3:.3f} ms"
    )
    return attempted, failed, metrics


def traced_pass(cli, ops, argvs, digests):
    """One untraced pass, then the traced replay; the per-layer metrics."""
    import replay

    t = replay.Tracer()
    attempted = failed = 0
    cli_s = replay_s = 0.0
    for i, (op, argv) in enumerate(zip(ops, argvs)):
        ok, seconds, stdout = run_op(cli, argv)
        attempted += 1
        cli_s += seconds
        good = verify(op, ok, stdout, digests and digests[i])
        if good:
            values, wall = replay.replay_op(t, i, argv)
            replay_s += wall
            drifted = replay.drift(values, stdout)
            if drifted:
                print(f"op {argv}: replay drifted from the CLI in {drifted}", file=sys.stderr)
                good = False
        failed += not good
    print(f"{len(ops)} ops, replay {replay_s:.3f} s against CLI {cli_s:.3f} s")
    metrics = replay.layer_metrics(t, replay_s, cli_s)
    return attempted, failed, {k: (v["value"], v["unit"]) for k, v in metrics.items()}


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "dihom", "cli.py")):
        sys.exit(f"error: no dihom sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    from dihom import cli

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        setup = None if args.trace else setup_seconds()
        start = time.perf_counter()
        ops = gen.generate(args.workload, args.seed)
        argvs = gen.materialize(ops, workdir)
        print(f"generated {len(ops)} ops in {time.perf_counter() - start:.2f} s")
        digests = frozen_digests(args.workload, args.seed)
        if args.trace:
            attempted, failed, metrics = traced_pass(cli, ops, argvs, digests)
        else:
            attempted, failed, metrics = timed_passes(cli, ops, argvs, digests, args.seconds)
            metrics["setup_s"] = (setup, "s")
    finally:
        shutil.rmtree(workdir)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    code = 0
    for workload in gen.WORKLOADS:
        print(f"== {workload}", flush=True)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        code = subprocess.run(argv).returncode or code
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
