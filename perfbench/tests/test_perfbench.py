"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench/tests``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
from dihom import cli  # noqa: E402

SEED = 7


def small_ops(workload, per_kind=3):
    """The cheapest few ops of each subcommand in a workload."""
    ops = gen.generate(workload, SEED)
    picked = []
    for kind in sorted({o["argv"][0] for o in ops}):
        same = sorted((o for o in ops if o["argv"][0] == kind), key=lambda o: o.get("size", 0))
        picked += same[:per_kind]
    return picked


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_same_argv_and_files(workload, tmp_path):
    first, second = gen.generate(workload, SEED), gen.generate(workload, SEED)
    assert first == second
    assert first != gen.generate(workload, SEED + 1)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    argv_a, argv_b = gen.materialize(first, str(a)), gen.materialize(second, str(b))
    assert [[x.replace(str(a), "") for x in v] for v in argv_a] == [
        [x.replace(str(b), "") for x in v] for v in argv_b
    ]
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_banded_op_lies_in_a_band(workload):
    bands = {
        "hom": gen.HOM_BANDS,
        "morse": gen.MORSE_BANDS,
        "nbd": gen.NBD_HOLDS_BANDS + gen.NBD_FAILS_BANDS,
        "homotopy": gen.HOMOTOPY_BANDS,
        "reconfig": gen.RECONFIG_BANDS,
    }
    for o in gen.generate(workload, SEED):
        kind = o["argv"][0]
        if kind in bands:
            assert any(lo <= o["size"] < hi for lo, hi, _ in bands[kind]), o


def test_cell_counts_match_dihom():
    from dihom import Digraph, hom_poset, transitive_tournament

    for o in gen.generate("morse-sweep", SEED)[:20]:
        n, edges = o["graphs"]["dag"]
        t = transitive_tournament(int(o["argv"][2]))
        assert len(hom_poset(Digraph(n, edges), t)) == o["expect"]["cells"]


TAMPER = {
    "hom": lambda d: d.update(cells=d["cells"] + 1),
    "morse": lambda d: d.update(pairs=d["pairs"] + 1),
    "nbd": lambda d: d.update(euler_characteristic=d["euler_characteristic"] + 1),
    "table1": lambda d: d["tournaments"].pop(),
    "tournaments": lambda d: d.update(count=d["count"] - 1),
    "sphere": lambda d: d["facets"].pop(),
    "reconfig": lambda d: d["sample_path"].update(length=d["sample_path"]["length"] + 1),
    "homotopy": lambda d: d.update(bihomotopic=True, line_homotopic=False),
    "fold": lambda d: d.update(dismantlable=not d["dismantlable"]),
}


class TamperingCli:
    """Stands in for ``dihom.cli``: real output, then one field altered."""

    @staticmethod
    def run(argv):
        ok, _, stdout = run.run_op(cli, argv)
        doc = json.loads(stdout)
        TAMPER[argv[0]](doc)
        sys.stdout.write(json.dumps(doc))
        return 0 if ok else 1


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_tampered_stdout_counts_in_fail_frac(workload, tmp_path):
    ops = small_ops(workload, per_kind=2)
    argvs = gen.materialize(ops, str(tmp_path))
    runs = len(ops) * run.MIN_PASSES
    attempted, failed, _ = run.timed_passes(cli, ops, argvs, None, 0)
    assert (attempted, failed) == (runs, 0)
    attempted, failed, _ = run.timed_passes(TamperingCli, ops, argvs, None, 0)
    assert (attempted, failed) == (runs, runs)


def test_frozen_digest_mismatch_is_a_failure(tmp_path):
    o = small_ops("hom-homology", per_kind=1)[0]
    (argv,) = gen.materialize([o], str(tmp_path))
    ok, _, stdout = run.run_op(cli, argv)
    assert run.verify(o, ok, stdout, None)
    assert not run.verify(o, ok, stdout, "0" * 64)


def test_drift_check_fires_on_an_altered_replay_value(tmp_path, monkeypatch):
    ops = small_ops("hom-homology", per_kind=2)
    argvs = gen.materialize(ops, str(tmp_path))
    ok, _, stdout = run.run_op(cli, argvs[0])
    assert ok
    values, _ = replay.replay_op(replay.Tracer(), 0, argvs[0])
    assert replay.drift(values, stdout) == []
    values["homomorphisms"] += 1
    assert replay.drift(values, stdout) == ["homomorphisms"]

    honest = replay.REPLAYS["hom"]

    def altered(t, argv):
        values, inner = honest(t, argv)
        values["cells"] = -1
        return values, inner

    monkeypatch.setitem(replay.REPLAYS, "hom", altered)
    attempted, failed, _ = run.traced_pass(cli, ops, argvs, None)
    assert (attempted, failed) == (len(ops), len(ops))


def matches(pattern, name):
    return name == pattern or (pattern.endswith("*") and name.startswith(pattern[:-1]))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_layer_metrics_emitted_where_mapped(workload, tmp_path):
    ops = small_ops(workload)
    attempted, failed, metrics = run.traced_pass(
        cli, ops, gen.materialize(ops, str(tmp_path)), None
    )
    assert failed == 0
    layers = replay.load_layers()
    assert set(metrics) == {m["name"] for m in layers["metrics"]}
    for m in layers["metrics"]:
        if workload in m["on"]:
            assert metrics[m["name"]][0] > 0, m["name"]
    for bypass in layers["bypasses"]:
        if workload in bypass["zero_on"]:
            for name, (value, _) in metrics.items():
                if matches(bypass["metrics"], name):
                    assert value == 0, name


def test_benchmark_json_agrees_with_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    layers = replay.load_layers()["metrics"]
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in layers
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hom-homology", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_accepts_known_outputs():
    o = gen.op(["tournaments", "6"], count=56)
    assert oracle.check(o, json.dumps({"count": 56, "tournaments": [{}] * 56})) == []
    assert oracle.check(o, "not json")
