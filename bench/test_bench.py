"""Tests of the benchmark itself, on down-sized copies of each workload.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import fnmatch
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from boundarylab import harness, kernels, layers, model  # noqa: E402

COUNTS = ("*.calls", "attacks.grad_evals_*", "harness.chunks")


def _small(name, workdir, seed=3):
    workdir.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir, small=True)


def test_benchmark_json_is_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert list(spec.WORKLOADS) == list(workloads.WORKLOADS)
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"]
              + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in committed["end_to_end"] + committed["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert max(committed["end_to_end"], key=lambda m: m["bound"])["name"] \
        == "setup_s"


def test_every_layer_metric_has_a_prediction():
    e2e = {m[0] for m in spec.END_TO_END}
    for name, _, _ in spec.PER_LAYER:
        assert any(fnmatch.fnmatchcase(name, p["metrics"])
                   for p in spec.PREDICTIONS), name
    for p in spec.PREDICTIONS:
        assert set(p["moves"]) | set(p["no_change"]) <= set(spec.WORKLOADS)
        assert not set(p["moves"]) & set(p["no_change"])
        for metrics in p["moves"].values():
            assert set(metrics) <= e2e


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40)
    assert sum(1 for i in range(40) if i > value) == 10
    assert pct == 75.0


def test_iterations_count_differing_outputs_as_failed():
    outputs = iter(["ref", "other", "ref"])
    times, failed = run.iterations(lambda: next(outputs), "ref", 0.0, 3)
    assert (len(times), failed) == (3, 1)

    def boom():
        raise RuntimeError("iteration raised")

    assert run.iterations(boom, "ref", 0.0, 2)[1] == 2


class _Fake:
    name = "attack-fab-cnn"

    def __init__(self, clean, robust):
        self.acc = {"clean": clean, "robust": robust}

    def accuracy(self):
        return self.acc


def test_reference_ranges_are_closed():
    assert run.reference_problems(_Fake(1.0, 0.5), "python") == []
    assert len(run.reference_problems(_Fake(0.5, 0.2), "python")) == 2
    # another backend is held to the python reference
    assert run.reference_problems(_Fake(0.99, 0.4), "native") == []


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_end_to_end_emits_every_metric(name, tmp_path):
    rounds = [run.one_setup(lambda: _small(name, tmp_path), 0.0)
              for _ in range(run.SETUP_REPEATS)]
    values, units, attempted, failed, problems = run.end_to_end(rounds)
    assert not [p for p in problems if "different outputs" in p]
    assert (attempted, failed) == (run.SETUP_REPEATS, 0)
    assert list(values) == [m[0] for m in spec.END_TO_END]
    for metric, unit, _, _ in spec.END_TO_END:
        assert units[metric] == unit
        assert values[metric] > 0 and math.isfinite(values[metric])


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_per_layer_metrics_and_counts_repeat(name, tmp_path):
    first = run.per_layer(_small(name, tmp_path / "a"), 0.0)
    second = run.per_layer(_small(name, tmp_path / "b"), 0.0)
    for values, units, attempted, failed, _ in (first, second):
        assert failed == 0 and attempted == 2 * run.MIN_TRACE_ITERATIONS
        assert set(values) == {m[0] for m in spec.PER_LAYER}
        for metric, unit, _ in spec.PER_LAYER:
            assert units[metric] == unit
            assert values[metric] >= 0 and math.isfinite(values[metric])
    counted = [m for m in first[0]
               if any(fnmatch.fnmatchcase(m, p) for p in COUNTS)]
    assert {m: first[0][m] for m in counted} == \
        {m: second[0][m] for m in counted}
    v = first[0]
    if name == "train-cnn":
        assert v["kernels.conv2_wgrad.calls"] > 0
        assert v["attacks.grad_evals_attack"] == v["harness.chunks"] == 0
    elif name == "cli-mlp":
        assert v["kernels.total.self_s"] == 0
        assert v["data.load_idx.s"] > 0 and v["model.load.s"] > 0
    else:
        assert v["kernels.conv1_wgrad.calls"] == 0
        assert v["kernels.conv1_fwd.calls"] > 0
        assert v["geometry.nearest_boundary.calls"] > 0
    assert (v["attacks.project.calls"] > 0) == (name == "attack-fab-cnn")


def test_patches_are_restored_and_self_times_add_up(tmp_path):
    originals = (layers.conv2d_forward, vars(model.Classifier)["load"],
                 layers.Dense.forward, harness.run_restarts_batch)
    w = _small("attack-fab-cnn", tmp_path)
    w.setup()
    rec = spans.Recorder()
    patches = spans.install(rec, spans.kernel_labels(w.template()))
    try:
        assert layers.conv2d_forward is not kernels.conv2d_forward
        # two workers over four chunks: spans from several threads
        rec.wrap("iteration", lambda: harness.evaluate(
            w.clf, w.bs, w.test_set, w.config, method="pgd", workers=2,
            chunk_size=4))()
    finally:
        patches.restore()
    assert (layers.conv2d_forward, vars(model.Classifier)["load"],
            layers.Dense.forward, harness.run_restarts_batch) == originals
    assert len({s[3] for s in rec.spans}) >= 2
    assert 1 <= rec.counts["chunks"] <= 4  # chunks with an attack to run
    root_s, layer_self, remainder = spans.main_thread_accounting(rec)
    assert layer_self + remainder == pytest.approx(root_s, rel=1e-9)
    assert all(own >= -1e-9 for _, _, own in rec.totals().values())
    metrics = spans.layer_metrics(rec, 1, spans.Recorder())
    assert 0 < metrics["harness.worker_busy_ratio"] <= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mlp", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
