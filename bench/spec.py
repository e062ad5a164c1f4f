"""What the benchmark measures: workloads, metrics, predictions, references.

This module is plain data and imports nothing heavy, so ``run.py`` can
read the BLAS thread count before numpy loads.  ``BENCHMARK.json``
at the repository root is this file's workload and metric lists in the
fixed schema; ``test_bench.py`` checks that the two agree.
"""

# One iteration of each workload is described in workloads.py.  Every
# workload runs one worker with one BLAS thread.  On a 2-vCPU Xeon,
# train-cnn ran faster and steadier with one BLAS thread (1.29-1.55 s an
# iteration) than with two (1.53-1.99 s).  A workers=2 pgd workload was
# tried and left out: on that shared 2-vCPU machine its iteration time
# for identical work ranged 2.2-3.5 s, and its run-to-run spread (0.29 of
# the median) exceeded any allowed bound; it measured the host, not the
# program.
WORKERS = 1
BLAS_THREADS = 1

WORKLOADS = {
    "train-cnn": {
        "why": "model.train of small_cnn on 16x16 digits, batch 128: the only "
               "workload with conv param-grads, train-mode BatchNorm and SGD; "
               "attacks stay idle. 1 worker x 1 BLAS thread",
    },
    "attack-fab-cnn": {
        "why": "evaluate fab/boundary on one 256-example chunk: per-example "
               "hyperplane projection and n-backprop Jacobian; single-thread "
               "attack baseline. 1 worker x 1 BLAS thread",
    },
    "cli-mlp": {
        "why": "cli sweep + export-repr on an mlp checkpoint and IDX files: no "
               "conv, so kernels are bypassed; attack overhead, load_idx, "
               "load and CSV output. 1 worker x 1 BLAS thread",
    },
}

RUN_SECONDS = 9

# (name, unit, better, bound).  Throughput is work per second over all
# timed iterations of a run.  ``examples_per_s`` counts training
# examples x epochs on train-cnn, evaluated examples on the attack
# workloads and examples across every sweep point plus the export on
# cli-mlp.  ``grad_evals_per_s`` counts per-example gradient evaluations:
# descent + attack evaluations as the attacks count them, and examples x
# epochs for training.  The iteration-time tail (the highest percentile
# with ten samples beyond it) is printed but not bounded: a run has 3-8
# iterations, so it is their maximum, whose run-to-run spread reached
# 0.33 of its median on a shared 2-vCPU VM.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("examples_per_s", "1/s", "higher", 0.24),
    ("grad_evals_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

KERNELS = ["conv1_fwd", "conv1_igrad", "conv1_wgrad",
           "conv2_fwd", "conv2_igrad", "conv2_wgrad",
           "pool1_fwd", "pool1_bwd", "pool2_fwd", "pool2_bwd"]
LAYER_KINDS = ["conv2d", "batchnorm", "relu", "maxpool2x2", "flatten",
               "dense"]

# (name, unit, better).  ``.s`` is a span's whole duration, ``.self_s`` the
# duration minus its child spans on the same thread; both are per timed
# iteration, as are ``.calls`` and the gradient-evaluation counts.  FLOPs
# behind ``gflop_per_s`` are computed from array shapes, not counted by
# hardware.
PER_LAYER = (
    [m for k in KERNELS for m in (
        (f"kernels.{k}.calls", "count", "lower"),
        (f"kernels.{k}.self_s", "s", "lower"),
        (f"kernels.{k}.gflop_per_s", "GFLOP/s", "higher"),
    )]
    + [("kernels.total.self_s", "s", "lower")]
    + [(f"layers.{kind}.{d}_self_s", "s", "lower")
       for kind in LAYER_KINDS for d in ("fwd", "bwd")]
    + [
        ("model.head_forward.calls", "count", "lower"),
        ("model.head_forward.self_s", "s", "lower"),
        ("model.head_backward.calls", "count", "lower"),
        ("model.head_backward.self_s", "s", "lower"),
        ("model.train.self_s", "s", "lower"),
        ("model.load.s", "s", "lower"),
        ("model.predict.s", "s", "lower"),
        ("geometry.nearest_boundary.calls", "count", "lower"),
        ("geometry.nearest_boundary.s", "s", "lower"),
        ("attacks.restarts.s", "s", "lower"),
        ("attacks.random_start.s", "s", "lower"),
        ("attacks.descent.self_s", "s", "lower"),
        ("attacks.pgd.self_s", "s", "lower"),
        ("attacks.fab.self_s", "s", "lower"),
        ("attacks.project.calls", "count", "lower"),
        ("attacks.project.s", "s", "lower"),
        ("attacks.grad_evals_descent", "count", "lower"),
        ("attacks.grad_evals_attack", "count", "lower"),
        ("attacks.useful_eval_ratio", "ratio", "higher"),
        ("attacks.restart_success_ratio", "ratio", "higher"),
        ("harness.evaluate.calls", "count", "lower"),
        ("harness.chunks", "count", "lower"),
        ("harness.self_s", "s", "lower"),
        ("harness.worker_busy_ratio", "ratio", "higher"),
        ("harness.cpu_per_wall", "ratio", "higher"),
        ("harness.export.s", "s", "lower"),
        ("harness.serialize_s", "s", "lower"),
        ("data.load_idx.s", "s", "lower"),
        ("data.load_idx.mb_per_s", "MB/s", "higher"),
        ("data.make_digits.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)

_CNN = ["attack-fab-cnn"]
_THROUGHPUT = ["examples_per_s", "grad_evals_per_s"]

# Which end-to-end metric each per-layer metric should move, on which
# workload, and where the prediction is "no change".  A pattern's ``*``
# matches any run of characters; every per-layer metric matches at least
# one entry.  A later change names its claim by these patterns.
PREDICTIONS = [
    {"metrics": "kernels.*_wgrad.*",
     "moves": {"train-cnn": _THROUGHPUT},
     "no_change": _CNN + ["cli-mlp"],
     "note": "param-grads run only in training"},
    {"metrics": "kernels.*_fwd.*",
     "moves": {w: _THROUGHPUT for w in ["train-cnn"] + _CNN},
     "no_change": ["cli-mlp"]},
    {"metrics": "kernels.*_igrad.*",
     "moves": {w: _THROUGHPUT for w in ["train-cnn"] + _CNN},
     "no_change": ["cli-mlp"]},
    {"metrics": "kernels.pool*",
     "moves": {w: _THROUGHPUT for w in ["train-cnn"] + _CNN},
     "no_change": ["cli-mlp"]},
    {"metrics": "kernels.total.self_s",
     "moves": {w: _THROUGHPUT for w in ["train-cnn"] + _CNN},
     "no_change": ["cli-mlp"]},
    {"metrics": "layers.batchnorm.*",
     "moves": {w: _THROUGHPUT for w in _CNN},
     "no_change": ["cli-mlp"],
     "note": "eval-mode BatchNorm; train-cnn runs it in train mode"},
    {"metrics": "layers.conv2d.*",
     "moves": {w: _THROUGHPUT for w in ["train-cnn"] + _CNN},
     "no_change": ["cli-mlp"]},
    {"metrics": "layers.maxpool2x2.*",
     "moves": {w: _THROUGHPUT for w in ["train-cnn"] + _CNN},
     "no_change": ["cli-mlp"]},
    {"metrics": "layers.flatten.*",
     "moves": {w: _THROUGHPUT for w in WORKLOADS},
     "no_change": []},
    {"metrics": "layers.dense.*",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": []},
    {"metrics": "layers.relu.*",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": []},
    {"metrics": "model.head_*",
     "moves": {w: _THROUGHPUT for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"],
     "note": "training walks the layers itself"},
    {"metrics": "model.train.self_s",
     "moves": {"train-cnn": _THROUGHPUT},
     "no_change": _CNN + ["cli-mlp"],
     "note": "shuffle, deepcopy and the momentum update"},
    {"metrics": "model.load.s",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": ["train-cnn"] + _CNN},
    {"metrics": "model.predict.s",
     "moves": {w: _THROUGHPUT for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"]},
    {"metrics": "geometry.nearest_boundary.*",
     "moves": {w: _THROUGHPUT for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"],
     "note": "the boundary-descent phase"},
    {"metrics": "attacks.project.*",
     "moves": {"attack-fab-cnn": _THROUGHPUT},
     "no_change": ["train-cnn", "cli-mlp"]},
    {"metrics": "attacks.fab.self_s",
     "moves": {"attack-fab-cnn": _THROUGHPUT},
     "no_change": ["train-cnn", "cli-mlp"]},
    {"metrics": "attacks.pgd.self_s",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": ["train-cnn", "attack-fab-cnn"],
     "note": "moves cli-mlp most: numpy overhead dominates without conv"},
    {"metrics": "attacks.random_start.s",
     "moves": {w: _THROUGHPUT for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"],
     "note": "moves cli-mlp most"},
    {"metrics": "attacks.restarts.s",
     "moves": {w: _THROUGHPUT for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"]},
    {"metrics": "attacks.descent.self_s",
     "moves": {w: _THROUGHPUT for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"]},
    {"metrics": "attacks.grad_evals_*",
     "moves": {w: ["examples_per_s"] for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"],
     "note": "fewer evaluations raise examples_per_s at equal grad_evals_per_s"},
    {"metrics": "attacks.*_ratio",
     "moves": {w: ["examples_per_s"] for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"]},
    {"metrics": "harness.worker_busy_ratio",
     "moves": {},
     "no_change": list(WORKLOADS),
     "note": "every workload runs one worker; it moves throughput only "
             "at workers > 1"},
    {"metrics": "harness.cpu_per_wall",
     "moves": {},
     "no_change": ["attack-fab-cnn", "cli-mlp"],
     "note": "GIL-bound code at one worker keeps it near 1"},
    {"metrics": "harness.evaluate.calls",
     "moves": {},
     "no_change": list(WORKLOADS),
     "note": "fixed by the workload; a change means the workload changed"},
    {"metrics": "harness.chunks",
     "moves": {},
     "no_change": list(WORKLOADS),
     "note": "fixed by the workload; a change means the workload changed"},
    {"metrics": "harness.self_s",
     "moves": {w: _THROUGHPUT for w in _CNN + ["cli-mlp"]},
     "no_change": ["train-cnn"],
     "note": "at workers > 1 this includes waiting for the pool"},
    {"metrics": "harness.export.s",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": ["train-cnn"] + _CNN},
    {"metrics": "harness.serialize_s",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": ["train-cnn"]},
    {"metrics": "data.load_idx.*",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": ["train-cnn"] + _CNN},
    {"metrics": "data.make_digits.s",
     "moves": {w: ["setup_s"] for w in WORKLOADS},
     "no_change": [],
     "note": "set-up only"},
    {"metrics": "cli.self_s",
     "moves": {"cli-mlp": _THROUGHPUT},
     "no_change": ["train-cnn"] + _CNN},
    {"metrics": "trace.overhead",
     "moves": {},
     "no_change": list(WORKLOADS),
     "note": "cost of the benchmark's own spans, not of the program"},
]

# Committed accuracy references for the full-size workloads, keyed by
# kernel backend: the closed range each accuracy must fall in.  ``clean``
# is training accuracy on train-cnn and clean test accuracy elsewhere;
# ``robust`` is robust accuracy (the export's on cli-mlp).  Workload seeds
# change the test data, so each range is centred on the mean over seeds
# 11-15 and 100-109 on the python backend and reaches at least 3.3
# standard errors of a test-set accuracy either side; the backends differ
# by far less (~0.3pp).  train-cnn trains from seed-derived weights, and
# six epochs reach a training accuracy of 0.59 to 1.0 depending on the
# seed, so its range only rejects training that stays near chance (0.25).
REFERENCE = {
    "python": {
        "train-cnn": {"clean": (0.4, 1.0)},
        "attack-fab-cnn": {"clean": (0.89, 1.0), "robust": (0.3, 0.5)},
        "cli-mlp": {"clean": (0.915, 1.0), "robust": (0.485, 0.645)},
    },
}


def benchmark_json():
    """The contents of BENCHMARK.json, derived from the lists above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }

