"""The benchmark's workloads, each driven through boundarylab's public API.

A workload is built from a workload seed, and the seeds of the inputs an
iteration works on are derived from it.  train-cnn derives its data,
model-init and training seeds.  attack-fab-cnn and cli-mlp derive their
test data and attack seeds but attack one fixed model (acceptance 8's
small_cnn, acceptance 7's mlp) trained in set-up from seed 0.  Across
model seeds the robust accuracy at these budgets ranges from 0.09 to
0.42 (small_cnn) and 0.17 to 0.56 (mlp), which changes the attack work
per iteration up to 2.7x: the run-to-run spread would be the model's,
not the program's.

``setup`` generates the data, trains the model to attack and writes the
files an iteration reads.  ``warmup`` runs one iteration, which also
yields the reference output digest and the iteration's example and
gradient-evaluation counts.  ``iterate`` runs one timed iteration and
returns the digest of its output bytes.

``small=True`` shrinks every size so the benchmark's own tests can run
each workload in seconds; the full sizes are what BENCHMARK.json runs.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

from boundarylab import attacks, cli, data, geometry, harness, model

import spans

CLASSES = (0, 1, 2, 3)
MODEL_SEED = 0  # data, init and training seed of the model to attack


def _digest(*blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def _count_grad_evals(run):
    """Run ``run()`` and count the gradient evaluations its restarts spend."""
    rec = spans.Recorder()
    p = spans.Patches()
    for owner in (attacks, harness):
        p.set(owner, "run_restarts_batch",
              rec.wrap("attacks.restarts", owner.run_restarts_batch,
                       spans.restart_counts(rec, via_harness=False)))
    try:
        out = run()
    finally:
        p.restore()
    return out, rec.counts["evals"]


class Workload:
    def __init__(self, seed, workdir):
        ss = np.random.SeedSequence(int(seed))
        (self.data_seed, self.test_seed, self.model_seed, self.train_seed,
         self.attack_seed) = (int(s) for s in ss.generate_state(5))
        self.workdir = workdir
        self.examples = 0
        self.grad_evals = 0

    def template(self):
        """A classifier of the workload's architecture, for kernel labels."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def iterate(self):
        raise NotImplementedError

    def accuracy(self):
        """{"clean": .., "robust": ..} of the warm-up output."""
        raise NotImplementedError


class TrainCNN(Workload):
    name = "train-cnn"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir)
        self.n_per_class, self.epochs = (8, 1) if small else (128, 6)

    def template(self):
        return model.small_cnn(k=4, n=2, input_shape=(1, 16, 16))

    def setup(self):
        self.train_set = data.make_digits(self.n_per_class, classes=CLASSES,
                                          size=16, seed=self.data_seed)

    def iterate(self):
        clf = model.train(
            model.small_cnn(k=4, n=2, input_shape=(1, 16, 16),
                            seed=self.model_seed),
            self.train_set, epochs=self.epochs, batch_size=128,
            seed=self.train_seed)
        path = self.workdir / "trained.ckpt"
        clf.save(path)
        self.trained = clf
        return _digest(path.read_bytes())

    def warmup(self):
        digest = self.iterate()
        self.examples = len(self.train_set) * self.epochs
        self.grad_evals = self.examples
        return digest

    def accuracy(self):
        pred = self.trained.predict(self.train_set.images)
        return {"clean": float((pred == self.train_set.labels).mean())}


class AttackFAB(Workload):
    name = "attack-fab-cnn"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir)
        # the test set is one harness chunk
        self.train_per_class, self.epochs, self.test_per_class = (
            (8, 1, 4) if small else (100, 6, 64))

    def template(self):
        return model.small_cnn(k=4, n=2, input_shape=(1, 16, 16))

    def setup(self):
        train_set = data.make_digits(self.train_per_class, classes=CLASSES,
                                     size=16, seed=MODEL_SEED)
        clf = model.train(
            model.small_cnn(k=4, n=2, input_shape=(1, 16, 16),
                            seed=MODEL_SEED),
            train_set, epochs=self.epochs, seed=MODEL_SEED)
        path = clf.save(self.workdir / "model.ckpt")
        self.clf = model.Classifier.load(path)
        self.bs = geometry.boundary_set_for(self.clf)
        self.test_set = data.make_digits(self.test_per_class, classes=CLASSES,
                                         size=16, seed=self.test_seed)
        # acceptance 8's evaluation config
        self.config = attacks.AttackConfig(
            epsilon=0.05, alpha=0.01, restarts=2, n_init=5, n_attack=10,
            seed=self.attack_seed)

    def iterate(self):
        self.report = harness.evaluate(self.clf, self.bs, self.test_set,
                                       self.config, method="fab",
                                       init="boundary")
        return _digest(self.report.to_json().encode())

    def warmup(self):
        digest, self.grad_evals = _count_grad_evals(self.iterate)
        self.examples = len(self.test_set)
        return digest

    def accuracy(self):
        return {"clean": self.report.clean_accuracy,
                "robust": self.report.robust_accuracy}


class CliMLP(Workload):
    name = "cli-mlp"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir)
        self.train_per_class, self.test_per_class, self.epochs = (
            (10, 10, 2) if small else (150, 128, 12))

    def template(self):
        return model.mlp((1, 14, 14), 4, n=2, hidden=(32,))

    def setup(self):
        w = self.workdir
        train_set = data.make_digits(self.train_per_class, classes=CLASSES,
                                     size=14, seed=MODEL_SEED)
        clf = model.train(
            model.mlp((1, 14, 14), 4, n=2, hidden=(32,), seed=MODEL_SEED),
            train_set, epochs=self.epochs, seed=MODEL_SEED)
        clf.save(w / "mlp.ckpt")
        test_set = data.make_digits(self.test_per_class, classes=CLASSES,
                                    size=14, seed=self.test_seed)
        data.write_idx(test_set, w / "images.idx", w / "labels.idx")
        common = {
            "dataset": {"kind": "idx", "images": str(w / "images.idx"),
                        "labels": str(w / "labels.idx")},
            "model_path": str(w / "mlp.ckpt"),
        }
        # acceptance 7's attack at total budget 25
        attack = {"epsilon": 0.03, "alpha": 0.004, "eta_init": 0.008,
                  "restarts": 4, "n_init": 0, "n_attack": 25,
                  "seed": self.attack_seed}
        self.sweep_values = [0, 2, 4]
        self.sweep_seeds = [self.attack_seed, self.attack_seed + 1]
        sweep = dict(common, attack=attack, out=str(w / "sweep.csv"),
                     sweep={"n_init_values": self.sweep_values,
                            "seeds": self.sweep_seeds})
        export = dict(common, attack=dict(attack, n_init=4, n_attack=21),
                      out=str(w / "repr.csv"))
        (w / "sweep.json").write_text(json.dumps(sweep))
        (w / "export.json").write_text(json.dumps(export))
        self.n_test = len(test_set)

    def _main(self, argv):
        # the commands print a one-line summary; keep stdout for results
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"boundarylab {argv[0]} exited with {code}")

    def iterate(self):
        w = self.workdir
        self._main(["sweep", "--config", str(w / "sweep.json")])
        self._main(["export-repr", "--config", str(w / "export.json"),
                    "--format", "csv"])
        return _digest((w / "sweep.csv").read_bytes(),
                       (w / "repr.csv").read_bytes())

    def warmup(self):
        digest, self.grad_evals = _count_grad_evals(self.iterate)
        points = len(self.sweep_values) * len(self.sweep_seeds)
        self.examples = self.n_test * (points + 1)
        return digest

    def accuracy(self):
        rows = [line.split(",") for line in
                (self.workdir / "repr.csv").read_text().splitlines()
                if line.startswith("original,")]
        # columns: kind,index,class_i,class_j,label,predicted,success,...
        clean = np.mean([r[4] == r[5] for r in rows])
        robust = np.mean([r[6] == "false" for r in rows])
        return {"clean": float(clean), "robust": float(robust)}


WORKLOADS = {w.name: w for w in (TrainCNN, AttackFAB, CliMLP)}
