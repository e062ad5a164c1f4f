"""Write the fixed 84 CLI outputs and 24 refusals and print their sha256.

    python3 tools/output_set.py DIR [--src SRC]

Run it from any directory; boundarylab is imported from ``SRC`` (default:
the ``src/`` next to this file), with OPENBLAS_NUM_THREADS=1, so one copy
of the script hashes two checkouts with the same command list.  Into
``DIR`` go four checkpoints and, for each, six ``attack`` reports
(pgd/fab × none/random/boundary) and, per method, four ``sweep`` CSVs,
one ``export-repr`` CSV and one ``export-repr --format json`` export.
The set-up: 16x16 digits of classes 0–3, 40 per class to train (seed 0)
and 20 per class to attack (seed 1); mlp (hidden 16, n 2) and small_cnn,
2 epochs at batch 37, plain and adversarial (ε 0.02, α 0.005, 1 restart,
0+3); attacks at ε 0.02, α 0.005, 2 restarts, 3+8, seed 0; sweeps over
seeds {3, 4}, per method: n_init {0, 2, 5, 11} at init boundary, random
and none, and n_init {5, 0, 2, 2} (unsorted, a split repeated) at init
boundary.  Five more outputs leave keys to their defaults: a checkpoint
per preset with only ``model.preset`` set and no seed or ``train`` keys
(small_cnn and mlp on digits given only ``n_per_class``, linear on blobs
given no seed), an attack on the plain mlp of IDX files written from
the attack digits, and an attack on it with no method, init or seed.
Three more run small_cnn at the digits' default 28x28, where the head's
corner leaves the conv products odd column counts: a checkpoint trained
as the plain 16x16 one, its fab/boundary attack and its fab export-repr.

Each command's stdout is written beside its output as ``<output>.stdout``,
and the script prints ``sha256  file`` for every output and stdout.
Reports embed ``model_path``, so two checkouts compare byte for byte only
when both write into the same ``DIR``.

Then come 24 configs that the CLI refuses (:func:`refusals`): a value
of the wrong type or out of range in ``attack``, ``adversarial``,
``train`` (``lr`` and ``momentum`` included), ``sweep.seeds``,
``workers`` and the top-level or flag seed of every command, a digit
listed twice, an unknown key, a dataset of the wrong type, an IDX label
file of the wrong magic, a sample larger than its dataset, a flag
seed and a listed sweep seed whose restart seeds overflow, an attack
with an unknown method, a sweep with an unknown init, and sweeps with
an empty list of splits or of seeds.  Each
writes ``refused-<name>.txt``, its exit code and stderr, and its
``sha256`` line follows the outputs'.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRAIN = {"kind": "digits", "n_per_class": 40, "classes": [0, 1, 2, 3],
         "size": 16, "seed": 0}
TEST = dict(TRAIN, n_per_class=20, seed=1)
# the same digits at the default size, 28x28
TRAIN_28 = {k: v for k, v in TRAIN.items() if k != "size"}
TEST_28 = {k: v for k, v in TEST.items() if k != "size"}
MODELS = {"mlp": {"preset": "mlp", "hidden": [16], "n": 2},
          "small_cnn": {"preset": "small_cnn"}}
ADVERSARIAL = {"epsilon": 0.02, "alpha": 0.005, "restarts": 1,
               "n_init": 0, "n_attack": 3}
ATTACK = {"epsilon": 0.02, "alpha": 0.005, "restarts": 2, "n_init": 3,
          "n_attack": 8, "seed": 0}
SWEEP = {"n_init_values": [0, 2, 5, 11], "seeds": [3, 4]}
# only the required keys, so every other key takes its default
DEFAULT_DIGITS = {"kind": "digits", "n_per_class": 4}
DEFAULT_BLOBS = {"kind": "blobs", "n_per_class": 20, "k": 3, "d": 5,
                 "separation": 4.0}
# (output name suffix, init, n_init_values) of the sweeps beyond SWEEP's
MORE_SWEEPS = (("random", "random", SWEEP["n_init_values"]),
               ("none", "none", SWEEP["n_init_values"]),
               ("unsorted", "boundary", [5, 0, 2, 2]))


def commands(out):
    """(command, output name, config) for every output, in run order."""
    runs = []
    ckpts = {}
    for name, spec in MODELS.items():
        for adv in (False, True):
            tag = f"{name}-adv" if adv else name
            ckpts[tag] = out / f"{tag}.ckpt"
            cfg = {"seed": 0, "dataset": TRAIN, "model": spec,
                   "train": {"epochs": 2, "batch_size": 37}}
            if adv:
                cfg["adversarial"] = ADVERSARIAL
            runs.append(("train", ckpts[tag].name, cfg))
    for tag, ckpt in ckpts.items():
        base = {"dataset": TEST, "model_path": str(ckpt), "attack": ATTACK}
        for method in ("fab", "pgd"):
            for init in ("boundary", "none", "random"):
                runs.append(("attack", f"attack-{tag}-{method}-{init}.json",
                             dict(base, method=method, init=init)))
            runs.append(("sweep", f"sweep-{tag}-{method}.csv",
                         dict(base, method=method, sweep=SWEEP)))
            runs.append(("export-repr", f"repr-{tag}-{method}.csv",
                         dict(base, method=method)))
    # after the original 44 outputs, so their order stays as it was
    for tag, ckpt in ckpts.items():
        base = {"dataset": TEST, "model_path": str(ckpt), "attack": ATTACK}
        for method in ("fab", "pgd"):
            for suffix, init, values in MORE_SWEEPS:
                runs.append(("sweep", f"sweep-{tag}-{method}-{suffix}.csv",
                             dict(base, method=method, init=init,
                                  sweep=dict(SWEEP, n_init_values=values))))
    # after the 68 above; an export-repr output named .json is written
    # with --format json
    for tag, ckpt in ckpts.items():
        base = {"dataset": TEST, "model_path": str(ckpt), "attack": ATTACK}
        for method in ("fab", "pgd"):
            runs.append(("export-repr", f"repr-{tag}-{method}.json",
                         dict(base, method=method)))
    # after the 76 above
    for preset, dataset in (("small_cnn", DEFAULT_DIGITS),
                            ("mlp", DEFAULT_DIGITS),
                            ("linear", DEFAULT_BLOBS)):
        runs.append(("train", f"{preset}-defaults.ckpt",
                     {"dataset": dataset, "model": {"preset": preset}}))
    base = {"dataset": TEST, "model_path": str(ckpts["mlp"]),
            "attack": ATTACK}
    idx = {"kind": "idx", "images": str(out / "attack-images.idx"),
           "labels": str(out / "attack-labels.idx")}
    runs.append(("attack", "attack-mlp-idx.json", dict(base, dataset=idx)))
    runs.append(("attack", "attack-mlp-defaults.json",
                 dict(base, attack={k: v for k, v in ATTACK.items()
                                    if k != "seed"})))
    # after the 81 above
    ckpt = out / "small_cnn-28.ckpt"
    runs.append(("train", ckpt.name,
                 {"seed": 0, "dataset": TRAIN_28,
                  "model": MODELS["small_cnn"],
                  "train": {"epochs": 2, "batch_size": 37}}))
    base = {"dataset": TEST_28, "model_path": str(ckpt), "attack": ATTACK,
            "method": "fab"}
    runs.append(("attack", "attack-small_cnn-28-fab-boundary.json",
                 dict(base, init="boundary")))
    runs.append(("export-repr", "repr-small_cnn-28-fab.csv", base))
    return runs


def refusals(out):
    """(name, command, flags, config) of every refused run, in run
    order; the attack runs use the plain mlp checkpoint."""
    base = {"dataset": TEST, "model_path": str(out / "mlp.ckpt"),
            "attack": ATTACK, "sweep": SWEEP}
    unseeded = dict(base, seed=-1, attack={k: v for k, v in ATTACK.items()
                                           if k != "seed"})
    train = {"seed": 0, "dataset": TRAIN, "model": MODELS["mlp"],
             "train": {"epochs": 2, "batch_size": 37}}
    idx = {"kind": "idx", "images": str(out / "attack-images.idx"),
           "labels": str(out / "attack-images.idx")}
    return [
        ("attack-restarts-float", "attack", [],
         dict(base, attack=dict(ATTACK, restarts=2.0))),
        ("train-epochs-float", "train", [], dict(train, train={"epochs": 1.5})),
        ("attack-workers-zero", "attack", [], dict(base, workers=0)),
        ("train-epochs-negative", "train", [],
         dict(train, train={"epochs": -1})),
        ("attack-seed-flag-negative", "attack", ["--seed", "-1"], base),
        ("attack-seed-top-negative", "attack", [], unseeded),
        ("sweep-seed-top-negative", "sweep", [], unseeded),
        ("export-repr-seed-top-negative", "export-repr", [], unseeded),
        ("verify-seed-negative", "verify", ["--seed", "-1"], {}),
        ("sweep-seeds-negative", "sweep", [],
         dict(base, sweep=dict(SWEEP, seeds=[3, -1]))),
        ("adversarial-alpha-zero", "train", [],
         dict(train, adversarial=dict(ADVERSARIAL, alpha=0))),
        ("digits-classes-twice", "train", [],
         dict(train, dataset=dict(TRAIN, classes=[1, 1]))),
        ("attack-unknown-key", "attack", [],
         dict(base, attack=dict(ATTACK, restartz=2))),
        ("attack-dataset-list", "attack", [], dict(base, dataset=[TEST])),
        ("attack-idx-label-magic", "attack", [], dict(base, dataset=idx)),
        ("attack-seed-overflow", "attack", ["--seed", str(2**63 - 2)],
         base),
        # after the 16 above
        ("train-lr-negative", "train", [],
         dict(train, train={"epochs": 1, "lr": -1})),
        ("train-momentum-above-one", "train", [],
         dict(train, train={"epochs": 1, "momentum": 1.5})),
        ("attack-sample-above-size", "attack", [],
         dict(base, dataset=dict(TEST, sample={"n": 100}))),
        ("sweep-listed-seed-overflow", "sweep", [],
         dict(base, sweep=dict(SWEEP, seeds=[3, 2**63 - 2]))),
        # after the 20 above
        ("attack-method-unknown", "attack", [], dict(base, method="bogus")),
        ("sweep-init-unknown", "sweep", [], dict(base, init="nonsense")),
        # after the 22 above
        ("sweep-n-init-values-empty", "sweep", [],
         dict(base, sweep=dict(SWEEP, n_init_values=[]))),
        ("sweep-seeds-empty", "sweep", [],
         dict(base, sweep=dict(SWEEP, seeds=[]))),
    ]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", help="output directory (created if missing)")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory that holds the boundarylab package")
    args = parser.parse_args(argv)
    out = Path(args.dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(args.src.resolve()))
    from boundarylab import cli, data

    data.write_idx(data.make_digits(TEST["n_per_class"],
                                    classes=TEST["classes"],
                                    size=TEST["size"], seed=TEST["seed"]),
                   out / "attack-images.idx", out / "attack-labels.idx")
    for command, name, cfg in commands(out):
        config = out / f"{name}.config.json"
        config.write_text(json.dumps(dict(cfg, out=str(out / name))))
        cli_args = [command, "--config", str(config)]
        if command == "export-repr" and name.endswith(".json"):
            cli_args += ["--format", "json"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(cli_args)
        if code != 0:
            sys.exit(f"{command} for {name} exited {code}")
        (out / f"{name}.stdout").write_text(stdout.getvalue())
        for written in (name, f"{name}.stdout"):
            print(f"{sha256(out / written)}  {written}", flush=True)
    for name, command, flags, cfg in refusals(out):
        config = out / f"refused-{name}.config.json"
        config.write_text(json.dumps(dict(cfg, out=str(out / name))))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(config), *flags])
        written = out / f"refused-{name}.txt"
        written.write_text(f"exit {code}\n{stderr.getvalue()}")
        print(f"{sha256(written)}  {written.name}", flush=True)


if __name__ == "__main__":
    # before numpy loads: one BLAS thread, so every output is reproducible
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
