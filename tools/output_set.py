"""Write the fixed set of 76 CLI outputs and print their sha256.

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
boundary.

Each command's stdout is written beside its output as ``<output>.stdout``,
and the script prints ``sha256  file`` for every output and stdout.
Reports embed ``model_path``, so two checkouts compare byte for byte only
when both write into the same ``DIR``.
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
MODELS = {"mlp": {"preset": "mlp", "hidden": [16], "n": 2},
          "small_cnn": {"preset": "small_cnn"}}
ADVERSARIAL = {"epsilon": 0.02, "alpha": 0.005, "restarts": 1,
               "n_init": 0, "n_attack": 3}
ATTACK = {"epsilon": 0.02, "alpha": 0.005, "restarts": 2, "n_init": 3,
          "n_attack": 8, "seed": 0}
SWEEP = {"n_init_values": [0, 2, 5, 11], "seeds": [3, 4]}
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
    return runs


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
    from boundarylab import cli

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


if __name__ == "__main__":
    # before numpy loads: one BLAS thread, so every output is reproducible
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
