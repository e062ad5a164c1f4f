"""Command-line entry point: one binary, verb subcommands.

Usage: ``boundarylab <command> [--config FILE] [--seed N] [--workers N]
[--out PATH]``.  Commands: ``train`` (fit and checkpoint a model),
``attack`` (robust-accuracy report as JSON), ``sweep`` (budget-split
series as CSV), ``export-repr`` (representation-space CSV/JSON), and
``verify`` (invariant self-checks).  ``attack``, ``sweep`` and
``export-repr`` share one evaluation loop: examples are attacked in
fixed chunks, and an example the model already misclassifies is not
attacked (export-repr records the input itself as its adversarial
point, with success true).

Config file schema (JSON object; flags override file values):

  seed      int     primary seed for the command (train seed for
                    ``train``, attack seed otherwise)
  workers   int     evaluation thread count; wall time only, never
                    results
  out       str     output path (required by every command but verify)
  dataset   object  one of
                    {"kind": "digits", "n_per_class": N, "classes":
                     [..], "size": 28, "seed": S}
                    {"kind": "blobs", "n_per_class": N, "k": K, "d": D,
                     "separation": SEP, "seed": S}
                    {"kind": "idx", "images": PATH, "labels": PATH}
                    plus optional "keep": [labels] (class filter) and
                    "sample": {"n": N, "seed": S}, applied in that
                    order after loading
  model     object  (train) {"preset": "small_cnn"|"mlp"|"linear",
                    "k": K, "n": N, "hidden": [..], "seed": S}
  train     object  (train) {"epochs": E, "lr": .., "momentum": ..,
                    "batch_size": ..}
  adversarial object (train, optional) AttackConfig fields; enables
                    adversarial training
  model_path str    (attack/sweep/export-repr) checkpoint to load
  attack    object  AttackConfig fields: epsilon, alpha, eta_init,
                    restarts, n_init, n_attack, fab_eta, fab_beta_max,
                    fab_mu, seed
  method    str     "pgd" (default) or "fab"
  init      str     "boundary" (default), "random", or "none"
  sweep     object  (sweep) {"n_init_values": [..], "seeds": [..]}

Every output embeds the fully resolved config, seed, and toolkit
version; ``workers`` and ``out`` are deliberately excluded so reruns
with different worker counts or output paths stay byte-identical.

Exit codes: 0 ok, 1 config error, 2 invariant/computation failure,
3 I/O error.
"""

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__, attacks, data, geometry, harness, model, verify

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid run configuration; message names the offending field."""


class InputError(Exception):
    """Unreadable or malformed input file."""


def _get(cfg, path, default=_REQUIRED):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: required key is missing")
            return default
        node = node[part]
    return node


def _expect(value, path, types):
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in types) \
            if isinstance(types, tuple) else types.__name__
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")
    return value


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return cfg


def _dataset_from(cfg):
    """Build the dataset named by cfg["dataset"]; returns it with the
    fully resolved spec that produced it."""
    spec = _expect(_get(cfg, "dataset"), "dataset", dict)
    kind = _get(spec, "kind")
    if kind == "digits":
        resolved = {
            "kind": "digits",
            "n_per_class": int(_get(spec, "n_per_class")),
            "classes": [int(c) for c in _get(spec, "classes",
                                             list(range(10)))],
            "size": int(_get(spec, "size", 28)),
            "seed": int(_get(spec, "seed", 0)),
        }
        ds = data.make_digits(
            resolved["n_per_class"], classes=tuple(resolved["classes"]),
            size=resolved["size"], seed=resolved["seed"],
        )
    elif kind == "blobs":
        resolved = {
            "kind": "blobs",
            "n_per_class": int(_get(spec, "n_per_class")),
            "k": int(_get(spec, "k")),
            "d": int(_get(spec, "d")),
            "separation": float(_get(spec, "separation")),
            "seed": int(_get(spec, "seed", 0)),
        }
        ds = data.make_blobs(
            resolved["n_per_class"], resolved["k"], resolved["d"],
            resolved["separation"], resolved["seed"],
        )
    elif kind == "idx":
        resolved = {
            "kind": "idx",
            "images": str(_get(spec, "images")),
            "labels": str(_get(spec, "labels")),
        }
        try:
            ds = data.load_idx(resolved["images"], resolved["labels"])
        except (OSError, ValueError) as exc:
            raise InputError(f"dataset.idx: {exc}") from exc
    else:
        raise ConfigError(
            f"dataset.kind: {kind!r} is not one of digits/blobs/idx"
        )
    if "keep" in spec:
        keep = [int(c) for c in _expect(spec["keep"], "dataset.keep", list)]
        resolved["keep"] = keep
        try:
            ds = data.filter_classes(ds, keep)
        except ValueError as exc:
            raise ConfigError(f"dataset.keep: {exc}") from exc
    if "sample" in spec:
        sub = _expect(spec["sample"], "dataset.sample", dict)
        n = int(_get(sub, "n"))
        sd = int(_get(sub, "seed", 0))
        resolved["sample"] = {"n": n, "seed": sd}
        try:
            ds = data.sample(ds, n, sd)
        except ValueError as exc:
            raise ConfigError(f"dataset.sample: {exc}") from exc
    return ds, resolved


_ATTACK_KEYS = {
    "epsilon", "alpha", "eta_init", "restarts", "n_init", "n_attack",
    "norm", "fab_eta", "fab_beta_max", "fab_mu", "seed",
}


def _attack_from(cfg, seed_override):
    spec = dict(_expect(_get(cfg, "attack", {}), "attack", dict))
    unknown = set(spec) - _ATTACK_KEYS
    if unknown:
        raise ConfigError(
            f"attack.{sorted(unknown)[0]}: unknown key (known: "
            f"{', '.join(sorted(_ATTACK_KEYS))})"
        )
    if seed_override is not None:
        spec["seed"] = seed_override
    elif "seed" not in spec:
        spec["seed"] = int(_get(cfg, "seed", 0))
    try:
        config = attacks.AttackConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"attack: {exc}") from exc
    method = _get(cfg, "method", "pgd")
    init = _get(cfg, "init", "boundary")
    if method not in ("pgd", "fab"):
        raise ConfigError(f"method: {method!r} is not one of pgd/fab")
    if init not in ("boundary", "random", "none"):
        raise ConfigError(
            f"init: {init!r} is not one of boundary/random/none"
        )
    return config, method, init


def _load_model(cfg):
    path = str(_get(cfg, "model_path"))
    try:
        return model.Classifier.load(path)
    except model.CheckpointError as exc:
        raise InputError(f"model_path: {exc}") from exc
    except OSError as exc:
        raise InputError(f"model_path: cannot read {path}: {exc}") from exc


def _model_and_dataset(cfg):
    """The checkpoint and a dataset whose labels are classes of it."""
    clf = _load_model(cfg)
    ds, dspec = _dataset_from(cfg)
    try:
        harness.check_labels(clf, ds.labels)
    except ValueError as exc:
        # an IDX label file is input data; other kinds come from the config
        error = InputError if dspec["kind"] == "idx" else ConfigError
        raise error(f"dataset: {exc}") from exc
    return clf, ds, dspec


def _out_path(cfg, args):
    out = args.out or _get(cfg, "out", None)
    if out is None:
        raise ConfigError("out: required (flag --out or config key)")
    return out


def _write_text(path, text):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _workers(cfg, args):
    w = args.workers if args.workers is not None else _get(cfg, "workers", 1)
    w = int(w)
    if w < 1:
        raise ConfigError(f"workers: {w} is not >= 1")
    return w


def cmd_train(args):
    cfg = _load_config(args.config)
    ds, dspec = _dataset_from(cfg)
    mspec = _expect(_get(cfg, "model"), "model", dict)
    preset = _get(mspec, "preset")
    k = int(_get(mspec, "k", ds.k))
    mseed = int(_get(mspec, "seed", 0))
    if preset == "small_cnn":
        n = int(_get(mspec, "n", 2))
        if len(ds.input_shape) != 3:
            raise ConfigError(
                f"model.preset: small_cnn needs image data, dataset shape "
                f"is {ds.input_shape}"
            )
        clf = model.small_cnn(k=k, n=n, input_shape=ds.input_shape,
                              seed=mseed)
        resolved_model = {"preset": preset, "k": k, "n": n, "seed": mseed}
    elif preset == "mlp":
        n = int(_get(mspec, "n", 8))
        hidden = [int(h) for h in _get(mspec, "hidden", [32])]
        clf = model.mlp(ds.input_shape, k, n=n, hidden=tuple(hidden),
                        seed=mseed)
        resolved_model = {"preset": preset, "k": k, "n": n,
                          "hidden": hidden, "seed": mseed}
    elif preset == "linear":
        if len(ds.input_shape) != 1:
            raise ConfigError(
                f"model.preset: linear needs flat data, dataset shape is "
                f"{ds.input_shape}"
            )
        clf = model.linear_model(ds.input_shape[0], k, seed=mseed)
        resolved_model = {"preset": preset, "k": k, "seed": mseed}
    else:
        raise ConfigError(
            f"model.preset: {preset!r} is not one of small_cnn/mlp/linear"
        )

    tspec = _expect(_get(cfg, "train", {}), "train", dict)
    epochs = int(_get(tspec, "epochs", 4))
    lr = float(_get(tspec, "lr", 0.05))
    momentum = float(_get(tspec, "momentum", 0.9))
    batch_size = int(_get(tspec, "batch_size", 128))
    seed = args.seed if args.seed is not None else int(_get(cfg, "seed", 0))
    resolved = {
        "command": "train",
        "dataset": dspec,
        "model": resolved_model,
        "train": {"epochs": epochs, "lr": lr, "momentum": momentum,
                  "batch_size": batch_size},
        "seed": seed,
        "adversarial": None,
    }
    if "adversarial" in cfg:
        adv_cfg, _, _ = _attack_from({"attack": cfg["adversarial"]}, None)
        resolved["adversarial"] = asdict(adv_cfg)
        fitted = model.adv_train(clf, ds, adv_cfg, epochs=epochs, lr=lr,
                                 momentum=momentum, batch_size=batch_size,
                                 seed=seed)
    else:
        fitted = model.train(clf, ds, epochs=epochs, lr=lr,
                             momentum=momentum, batch_size=batch_size,
                             seed=seed)
    out = _out_path(cfg, args)
    fitted.meta["version"] = __version__
    fitted.meta["run_config"] = resolved
    fitted.save(out)
    acc = float((fitted.predict(ds.images) == ds.labels).mean())
    print(f"checkpoint: {out} (train accuracy {acc:.4f})")
    return EXIT_OK


def _resolved_eval_config(command, dspec, cfg, config, method, init):
    return {
        "command": command,
        "model_path": str(_get(cfg, "model_path")),
        "dataset": dspec,
        "attack": asdict(config),
        "method": method,
        "init": init,
        "seed": config.seed,
    }


def cmd_attack(args):
    cfg = _load_config(args.config)
    clf, ds, dspec = _model_and_dataset(cfg)
    config, method, init = _attack_from(cfg, args.seed)
    bs = geometry.boundary_set_for(clf)
    report = harness.evaluate(clf, bs, ds, config, method=method, init=init,
                              workers=_workers(cfg, args))
    resolved = _resolved_eval_config("attack", dspec, cfg, config, method,
                                     init)
    payload = report.to_dict()
    payload["run_config"] = resolved
    out = _out_path(cfg, args)
    _write_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(
        f"robust accuracy {report.robust_accuracy:.4f} "
        f"(clean {report.clean_accuracy:.4f}, "
        f"{report.successes}/{report.evaluated} successes) -> {out}"
    )
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_config(args.config)
    clf, ds, dspec = _model_and_dataset(cfg)
    config, method, init = _attack_from(cfg, args.seed)
    sspec = _expect(_get(cfg, "sweep"), "sweep", dict)
    values = [int(v) for v in
              _expect(_get(sspec, "n_init_values"), "sweep.n_init_values",
                      list)]
    seeds = _get(sspec, "seeds", None)
    if seeds is not None:
        seeds = tuple(int(s) for s in
                      _expect(seeds, "sweep.seeds", list))
    bs = geometry.boundary_set_for(clf)
    try:
        result = harness.sweep_n_init(
            clf, bs, ds, config, values, method=method, init=init,
            seeds=seeds, workers=_workers(cfg, args),
        )
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    resolved = _resolved_eval_config("sweep", dspec, cfg, config, method,
                                     init)
    resolved["sweep"] = {"n_init_values": values,
                         "seeds": list(seeds) if seeds else [config.seed]}
    out = _out_path(cfg, args)
    _write_text(out, result.to_csv(
        meta={"run_config": json.dumps(resolved, sort_keys=True)}))
    series = ", ".join(
        "-" if m is None else f"{m:.2f}"
        for m in result.mean_iterations_series()
    )
    print(f"mean iterations-to-success by n_init: {series} -> {out}")
    return EXIT_OK


def cmd_export_repr(args):
    cfg = _load_config(args.config)
    clf, ds, dspec = _model_and_dataset(cfg)
    config, method, init = _attack_from(cfg, args.seed)
    bs = geometry.boundary_set_for(clf)
    _, outcome = harness.attack_dataset(clf, bs, ds, config, method=method,
                                        init=init, workers=_workers(cfg, args))
    export = harness.export_representation_space(clf, bs, ds, outcome)
    resolved = _resolved_eval_config("export-repr", dspec, cfg, config,
                                     method, init)
    out = _out_path(cfg, args)
    if args.format == "json":
        payload = export.to_dict()
        payload["run_config"] = resolved
        _write_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _write_text(out, export.to_csv(
            meta={"run_config": json.dumps(resolved, sort_keys=True)}))
    print(
        f"exported {len(export.records)} records, "
        f"{len(export.boundaries)} boundary rows -> {out}"
    )
    return EXIT_OK


def cmd_verify(args):
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else int(_get(cfg, "seed", 0))
    results = verify.run_all(seed=seed)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
        failed += 0 if r.ok else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed")
        return EXIT_INVARIANT
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boundarylab",
        description="Decision-boundary geometry and attack-initialization "
                    "toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"boundarylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("train", cmd_train, "fit a model and write a checkpoint"),
        ("attack", cmd_attack, "evaluate robust accuracy, write JSON report"),
        ("sweep", cmd_sweep, "budget-split sweep, write CSV series"),
        ("export-repr", cmd_export_repr,
         "export representation vectors and boundary rows"),
        ("verify", cmd_verify, "run the invariant self-checks"),
    ]
    for name, fn, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the primary seed")
        p.add_argument("--workers", type=int,
                       help="evaluation threads (results unaffected)")
        p.add_argument("--out", help="output path (overrides config)")
        if name == "export-repr":
            p.add_argument("--format", choices=("csv", "json"),
                           default="csv", help="output format")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, model.TrainingDivergedError) as exc:
        # config-side problems are converted to ConfigError at the edges;
        # a ValueError escaping the library is a violated invariant
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
