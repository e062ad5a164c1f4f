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
                    restarts, n_init, n_attack, seed
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
from dataclasses import asdict, fields, replace
from functools import partial

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


def _checked(value, path, kind):
    # JSON true/false are Python bools, which are ints; a float takes an int
    if isinstance(value, bool) and kind is not bool:
        ok = False
    elif kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(
            f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    # JSON NaN, ±Infinity and an integer past the float range all fail
    if kind is float and not abs(value) <= sys.float_info.max:
        got = "an int too big for a float" if isinstance(value, int) else value
        raise ConfigError(f"{path}: must be finite, got {got}")
    return float(value) if kind is float else value


def _typed(cfg, path, kind, default=_REQUIRED):
    """The value at ``path`` (dotted), checked to be a ``kind``.

    A float is returned as float; ``kind=[int]`` asks for a list of ints.
    A missing or null optional key gives ``default``, unchecked.
    """
    value = _get(cfg, path, _REQUIRED if default is _REQUIRED else None)
    if value is None and default is not _REQUIRED:
        return default
    if isinstance(kind, list):
        return [_checked(v, f"{path}[{i}]", kind[0])
                for i, v in enumerate(_checked(value, path, list))]
    return _checked(value, path, kind)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # bad syntax, or an int past the digit limit
        raise ConfigError(f"config {path} is not valid JSON or has an "
                          f"integer too long to read: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return cfg


def _dataset_from(cfg):
    """Build the dataset named by cfg["dataset"]; returns it with the
    fully resolved spec that produced it."""
    spec = _typed(cfg, "dataset", dict)
    kind = _get(cfg, "dataset.kind")
    if kind == "digits":
        resolved = {
            "kind": "digits",
            "n_per_class": _typed(cfg, "dataset.n_per_class", int),
            "classes": _typed(cfg, "dataset.classes", [int],
                              list(range(10))),
            "size": _typed(cfg, "dataset.size", int, 28),
            "seed": _typed(cfg, "dataset.seed", int, 0),
        }
        try:
            ds = data.make_digits(
                resolved["n_per_class"], classes=tuple(resolved["classes"]),
                size=resolved["size"], seed=resolved["seed"],
            )
        except ValueError as exc:  # names the argument, which is the key
            raise ConfigError(f"dataset.{exc}") from exc
    elif kind == "blobs":
        resolved = {
            "kind": "blobs",
            "n_per_class": _typed(cfg, "dataset.n_per_class", int),
            "k": _typed(cfg, "dataset.k", int),
            "d": _typed(cfg, "dataset.d", int),
            "separation": _typed(cfg, "dataset.separation", float),
            "seed": _typed(cfg, "dataset.seed", int, 0),
        }
        try:
            ds = data.make_blobs(
                resolved["n_per_class"], resolved["k"], resolved["d"],
                resolved["separation"], resolved["seed"],
            )
        except ValueError as exc:
            raise ConfigError(f"dataset.{exc}") from exc
    elif kind == "idx":
        resolved = {
            "kind": "idx",
            "images": _typed(cfg, "dataset.images", str),
            "labels": _typed(cfg, "dataset.labels", str),
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
        keep = _typed(cfg, "dataset.keep", [int])
        resolved["keep"] = keep
        try:
            ds = data.filter_classes(ds, keep)
        except ValueError as exc:
            raise ConfigError(f"dataset.keep: {exc}") from exc
    if "sample" in spec:
        _typed(cfg, "dataset.sample", dict)
        n = _typed(cfg, "dataset.sample.n", int)
        sd = _typed(cfg, "dataset.sample.seed", int, 0)
        resolved["sample"] = {"n": n, "seed": sd}
        try:
            ds = data.sample(ds, n, sd)
        except ValueError as exc:
            raise ConfigError(f"dataset.sample: {exc}") from exc
    if len(ds) == 0:
        # an IDX file is input data; other kinds come from the config
        error = InputError if kind == "idx" else ConfigError
        raise error(f"dataset: the {kind} dataset has no examples")
    return ds, resolved


_ATTACK_KEYS = {f.name for f in fields(attacks.AttackConfig)}


def _attack_from(cfg, seed_override):
    spec = dict(_typed(cfg, "attack", dict, {}))
    unknown = set(spec) - _ATTACK_KEYS
    if unknown:
        raise ConfigError(
            f"attack.{sorted(unknown)[0]}: unknown key (known: "
            f"{', '.join(sorted(_ATTACK_KEYS))})"
        )
    if seed_override is not None:
        spec["seed"] = seed_override
    elif "seed" not in spec:
        spec["seed"] = _typed(cfg, "seed", int, 0)
    try:
        config = attacks.AttackConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"attack: {exc}") from exc
    method = _get(cfg, "method", "pgd")
    init = _get(cfg, "init", "boundary")
    for key, value, choices in (("method", method, attacks._METHODS),
                                ("init", init, attacks._INITS)):
        if value not in choices:
            raise ConfigError(
                f"{key}: {value!r} is not one of {'/'.join(choices)}")
    return config, method, init


def _load_model(cfg):
    path = _typed(cfg, "model_path", str)
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
    # an IDX file is input data; other kinds come from the config
    error = InputError if dspec["kind"] == "idx" else ConfigError
    try:
        harness.check_labels(clf, ds.labels)
    except ValueError as exc:
        raise error(f"dataset: {exc}") from exc
    if ds.input_shape != clf.input_shape:
        raise error(f"dataset: images have shape {ds.input_shape}, the "
                    f"checkpoint takes {clf.input_shape}")
    return clf, ds, dspec


def _check_seeds(config, n, seeds=None):
    """Every attack seed's restart seeds fit for an n-example dataset."""
    for seed in seeds or (config.seed,):
        try:
            harness.check_seeds(replace(config, seed=seed), n)
        except ValueError as exc:
            raise ConfigError(f"seed: {exc}") from exc


def _out_path(cfg, args):
    out = args.out or _typed(cfg, "out", str, None)
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
    w = args.workers
    if w is None:
        w = _typed(cfg, "workers", int, 1)
    if w < 1:
        raise ConfigError(f"workers: {w} is not >= 1")
    return w


def cmd_train(args):
    cfg = _load_config(args.config)
    out = _out_path(cfg, args)
    ds, dspec = _dataset_from(cfg)
    _typed(cfg, "model", dict)
    preset = _get(cfg, "model.preset")
    k = _typed(cfg, "model.k", int, ds.k)
    mseed = _typed(cfg, "model.seed", int, 0)
    if preset == "small_cnn":
        n = _typed(cfg, "model.n", int, 2)
        if len(ds.input_shape) != 3:
            raise ConfigError(
                f"model.preset: small_cnn needs image data, dataset shape "
                f"is {ds.input_shape}"
            )
        build = partial(model.small_cnn, k=k, n=n,
                        input_shape=ds.input_shape, seed=mseed)
        resolved_model = {"preset": preset, "k": k, "n": n, "seed": mseed}
    elif preset == "mlp":
        n = _typed(cfg, "model.n", int, 8)
        hidden = _typed(cfg, "model.hidden", [int], [32])
        build = partial(model.mlp, ds.input_shape, k, n=n,
                        hidden=tuple(hidden), seed=mseed)
        resolved_model = {"preset": preset, "k": k, "n": n,
                          "hidden": hidden, "seed": mseed}
    elif preset == "linear":
        if len(ds.input_shape) != 1:
            raise ConfigError(
                f"model.preset: linear needs flat data, dataset shape is "
                f"{ds.input_shape}"
            )
        build = partial(model.linear_model, ds.input_shape[0], k,
                        seed=mseed)
        resolved_model = {"preset": preset, "k": k, "seed": mseed}
    else:
        raise ConfigError(
            f"model.preset: {preset!r} is not one of small_cnn/mlp/linear"
        )
    try:
        clf = build()
    except ValueError as exc:  # names the preset argument, which is the key
        raise ConfigError(f"model.{exc}") from exc
    try:
        harness.check_labels(clf, ds.labels)
    except ValueError as exc:
        raise ConfigError(f"model.k: {exc}") from exc

    _typed(cfg, "train", dict, {})
    epochs = _typed(cfg, "train.epochs", int, 4)
    lr = _typed(cfg, "train.lr", float, 0.05)
    momentum = _typed(cfg, "train.momentum", float, 0.9)
    batch_size = _typed(cfg, "train.batch_size", int, 128)
    seed = args.seed if args.seed is not None else _typed(cfg, "seed", int, 0)
    resolved = {
        "command": "train",
        "dataset": dspec,
        "model": resolved_model,
        "train": {"epochs": epochs, "lr": lr, "momentum": momentum,
                  "batch_size": batch_size},
        "seed": seed,
        "adversarial": None,
    }
    adversarial = "adversarial" in cfg
    try:
        model.check_fit(len(ds), epochs=epochs, batch_size=batch_size,
                        seed=seed, adversarial=adversarial)
    except ValueError as exc:  # names the argument; the seed is top level
        where = "" if str(exc).startswith("seed:") else "train."
        raise ConfigError(where + str(exc)) from exc
    if adversarial:
        adv_cfg, _, _ = _attack_from({"attack": cfg["adversarial"]}, None)
        resolved["adversarial"] = asdict(adv_cfg)
        fitted = model.adv_train(clf, ds, adv_cfg, epochs=epochs, lr=lr,
                                 momentum=momentum, batch_size=batch_size,
                                 seed=seed)
    else:
        fitted = model.train(clf, ds, epochs=epochs, lr=lr,
                             momentum=momentum, batch_size=batch_size,
                             seed=seed)
    fitted.meta["version"] = __version__
    fitted.meta["run_config"] = resolved
    fitted.save(out)
    acc = float((fitted.predict(ds.images) == ds.labels).mean())
    print(f"checkpoint: {out} (train accuracy {acc:.4f})")
    return EXIT_OK


def _resolved_eval_config(command, dspec, cfg, config, method, init):
    return {
        "command": command,
        "model_path": _typed(cfg, "model_path", str),
        "dataset": dspec,
        "attack": asdict(config),
        "method": method,
        "init": init,
        "seed": config.seed,
    }


def cmd_attack(args):
    cfg = _load_config(args.config)
    out = _out_path(cfg, args)
    clf, ds, dspec = _model_and_dataset(cfg)
    config, method, init = _attack_from(cfg, args.seed)
    _check_seeds(config, len(ds))
    bs = geometry.boundary_set_for(clf)
    report = harness.evaluate(clf, bs, ds, config, method=method, init=init,
                              workers=_workers(cfg, args))
    resolved = _resolved_eval_config("attack", dspec, cfg, config, method,
                                     init)
    _write_text(out, harness.json_text({**report.to_dict(),
                                        "run_config": resolved}))
    print(
        f"robust accuracy {report.robust_accuracy:.4f} "
        f"(clean {report.clean_accuracy:.4f}, "
        f"{report.successes}/{report.evaluated} successes) -> {out}"
    )
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_config(args.config)
    out = _out_path(cfg, args)
    clf, ds, dspec = _model_and_dataset(cfg)
    config, method, init = _attack_from(cfg, args.seed)
    _typed(cfg, "sweep", dict)
    values = _typed(cfg, "sweep.n_init_values", [int])
    if not values:
        raise ConfigError("sweep.n_init_values: empty list")
    for nv in values:
        try:
            config.with_budget_split(nv)
        except ValueError as exc:
            raise ConfigError(f"sweep.n_init_values: {exc}") from exc
    seeds = _typed(cfg, "sweep.seeds", [int], None)
    if seeds is not None:
        if not seeds:
            raise ConfigError("sweep.seeds: empty list")
        seeds = tuple(seeds)
    _check_seeds(config, len(ds), seeds)
    bs = geometry.boundary_set_for(clf)
    result = harness.sweep_n_init(
        clf, bs, ds, config, values, method=method, init=init,
        seeds=seeds, workers=_workers(cfg, args),
    )
    resolved = _resolved_eval_config("sweep", dspec, cfg, config, method,
                                     init)
    resolved["sweep"] = {"n_init_values": values,
                         "seeds": list(seeds) if seeds else [config.seed]}
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
    out = _out_path(cfg, args)
    clf, ds, dspec = _model_and_dataset(cfg)
    config, method, init = _attack_from(cfg, args.seed)
    _check_seeds(config, len(ds))
    bs = geometry.boundary_set_for(clf)
    _, outcome = harness.attack_dataset(clf, bs, ds, config, method=method,
                                        init=init, workers=_workers(cfg, args))
    export = harness.export_representation_space(clf, bs, ds, outcome)
    resolved = _resolved_eval_config("export-repr", dspec, cfg, config,
                                     method, init)
    if args.format == "json":
        _write_text(out, harness.json_text({**export.to_dict(),
                                            "run_config": resolved}))
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
    seed = args.seed if args.seed is not None else _typed(cfg, "seed", int, 0)
    try:
        verify.validate_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from exc
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
