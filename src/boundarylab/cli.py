"""Command-line entry point: one binary, verb subcommands.

Usage: ``boundarylab <command> [--config FILE] [--seed N] [--out PATH]
[--workers N]``, where ``verify`` takes only ``--config`` and ``--seed``,
``train`` takes no ``--workers``, and ``export-repr`` also takes
``--format csv|json``.  Commands: ``train`` (fit and checkpoint a model),
``attack`` (robust-accuracy report as JSON), ``sweep`` (budget-split
series as CSV), ``export-repr`` (representation-space CSV/JSON), and
``verify`` (invariant self-checks).  ``attack``, ``sweep`` and
``export-repr`` share one evaluation loop: examples are attacked in
fixed chunks, and an example the model already misclassifies is not
attacked (export-repr records the input itself as its adversarial
point, with success true).

Config file schema (JSON object; flags override file values).  A key
left out takes the default of the library parameter it feeds, except
``model.k`` (the dataset's largest label plus one), ``train.epochs``
(4) and the seeds of blobs and of ``sample`` (0).  An optional key set
to null is left out; a required one set to null has the wrong type.  A
key a section does not list is refused, naming it (``<section>.<key>:
unknown key``), null or not; at the top level only a key no command
reads is refused, so one file can serve ``train`` and ``attack``.  A
value of the wrong type or out of range is refused by its path, as
``attack.restarts: expected int, got float`` or ``sweep.seeds[1]: must
be >= 0, got -1``; a seed from ``--seed`` or the top level is named
``seed``.  A key's kind and range are those of the library argument it
feeds, read from the rule table beside that function
(``data._DIGITS_RULES``, ``_BLOBS_RULES``, ``_KEEP_RULES`` and
``_SAMPLE_RULES``; ``model._PRESET_RULES`` and ``_FIT_RULES``;
``harness._RULES``; ``attacks._FIELD_RULES`` and ``splits_rule``).  The keys:

  seed      int     primary seed for the command (train seed for
                    ``train``, attack seed otherwise)
  workers   int     evaluation thread count (>= 1); wall time only,
                    never results
  out       str     output path (required by every command but verify)
  dataset   object  one of
                    {"kind": "digits", "n_per_class": N, "classes":
                     [..], "size": H, "seed": S}
                    {"kind": "blobs", "n_per_class": N, "k": K, "d": D,
                     "separation": SEP, "seed": S}
                    {"kind": "idx", "images": PATH, "labels": PATH}
                    plus optional "keep": [labels] (class filter) and
                    "sample": {"n": N, "seed": S} (N at most the
                    dataset's size), applied in that order after
                    loading; sizes and seeds are >= 0, a class is a
                    digit 0-9, k >= 2, d >= 1, separation > 0
  model     object  (train) {"preset": "small_cnn"|"mlp"|"linear",
                    "k": K, "n": N, "hidden": [..], "seed": S}; K >= 2,
                    N and each hidden width >= 1, S >= 0
  train     object  (train) {"epochs": E, "lr": LR, "momentum": M,
                    "batch_size": B}; E >= 0, LR > 0, 0 <= M < 1,
                    B >= 1
  adversarial object (train, optional) AttackConfig fields; enables
                    adversarial training, which reads only epsilon,
                    alpha and n_attack (the rest are recorded)
  model_path str    (attack/sweep/export-repr) checkpoint to load
  attack    object  AttackConfig fields: epsilon, alpha, eta_init,
                    restarts, n_init, n_attack, seed
  method    str     "pgd" or "fab"
  init      str     "boundary", "random", or "none"
  sweep     object  (sweep) {"n_init_values": [..], "seeds": [..]};
                    each split within the attack's total budget, each
                    seed >= 0

Every output embeds the fully resolved config, seed, and toolkit
version; ``workers`` and ``out`` are deliberately excluded so reruns
with different worker counts or output paths stay byte-identical.

Exit codes: 0 ok, 1 config error, 2 invariant/computation failure,
3 I/O error.
"""

import argparse
import inspect
import json
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

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


def _default(fn, name):
    """The default of ``fn``'s parameter ``name`` (a tuple as the list a
    config holds), or _REQUIRED where it has none."""
    default = inspect.signature(fn).parameters[name].default
    if default is inspect.Parameter.empty:
        return _REQUIRED
    return list(default) if isinstance(default, tuple) else default


def _library(fn, rules, *keys):
    """``fn``'s name and its config keys as (key, rule, default): a key's
    rule is its entry in ``rules``, the table of ``fn``'s argument rules,
    and its default that of ``fn``'s parameter ``key``, unless the key is
    given as (key, default).

    Read once, at import: the bench replaces some library functions with
    untyped wrappers, so a call goes through the module attribute.
    """
    return fn.__name__, tuple(
        (key, rules[key], _default(fn, key)) if isinstance(key, str)
        else (key[0], rules[key[0]], key[1]) for key in keys)


# dataset kind -> (error class, message prefix, data function, keys); an
# IDX file is input data, the other kinds come from the config.  The
# required keys are passed by position, the rest by name.
_DATASETS = {
    "digits": (ConfigError, "dataset.", *_library(
        data.make_digits, data._DIGITS_RULES, "n_per_class", "classes",
        "size", "seed")),
    "blobs": (ConfigError, "dataset.", *_library(
        data.make_blobs, data._BLOBS_RULES, "n_per_class", "k", "d",
        "separation", ("seed", 0))),
    "idx": (InputError, "dataset.idx: ", *_library(
        data.load_idx, {"images": (str,), "labels": (str,)},
        ("images", _REQUIRED), ("labels", _REQUIRED))),
}
_SAMPLE_KEYS = _library(data.sample, data._SAMPLE_RULES, "n", ("seed", 0))[1]
# model preset -> (the dataset rank it needs and what that data is
# called, the arguments the dataset shape gives, model function, keys);
# the seed comes first, as it is read right after model.k
_PRESET_RULES = model._PRESET_RULES
_PRESETS = {
    "small_cnn": (3, "image", lambda shape: {"input_shape": shape},
                  *_library(model.small_cnn, _PRESET_RULES, "seed", "n")),
    "mlp": (None, None, lambda shape: {"input_shape": shape},
            *_library(model.mlp, _PRESET_RULES, "seed", "n", "hidden")),
    "linear": (1, "flat", lambda shape: {"d": shape[0]},
               *_library(model.linear_model, _PRESET_RULES, "seed")),
}
_TRAIN_KEYS = _library(model.train, model._FIT_RULES, ("epochs", 4), "lr",
                       "momentum", "batch_size")[1]
_TRAIN_SEED = _default(model.train, "seed")
_ATTACK_SEED = _default(attacks.AttackConfig, "seed")
_VERIFY_SEED = _default(verify.run_all, "seed")
_METHOD, _INIT, _WORKERS = (_default(harness.evaluate, name)
                            for name in ("method", "init", "workers"))


def _get(cfg, path, default=_REQUIRED):
    """The value at ``path`` (dotted); an optional key missing or null
    gives ``default``."""
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: required key is missing")
            return default
        node = node[part]
    return default if node is None and default is not _REQUIRED else node


@contextmanager
def _named(prefix, error=ConfigError, top=()):
    """Raise a refusal from the block, which the library words as
    "<argument>: ...", as ``error`` with the config path ``prefix`` in
    front; an argument in ``top`` came from a top-level key or a flag,
    so its own name is its path."""
    try:
        yield
    except (OSError, TypeError, ValueError) as exc:
        argument = str(exc).partition(":")[0]
        raise error(f"{'' if argument in top else prefix}{exc}") from exc


def _typed(cfg, path, *rule, default=_REQUIRED):
    """The value at ``path`` (dotted), as :func:`data._check_value` checks
    and returns it by ``rule`` (kind, relation, bound, ...).  A missing or
    null optional key gives ``default``, unchecked."""
    value = _get(cfg, path, _REQUIRED if default is _REQUIRED else None)
    if value is None and default is not _REQUIRED:
        return default
    with _named(""):
        return data._check_value(path, value, *rule)


def _refuse_unknown(spec, section, known):
    """Refuse the first key of ``spec`` (by sorted order) outside
    ``known``, naming it after the ``section`` prefix."""
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ConfigError(f"{section}{unknown[0]}: unknown key (known: "
                          f"{', '.join(sorted(known))})")


def _resolve(cfg, section, keys):
    """The ``keys`` entries of a config section, read in order."""
    return {key: _typed(cfg, f"{section}.{key}", *rule, default=default)
            for key, rule, default in keys}


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
    with _named(""):
        kind = data._check_choice("dataset.kind", _get(cfg, "dataset.kind"),
                                  _DATASETS)
    error, prefix, fn, keys = _DATASETS[kind]
    resolved = {"kind": kind, **_resolve(cfg, "dataset", keys)}
    with _named(prefix, error):  # the data function names the key
        ds = getattr(data, fn)(
            *(resolved[key] for key, _, d in keys if d is _REQUIRED),
            **{key: resolved[key] for key, _, d in keys if d is not _REQUIRED})
    keep = _typed(cfg, "dataset.keep", *data._KEEP_RULES["keep"],
                  default=None)
    if keep is not None:
        resolved["keep"] = keep
        with _named("dataset."):
            ds = data.filter_classes(ds, keep)
    sample = _typed(cfg, "dataset.sample", dict, default=None)
    if sample is not None:
        resolved["sample"] = _resolve(cfg, "dataset.sample", _SAMPLE_KEYS)
        with _named("dataset.sample."):
            ds = data.sample(ds, **resolved["sample"])
        _refuse_unknown(sample, "dataset.sample.", resolved["sample"])
    if len(ds) == 0:
        raise error(f"dataset: the {kind} dataset has no examples")
    _refuse_unknown(spec, "dataset.", {"keep", "sample", *resolved})
    return ds, resolved


_ATTACK_KEYS = [f.name for f in fields(attacks.AttackConfig)]
# every top-level key some command reads
_TOP_KEYS = ("seed", "workers", "out", "dataset", "model", "train",
             "adversarial", "model_path", "attack", "method", "init", "sweep")


def _attack_from(cfg, section, seed_override=None):
    """The AttackConfig in ``cfg[section]``, its errors named
    ``<section>.<key>``.  A key left out or null takes AttackConfig's
    default, except the seed of ``attack``: ``seed_override``, else its
    own, else the top-level seed, whose errors are named ``seed``."""
    spec = _typed(cfg, section, dict, default={})
    _refuse_unknown(spec, f"{section}.", _ATTACK_KEYS)
    spec = {key: value for key, value in spec.items() if value is not None}
    if seed_override is None and section == "attack" and "seed" not in spec:
        seed_override = _typed(cfg, "seed", int, default=_ATTACK_SEED)
    if seed_override is not None:
        spec["seed"] = seed_override
    with _named(f"{section}.", top=() if seed_override is None else ("seed",)):
        return attacks.AttackConfig(**spec)


def _model_and_dataset(cfg):
    """The checkpoint and a dataset whose labels are classes of it."""
    path = _typed(cfg, "model_path", str)
    try:
        clf = model.Classifier.load(path)
    except model.CheckpointError as exc:
        raise InputError(f"model_path: {exc}") from exc
    except OSError as exc:
        raise InputError(f"model_path: cannot read {path}: {exc}") from exc
    ds, dspec = _dataset_from(cfg)
    error = _DATASETS[dspec["kind"]][0]
    with _named("dataset: ", error):
        model.check_labels(clf, ds.labels)
    if ds.input_shape != clf.input_shape:
        raise error(f"dataset: images have shape {ds.input_shape}, the "
                    f"checkpoint takes {clf.input_shape}")
    return clf, ds, dspec


def _out_path(cfg, args):
    out = args.out or _typed(cfg, "out", str, default=None)
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
    rule = harness._RULES["workers"]
    if args.workers is None:
        return _typed(cfg, "workers", *rule, default=_WORKERS)
    with _named(""):
        return data._check_value("workers", args.workers, *rule)


def cmd_train(args):
    cfg = _load_config(args.config)
    out = _out_path(cfg, args)
    ds, dspec = _dataset_from(cfg)
    model_spec = _typed(cfg, "model", dict)
    name = _get(cfg, "model.preset")
    k = _typed(cfg, "model.k", *_PRESET_RULES["k"], default=ds.k)
    # checked before the preset, as every preset reads it first
    _typed(cfg, "model.seed", *_PRESET_RULES["seed"], default=None)
    with _named(""):
        data._check_choice("model.preset", name, _PRESETS)
    rank, kind, inputs, fn, keys = _PRESETS[name]
    preset = _resolve(cfg, "model", keys)
    if rank is not None and len(ds.input_shape) != rank:
        raise ConfigError(f"model.preset: {name} needs {kind} data, dataset "
                          f"shape is {ds.input_shape}")
    with _named("model."):  # the preset names the argument, the key
        clf = getattr(model, fn)(**inputs(ds.input_shape), k=k, **preset)
    with _named("model.k: "):
        model.check_labels(clf, ds.labels)
    _refuse_unknown(model_spec, "model.", ("preset", "k", *preset))

    train_spec = _typed(cfg, "train", dict, default={})
    fit = _resolve(cfg, "train", _TRAIN_KEYS)
    seed = (args.seed if args.seed is not None
            else _typed(cfg, "seed", int, default=_TRAIN_SEED))
    resolved = {
        "command": "train",
        "dataset": dspec,
        "model": {"preset": name, "k": k, **preset},
        "train": fit,
        "seed": seed,
        "adversarial": None,
    }
    adversarial = cfg.get("adversarial") is not None
    with _named("train.", top=("seed",)):
        model.check_fit(len(ds), **fit, seed=seed, adversarial=adversarial)
    _refuse_unknown(train_spec, "train.", fit)
    if adversarial:
        adv_cfg = _attack_from(cfg, "adversarial")
        resolved["adversarial"] = asdict(adv_cfg)
    _refuse_unknown(cfg, "", _TOP_KEYS)
    fitted = (model.adv_train(clf, ds, adv_cfg, **fit, seed=seed)
              if adversarial else model.train(clf, ds, **fit, seed=seed))
    fitted.meta["version"] = __version__
    fitted.meta["run_config"] = resolved
    fitted.save(out)
    acc = float((fitted.predict(ds.images) == ds.labels).mean())
    print(f"checkpoint: {out} (train accuracy {acc:.4f})")
    return EXIT_OK


_Evaluation = namedtuple("_Evaluation", "out clf bs ds config method init "
                                        "workers run_config")


def _evaluation(args, command):
    """Everything an evaluation command needs before its harness call,
    read and checked in one order, and the run config its output embeds;
    a sweep's budget splits and seeds are in ``run_config["sweep"]``."""
    cfg = _load_config(args.config)
    out = _out_path(cfg, args)
    clf, ds, dspec = _model_and_dataset(cfg)
    config = _attack_from(cfg, "attack", args.seed)
    method, init = _get(cfg, "method", _METHOD), _get(cfg, "init", _INIT)
    with _named(""):
        attacks.check_strategy(method, init)
    run_config = {"command": command, "model_path": cfg["model_path"],
                  "dataset": dspec, "attack": asdict(config),
                  "method": method, "init": init, "seed": config.seed}
    seeds = {"seed": config.seed}  # every attack seed, by its config path
    if command == "sweep":
        sweep = _typed(cfg, "sweep", dict)
        values = _typed(cfg, "sweep.n_init_values", *config.splits_rule())
        listed = _typed(cfg, "sweep.seeds", *harness._RULES["seeds"],
                        default=None)
        if listed is not None:
            seeds = {f"sweep.seeds[{i}]": sd for i, sd in enumerate(listed)}
        _refuse_unknown(sweep, "sweep.", ("n_init_values", "seeds"))
        run_config["sweep"] = {"n_init_values": values,
                               "seeds": list(seeds.values())}
    for path, seed in seeds.items():  # each one's restart seeds fit the data
        with _named(f"{path}: "):
            attacks.check_seeds(replace(config, seed=seed), len(ds))
    workers = _workers(cfg, args)
    _refuse_unknown(cfg, "", _TOP_KEYS)
    return _Evaluation(out, clf, geometry.boundary_set_for(clf), ds, config,
                       method, init, workers, run_config)


def _write_output(ev, artifact, fmt):
    """Write ``artifact`` with the run config embedded, as JSON or CSV."""
    if fmt == "json":
        text = harness.json_text({**artifact.to_dict(),
                                  "run_config": ev.run_config})
    else:
        text = artifact.to_csv(
            meta={"run_config": json.dumps(ev.run_config, sort_keys=True)})
    _write_text(ev.out, text)


def cmd_attack(args):
    ev = _evaluation(args, "attack")
    report = harness.evaluate(ev.clf, ev.bs, ev.ds, ev.config,
                              method=ev.method, init=ev.init,
                              workers=ev.workers)
    _write_output(ev, report, "json")
    print(
        f"robust accuracy {report.robust_accuracy:.4f} "
        f"(clean {report.clean_accuracy:.4f}, "
        f"{report.successes}/{report.evaluated} successes) -> {ev.out}"
    )
    return EXIT_OK


def cmd_sweep(args):
    ev = _evaluation(args, "sweep")
    sweep = ev.run_config["sweep"]
    result = harness.sweep_n_init(
        ev.clf, ev.bs, ev.ds, ev.config, sweep["n_init_values"],
        method=ev.method, init=ev.init, seeds=sweep["seeds"],
        workers=ev.workers,
    )
    _write_output(ev, result, "csv")
    series = ", ".join(
        "-" if m is None else f"{m:.2f}"
        for m in result.mean_iterations_series()
    )
    print(f"mean iterations-to-success by n_init: {series} -> {ev.out}")
    return EXIT_OK


def cmd_export_repr(args):
    ev = _evaluation(args, "export-repr")
    _, outcome = harness.attack_dataset(ev.clf, ev.bs, ev.ds, ev.config,
                                        method=ev.method, init=ev.init,
                                        workers=ev.workers)
    export = harness.export_representation_space(ev.clf, ev.bs, ev.ds,
                                                 outcome)
    _write_output(ev, export, args.format)
    print(
        f"exported {len(export.records)} records, "
        f"{len(export.boundaries)} boundary rows -> {ev.out}"
    )
    return EXIT_OK


def cmd_verify(args):
    cfg = _load_config(args.config)
    seed = (args.seed if args.seed is not None
            else _typed(cfg, "seed", int, default=_VERIFY_SEED))
    with _named("seed: ", top=("seed",)):
        verify.validate_seed(seed)
    _refuse_unknown(cfg, "", _TOP_KEYS)
    results = verify.run_all(seed=seed)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}")
    failed = sum(not r.ok for r in results)
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
        if name not in ("train", "verify"):
            p.add_argument("--workers", type=int,
                           help="evaluation threads (results unaffected)")
        if name != "verify":
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
