"""Evaluation campaigns over trained classifiers.

Builds robust-accuracy reports, budget-split sweeps, and
representation-space exports from the attack primitives.

Determinism contract: examples are processed in fixed-size chunks
(``chunk_size``, default 256) in dataset order, and each example's
restart seeds derive from the attack seed and the example's dataset
position, so a report is identical for any worker count.  Workers only
overlap chunk execution; they never change chunk boundaries.

Robust-accuracy convention: an input the model already misclassifies
counts as an attack success without running the attack.  Such examples
carry no iteration sample, so the mean/median iterations-to-success
statistics describe attacked examples only.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .attacks import (_FIELD_RULES, _SPLITS_RULE, BatchOutcome,
                      check_seeds, check_strategy, run_restarts_batch)
from .data import _check_args


def json_text(payload):
    """``payload`` as the text of every JSON output: sorted keys, indent 2
    and a trailing newline.  With no timestamps, re-runs are byte-identical."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell(value):
    """One CSV cell: None is empty, a bool is true/false, a float is its
    round-tripping ``repr``, and anything else is ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _csv_text(magic, items, meta, columns, rows):
    """The text of every CSV output.

    Comment lines open it: the ``magic`` line, the version, the
    artifact's own ``items`` in order, then ``meta`` by sorted key.  The
    header names ``columns``, and each of ``rows`` is a dict keyed by
    column name; a column a row lacks is an empty cell.
    """
    lines = [f"# {magic}", f"# version: {__version__}",
             *(f"# {key}: {value}" for key, value in items.items()),
             *(f"# {key}: {meta[key]}" for key in sorted(meta or {})),
             ",".join(columns)]
    lines += (",".join(map(_cell, map(row.get, columns))) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExampleOutcome:
    """Per-example result inside an EvalReport.

    ``iterations`` is the best restart's first-flip iteration (0 for an
    input that was already misclassified, -1 when every restart
    failed); ``attacked`` is False when the clean prediction was
    already wrong and the attack was skipped.
    """

    index: int
    label: int
    predicted: int
    success: bool
    iterations: int
    restart: int
    attacked: bool


@dataclass(frozen=True)
class EvalReport:
    """Aggregate outcome of one attack campaign on one model."""

    model_id: str
    attack_id: str
    method: str
    init: str
    clean_accuracy: float
    robust_accuracy: float
    evaluated: int
    successes: int
    failures: int
    mean_iterations_to_success: float | None
    median_iterations_to_success: float | None
    seeds: tuple
    config: dict
    examples: tuple

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.successes + self.failures != self.evaluated:
            raise ValueError(
                f"counts do not reconcile: {self.successes} successes + "
                f"{self.failures} failures != {self.evaluated} evaluated"
            )
        if len(self.examples) != self.evaluated:
            raise ValueError(
                f"{len(self.examples)} example outcomes for "
                f"{self.evaluated} evaluated examples"
            )
        if sum(1 for e in self.examples if e.success) != self.successes:
            raise ValueError("success count disagrees with example outcomes")
        if self.robust_accuracy > self.clean_accuracy + 1e-12:
            raise ValueError(
                f"robust accuracy {self.robust_accuracy} exceeds clean "
                f"accuracy {self.clean_accuracy}"
            )

    def to_dict(self):
        """The report's fields plus ``version``, in fresh lists and dicts."""
        return dict(vars(self), version=__version__, seeds=list(self.seeds),
                    config=dict(self.config),
                    examples=[vars(e).copy() for e in self.examples])

    def to_json(self):
        return json_text(self.to_dict())


def model_id_of(c):
    """Short provenance string for a classifier, from its metadata."""
    meta = c.meta
    parts = [str(meta.get("preset", "classifier"))]
    if meta.get("adversarial"):
        parts.append("advtrain")
    if meta.get("dataset_id"):
        parts.append(str(meta["dataset_id"]))
    if meta.get("seed") is not None:
        parts.append(f"seed{meta['seed']}")
    return "-".join(parts)


def attack_id_of(config, method, init):
    return (
        f"{method}-{init}-eps{config.epsilon:g}-r{config.restarts}"
        f"-b{config.n_init}+{config.n_attack}"
    )


def check_labels(c, labels):
    """Raise ValueError unless every label is a class of ``c`` (0..k-1)."""
    bad = np.flatnonzero((labels < 0) | (labels >= c.k))
    if bad.size:
        raise ValueError(
            f"label {labels[bad[0]]} at index {bad[0]} is outside the "
            f"model's classes 0..{c.k - 1}"
        )


# the entry points' argument rules, as attacks._FIELD_RULES; a split's
# range is its config's budget (AttackConfig.with_budget_split), and each
# listed seed is an attack seed
_RULES = {"workers": (int, ">=", 1), "chunk_size": (int, ">=", 1),
          "n_init_values": _SPLITS_RULE,
          "seeds": ([int, 1], *_FIELD_RULES["seed"][1:])}


def _attack_splits(c, bs, dataset, config, method, init, n_init_values, *,
                   workers, chunk_size, keep_x):
    """The chunk loop behind :func:`attack_dataset`, :func:`evaluate` and
    :func:`sweep_n_init`: one pass over ``dataset`` serves every budget
    split in ``n_init_values``.

    Returns ``(pred, outcome)``: the clean predictions and a BatchOutcome
    of the whole dataset with a leading split axis, ``x_adv`` only when
    ``keep_x``.  Each chunk's correctly classified examples go through
    one ``run_restarts_batch`` call for all splits, and each chunk writes
    only its own rows.  ``workers`` and ``chunk_size`` below 1 and an
    unknown ``method`` or ``init`` are refused by name before any chunk.
    """
    check_strategy(method, init)
    workers, chunk_size = _check_args(_RULES, workers=workers,
                                      chunk_size=chunk_size)
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    check_seeds(config, n)
    check_labels(c, dataset.labels)
    x, y = dataset.images, dataset.labels
    pred = np.empty(n, dtype=np.intp)
    out = BatchOutcome.unflipped(
        (len(n_init_values), n, config.restarts),
        np.empty((len(n_init_values), *x.shape)) if keep_x else None)

    def run_chunk(lo):
        hi = min(lo + chunk_size, n)
        xs, ys = x[lo:hi], y[lo:hi]
        pred[lo:hi] = c.predict(xs)
        correct = pred[lo:hi] == ys
        out.iterations[:, lo + np.flatnonzero(~correct)] = 0
        if keep_x:
            out.x_adv[:, lo:hi] = xs
        idx = np.flatnonzero(correct)
        if idx.size:
            got = run_restarts_batch(
                c, bs, xs[idx], ys[idx], config, method=method, init=init,
                positions=lo + idx, n_init_values=n_init_values,
                keep_x=keep_x)
            for name, a in vars(got).items():
                if a is not None:
                    getattr(out, name)[:, lo + idx] = a

    starts = range(0, n, chunk_size)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for lo in starts:
            run_chunk(lo)
    return pred, out


def attack_dataset(c, bs, dataset, config, method="pgd", init="boundary", *,
                   workers=1, chunk_size=256):
    """Attack ``dataset`` chunk by chunk, keeping the adversarial points.

    Returns ``(pred, outcome)``: the clean predictions and a BatchOutcome
    aligned with the dataset.  ``run_restarts_batch`` runs on the
    correctly classified examples of each chunk.  A misclassified input
    is not attacked: its ``x_adv`` is the input itself, it counts as a
    success at iteration 0 with restart -1, and it spends no gradient
    evaluations.  The result is independent of ``workers``.  Labels
    outside the model's classes and a seed whose restart seeds overflow
    raise ValueError (:func:`check_labels`, :func:`check_seeds`).
    """
    pred, got = _attack_splits(c, bs, dataset, config, method, init,
                               [config.n_init], workers=workers,
                               chunk_size=chunk_size, keep_x=True)
    return pred, got.split(0)


def _report(c, dataset, config, method, init, pred, iters, restart):
    """The EvalReport of one split's per-example outcomes."""
    y = dataset.labels
    n = len(dataset)
    correct = pred == y
    success = iters >= 0

    samples = iters[correct & success]
    mean_its = float(samples.mean()) if samples.size else None
    median_its = float(np.median(samples)) if samples.size else None
    n_success = int(success.sum())
    per_example = dict(index=np.arange(n), label=y, predicted=pred,
                       success=success, iterations=iters, restart=restart,
                       attacked=correct)
    examples = tuple(
        ExampleOutcome(**dict(zip(per_example, row)))
        for row in zip(*(a.tolist() for a in per_example.values())))
    return EvalReport(
        model_id=model_id_of(c),
        attack_id=attack_id_of(config, method, init),
        method=method,
        init=init,
        clean_accuracy=float(correct.sum()) / n,
        robust_accuracy=float(n - n_success) / n,
        evaluated=n,
        successes=n_success,
        failures=n - n_success,
        mean_iterations_to_success=mean_its,
        median_iterations_to_success=median_its,
        seeds=(config.seed,),
        # outcomes do not depend on workers or chunk_size (restart seeds
        # come from dataset positions), so neither belongs in the config
        config=dict(asdict(config), method=method, init=init),
        examples=examples,
    )


def evaluate(c, bs, dataset, config, method="pgd", init="boundary", *,
             workers=1, chunk_size=256):
    """Attack every example of ``dataset`` and aggregate an EvalReport.

    Misclassified inputs are immediate successes (see
    :func:`attack_dataset`).  The report is deterministic in (config,
    dataset, model) and independent of ``workers``.
    """
    pred, got = _attack_splits(c, bs, dataset, config, method, init,
                               [config.n_init], workers=workers,
                               chunk_size=chunk_size, keep_x=False)
    return _report(c, dataset, config, method, init, pred,
                   got.iterations[0], got.restart[0])


@dataclass(frozen=True)
class SweepPoint:
    n_init: int
    n_attack: int
    seed: int
    report: EvalReport


# the sweep CSV's columns; a seed="mean" row leaves evaluated, successes
# and the median empty
_SWEEP_COLUMNS = ("n_init", "n_attack", "total_budget", "seed", "evaluated",
                  "successes", "robust_accuracy", "mean_iterations_to_success",
                  "median_iterations_to_success")


@dataclass(frozen=True)
class SweepResult:
    """Budget-split sweep: one evaluation per (initialization budget,
    seed) at a fixed total iteration budget."""

    total_budget: int
    n_init_values: tuple
    seeds: tuple
    method: str
    init: str
    base_config: dict
    points: tuple

    def _seed_means(self, name):
        """The reports' field ``name`` averaged over seeds, per budget
        split; None for a split where it is None at every seed."""
        series = []
        for nv in self.n_init_values:
            vals = [getattr(p.report, name) for p in self.points
                    if p.n_init == nv]
            vals = [v for v in vals if v is not None]
            series.append(float(np.mean(vals)) if vals else None)
        return tuple(series)

    def mean_iterations_series(self):
        """Seed-averaged mean iterations-to-success per budget split.

        None for a split where no seed produced a successful attacked
        example.
        """
        return self._seed_means("mean_iterations_to_success")

    def robust_accuracy_series(self):
        return self._seed_means("robust_accuracy")

    def to_csv(self, meta=None):
        """Tidy CSV: one row per (n_init, seed) plus seed="mean" rows.

        ``meta`` key/value pairs are embedded as leading comment lines.
        """
        rows = [dict(vars(p.report), **vars(p), total_budget=self.total_budget)
                for p in self.points]
        rows += (dict(n_init=nv, n_attack=self.total_budget - nv,
                      total_budget=self.total_budget, seed="mean",
                      robust_accuracy=robust, mean_iterations_to_success=its)
                 for nv, robust, its in zip(self.n_init_values,
                                            self.robust_accuracy_series(),
                                            self.mean_iterations_series()))
        return _csv_text("boundarylab-sweep 1", dict(
            method=self.method, init=self.init,
            total_budget=self.total_budget,
            base_config=json.dumps(self.base_config, sort_keys=True),
            seeds=",".join(str(s) for s in self.seeds),
        ), meta, _SWEEP_COLUMNS, rows)


def sweep_n_init(c, bs, dataset, config, n_init_values, method="pgd",
                 init="boundary", *, seeds=None, workers=1, chunk_size=256):
    """Evaluate at several initialization budgets, total budget fixed.

    Every split keeps n_init + n_attack equal to the base config's
    total, so columns compare strategies at equal cost.  ``seeds``
    (default: just the config seed) repeats each split for averaging.
    Each point's report is the one :func:`evaluate` gives at that split
    and seed, but a seed attacks every split in one pass over the
    dataset: each restart's random start is drawn once, and boundary
    descent runs once, to the largest n_init, with each split's attack
    starting from the iterate after its own n_init steps
    (:func:`run_restarts_batch`).  Each split is still charged its own
    n_init + n_attack evaluations.
    """
    values, seeds = _check_args(
        _RULES, n_init_values=n_init_values,
        seeds=[config.seed] if seeds is None else seeds)
    splits = [config.with_budget_split(nv) for nv in values]
    for sd in seeds:  # every seed, before the first one's attack
        check_seeds(replace(config, seed=sd), len(dataset))
    reports = {}
    for sd in seeds:
        pred, got = _attack_splits(
            c, bs, dataset, replace(config, seed=sd), method, init, values,
            workers=workers, chunk_size=chunk_size, keep_x=False)
        for s, cfg in enumerate(splits):
            reports[s, sd] = _report(c, dataset, replace(cfg, seed=sd),
                                     method, init, pred,
                                     got.iterations[s], got.restart[s])
    points = tuple(
        SweepPoint(n_init=cfg.n_init, n_attack=cfg.n_attack, seed=sd,
                   report=reports[s, sd])
        for s, cfg in enumerate(splits) for sd in seeds
    )
    return SweepResult(
        total_budget=config.n_init + config.n_attack,
        n_init_values=tuple(values),
        seeds=tuple(seeds),
        method=method,
        init=init,
        base_config=asdict(config),
        points=points,
    )


@dataclass(frozen=True)
class ReprRecord:
    """One point of a representation-space export.

    ``kind`` is "original" or "adversarial"; both members of a pair
    share ``index`` and the pair's attack success flag.
    """

    index: int
    kind: str
    label: int
    predicted: int
    success: bool
    v: tuple


# a boundary's parts, as ReprExport.to_dict names them
_BOUNDARY_PARTS = ("class_i", "class_j", "w", "bias")
# the export CSV's columns before the components c0, c1, ...; a boundary
# row fills each part but w, whose entries are its components
_EXPORT_COLUMNS = ("kind", "index", *_BOUNDARY_PARTS[:2], "label",
                   "predicted", "success", _BOUNDARY_PARTS[3])


@dataclass(frozen=True)
class ReprExport:
    """Plot-ready dump of representation vectors and boundary rows.

    ``boundaries`` holds (class_i, class_j, weight row, bias) for every
    pair, enough to draw each line w.v + b = 0 when n == 2.
    """

    k: int
    n: int
    boundaries: tuple
    records: tuple

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.boundaries) != self.k * (self.k - 1) // 2:
            raise ValueError(
                f"{len(self.boundaries)} boundary rows for k={self.k}; "
                f"expected {self.k * (self.k - 1) // 2}"
            )
        kinds = {}
        for rec in self.records:
            kinds.setdefault(rec.index, []).append(rec.kind)
        for idx, ks in kinds.items():
            if sorted(ks) != ["adversarial", "original"]:
                raise ValueError(
                    f"example {idx}: records {ks} are not an "
                    "original/adversarial pair"
                )

    def to_csv(self, meta=None):
        comps = [f"c{q}" for q in range(self.n)]

        def row(cells, v):
            return {**cells, **dict(zip(comps, map(float, v)))}

        rows = [row(dict(zip(_BOUNDARY_PARTS, b), kind="boundary"), b[2])
                for b in self.boundaries]  # b[2] is w
        rows += (row(vars(rec), rec.v) for rec in self.records)
        return _csv_text("boundarylab-repr-export 1", dict(k=self.k, n=self.n),
                         meta, (*_EXPORT_COLUMNS, *comps), rows)

    def to_dict(self):
        """The export's fields plus ``version``, in fresh lists and dicts;
        a boundary tuple becomes a dict of its four named parts."""
        return dict(
            vars(self), version=__version__,
            boundaries=[dict(zip(_BOUNDARY_PARTS,
                                 (ci, cj, [float(q) for q in w], bias)))
                        for ci, cj, w, bias in self.boundaries],
            records=[dict(vars(r), v=[float(q) for q in r.v])
                     for r in self.records],
        )

    def to_json(self):
        return json_text(self.to_dict())


def export_representation_space(c, bs, dataset, outcome):
    """Pair original and adversarial representation vectors for export.

    ``outcome`` is a BatchOutcome aligned with ``dataset`` (one row per
    example), as :func:`attack_dataset` returns it.  Works for
    any representation width; two-dimensional exports are directly
    plottable against the boundary rows.
    """
    n_ex = len(dataset)
    if outcome.x_adv.shape[0] != n_ex:
        raise ValueError(
            f"outcome covers {outcome.x_adv.shape[0]} examples, dataset "
            f"has {n_ex}"
        )
    v_orig = c.head_forward(dataset.images)
    v_adv = c.head_forward(outcome.x_adv)
    kinds = [(kind, v.tolist(), np.argmax(c.tail_forward(v), axis=1).tolist())
             for kind, v in (("original", v_orig), ("adversarial", v_adv))]
    records = tuple(
        ReprRecord(index=i, kind=kind, label=label, predicted=pred[i],
                   success=ok, v=tuple(v[i]))
        for i, (label, ok) in enumerate(zip(dataset.labels.tolist(),
                                            outcome.success.tolist()))
        for kind, v, pred in kinds)
    boundaries = tuple(
        (int(i), int(j), tuple(float(q) for q in bs.rows[p]),
         float(bs.biases[p]))
        for p, (i, j) in enumerate(bs.pairs)
    )
    return ReprExport(k=bs.k, n=int(bs.rows.shape[1]),
                      boundaries=boundaries, records=records)
