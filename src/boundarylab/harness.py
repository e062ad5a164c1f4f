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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .attacks import BatchOutcome, run_restarts_batch

_OUTCOME_FIELDS = tuple(f.name for f in fields(BatchOutcome))


def json_text(payload):
    """``payload`` as the text of every JSON output: sorted keys, indent 2
    and a trailing newline.  With no timestamps, re-runs are byte-identical."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_head(magic, items, meta):
    """The comment lines that open a CSV: the ``magic`` line, the version,
    the artifact's own ``items`` in order, then ``meta`` by sorted key."""
    return [f"# {magic}", f"# version: {__version__}",
            *(f"# {key}: {value}" for key, value in items.items()),
            *(f"# {key}: {meta[key]}" for key in sorted(meta or {}))]


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


def _config_snapshot(config, method, init):
    # Outcomes do not depend on workers or chunk_size (restart seeds come
    # from absolute dataset position), so neither belongs in the snapshot.
    snap = asdict(config)
    snap["method"] = method
    snap["init"] = init
    return snap


def check_labels(c, labels):
    """Raise ValueError unless every label is a class of ``c`` (0..k-1)."""
    bad = np.flatnonzero((labels < 0) | (labels >= c.k))
    if bad.size:
        raise ValueError(
            f"label {labels[bad[0]]} at index {bad[0]} is outside the "
            f"model's classes 0..{c.k - 1}"
        )


def check_seeds(config, n):
    """Raise ValueError unless every restart seed of ``n`` examples fits.

    The example at dataset position i draws restart seeds
    ``seed + i·restarts + r`` for r < restarts, which must stay at or
    below 2**63 - 1; the error names the first position past it (0 for a
    seed past it).
    """
    first_bad = max(0, (2**63 - int(config.seed)) // int(config.restarts))
    if first_bad < n:
        raise ValueError(
            f"seed {config.seed} with {config.restarts} restarts per example "
            f"overflows at dataset position {first_bad}: restart seeds "
            f"seed + position·restarts + r must stay at or below 2**63 - 1"
        )


def _attack_splits(c, bs, dataset, config, method, init, n_init_values, *,
                   workers, chunk_size, keep_x):
    """The chunk loop behind :func:`attack_dataset`, :func:`evaluate` and
    :func:`sweep_n_init`: one pass over ``dataset`` serves every budget
    split in ``n_init_values``.

    Returns ``(pred, fields)``: the clean predictions and a dict of the
    BatchOutcome fields with a leading split axis, ``x_adv`` only when
    ``keep_x``.  Each chunk's correctly classified examples go through
    one ``run_restarts_batch`` call for all splits.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    check_seeds(config, n)
    check_labels(c, dataset.labels)
    x, y = dataset.images, dataset.labels
    names = [f for f in _OUTCOME_FIELDS if keep_x or f != "x_adv"]
    splits = len(n_init_values)

    def run_chunk(bounds):
        lo, hi = bounds
        xs, ys = x[lo:hi], y[lo:hi]
        pred = c.predict(xs)
        correct = pred == ys
        shape = (splits, hi - lo)
        out = {
            "iterations": np.full(shape, -1, dtype=np.int64),
            "restart": np.full(shape, -1, dtype=np.int64),
            "iterations_per_restart": np.full((*shape, config.restarts), -1,
                                              dtype=np.int64),
            "grad_evals_per_restart": np.zeros((*shape, config.restarts),
                                               dtype=np.int64),
        }
        out["iterations"][:, ~correct] = 0
        if keep_x:
            out["x_adv"] = np.repeat(
                np.asarray(xs, dtype=np.float64)[None], splits, axis=0)
        idx = np.nonzero(correct)[0]
        if idx.size:
            got = run_restarts_batch(
                c, bs, xs[idx], ys[idx], config, method=method, init=init,
                base_seeds=config.seed + (lo + idx) * config.restarts,
                n_init_values=n_init_values, keep_x=keep_x,
            )
            for name in names:
                out[name][:, idx] = getattr(got, name)
        return pred, out

    bounds = [(s, min(s + chunk_size, n)) for s in range(0, n, chunk_size)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, bounds))
    else:
        results = [run_chunk(b) for b in bounds]
    pred = np.concatenate([r[0] for r in results])
    return pred, {name: np.concatenate([r[1][name] for r in results], axis=1)
                  for name in names}


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
    return pred, BatchOutcome(**{name: a[0] for name, a in got.items()})


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
    examples = tuple(
        ExampleOutcome(
            index=i,
            label=int(y[i]),
            predicted=int(pred[i]),
            success=bool(success[i]),
            iterations=int(iters[i]),
            restart=int(restart[i]),
            attacked=bool(correct[i]),
        )
        for i in range(n)
    )
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
        seeds=(int(config.seed),),
        config=_config_snapshot(config, method, init),
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
                   got["iterations"][0], got["restart"][0])


@dataclass(frozen=True)
class SweepPoint:
    n_init: int
    n_attack: int
    seed: int
    report: EvalReport


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

    def _per_seed(self, nv, getter):
        return [
            getter(p.report)
            for p in self.points
            if p.n_init == nv and getter(p.report) is not None
        ]

    def mean_iterations_series(self):
        """Seed-averaged mean iterations-to-success per budget split.

        None for a split where no seed produced a successful attacked
        example.
        """
        series = []
        for nv in self.n_init_values:
            vals = self._per_seed(nv, lambda r: r.mean_iterations_to_success)
            series.append(float(np.mean(vals)) if vals else None)
        return tuple(series)

    def robust_accuracy_series(self):
        return tuple(
            float(np.mean(self._per_seed(nv, lambda r: r.robust_accuracy)))
            for nv in self.n_init_values
        )

    def to_csv(self, meta=None):
        """Tidy CSV: one row per (n_init, seed) plus seed="mean" rows.

        ``meta`` key/value pairs are embedded as leading comment lines.
        """
        lines = _csv_head("boundarylab-sweep 1", {
            "method": self.method,
            "init": self.init,
            "total_budget": self.total_budget,
            "base_config": json.dumps(self.base_config, sort_keys=True),
            "seeds": ",".join(str(s) for s in self.seeds),
        }, meta)
        lines.append(
            "n_init,n_attack,total_budget,seed,evaluated,successes,"
            "robust_accuracy,mean_iterations_to_success,"
            "median_iterations_to_success"
        )

        def cell(v):
            return "" if v is None else repr(v) if isinstance(v, float) else str(v)

        for p in self.points:
            r = p.report
            lines.append(",".join([
                str(p.n_init), str(p.n_attack), str(self.total_budget),
                str(p.seed), str(r.evaluated), str(r.successes),
                cell(r.robust_accuracy),
                cell(r.mean_iterations_to_success),
                cell(r.median_iterations_to_success),
            ]))
        mean_iters = self.mean_iterations_series()
        mean_rob = self.robust_accuracy_series()
        for nv, mi, mr in zip(self.n_init_values, mean_iters, mean_rob):
            n_attack = self.total_budget - nv
            lines.append(",".join([
                str(nv), str(n_attack), str(self.total_budget), "mean",
                "", "", cell(mr), cell(mi), "",
            ]))
        return "\n".join(lines) + "\n"


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
    values = [int(v) for v in n_init_values]
    if not values:
        raise ValueError("n_init_values is empty")
    seeds = (config.seed,) if seeds is None else tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seeds is empty")
    splits = [config.with_budget_split(nv) for nv in values]
    reports = {}
    for sd in seeds:
        pred, got = _attack_splits(
            c, bs, dataset, replace(config, seed=sd), method, init, values,
            workers=workers, chunk_size=chunk_size, keep_x=False)
        for s, cfg in enumerate(splits):
            reports[s, sd] = _report(c, dataset, replace(cfg, seed=sd),
                                     method, init, pred,
                                     got["iterations"][s], got["restart"][s])
    points = tuple(
        SweepPoint(n_init=cfg.n_init, n_attack=cfg.n_attack, seed=sd,
                   report=reports[s, sd])
        for s, cfg in enumerate(splits) for sd in seeds
    )
    return SweepResult(
        total_budget=config.n_init + config.n_attack,
        n_init_values=tuple(values),
        seeds=seeds,
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
        lines = _csv_head("boundarylab-repr-export 1",
                          {"k": self.k, "n": self.n}, meta)
        comp = ",".join(f"c{q}" for q in range(self.n))
        lines.append(
            f"kind,index,class_i,class_j,label,predicted,success,bias,{comp}"
        )
        for ci, cj, w, bias in self.boundaries:
            row = ["boundary", "", str(ci), str(cj), "", "", "", repr(bias)]
            row += [repr(float(q)) for q in w]
            lines.append(",".join(row))
        for rec in self.records:
            row = [rec.kind, str(rec.index), "", "", str(rec.label),
                   str(rec.predicted), str(rec.success).lower(), ""]
            row += [repr(float(q)) for q in rec.v]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_dict(self):
        """The export's fields plus ``version``, in fresh lists and dicts;
        a boundary tuple becomes a dict of its four named parts."""
        return dict(
            vars(self), version=__version__,
            boundaries=[{"class_i": ci, "class_j": cj,
                         "w": [float(q) for q in w], "bias": bias}
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
    v_orig = c.head_forward(dataset.images, train=False)
    v_adv = c.head_forward(outcome.x_adv, train=False)
    pred_orig = np.argmax(c.tail_forward(v_orig), axis=1)
    pred_adv = np.argmax(c.tail_forward(v_adv), axis=1)
    records = []
    for i in range(n_ex):
        ok = bool(outcome.success[i])
        records.append(ReprRecord(
            index=i, kind="original", label=int(dataset.labels[i]),
            predicted=int(pred_orig[i]), success=ok,
            v=tuple(float(q) for q in v_orig[i]),
        ))
        records.append(ReprRecord(
            index=i, kind="adversarial", label=int(dataset.labels[i]),
            predicted=int(pred_adv[i]), success=ok,
            v=tuple(float(q) for q in v_adv[i]),
        ))
    boundaries = tuple(
        (int(i), int(j), tuple(float(q) for q in bs.rows[p]),
         float(bs.biases[p]))
        for p, (i, j) in enumerate(bs.pairs)
    )
    return ReprExport(k=bs.k, n=int(bs.rows.shape[1]),
                      boundaries=boundaries, records=tuple(records))
