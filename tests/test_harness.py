import dataclasses
import json
import re
import sys

import numpy as np
import pytest

from boundarylab import __version__, attacks, data, geometry, harness, model


def test_report_counts_reconcile(blobs_mlp, blobs_boundaries, blobs_test,
                                 quick_attack_config):
    rep = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                           quick_attack_config)
    assert rep.evaluated == len(blobs_test.labels)
    assert rep.successes + rep.failures == rep.evaluated
    assert rep.robust_accuracy == pytest.approx(
        rep.failures / rep.evaluated)
    assert rep.robust_accuracy <= rep.clean_accuracy + 1e-12
    assert len(rep.examples) == rep.evaluated
    assert sum(e.success for e in rep.examples) == rep.successes


def test_validation_rejects_tampered_counts(blobs_mlp, blobs_boundaries,
                                            blobs_test,
                                            quick_attack_config):
    rep = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                           quick_attack_config)
    with pytest.raises(ValueError):
        dataclasses.replace(rep, successes=rep.successes + 1)


def test_misclassified_examples_are_not_attacked(blobs_boundaries,
                                                 blobs_test,
                                                 quick_attack_config):
    # an untrained model misclassifies plenty of inputs
    raw = model.mlp((8,), k=4, n=2, hidden=(16,), seed=99)
    bs = geometry.boundary_set_for(raw)
    rep = harness.evaluate(raw, bs, blobs_test, quick_attack_config)
    skipped = [e for e in rep.examples if not e.attacked]
    assert skipped, "untrained model should misclassify something"
    for e in skipped:
        assert e.predicted != e.label
        assert e.success
        assert e.iterations == 0
        assert e.restart == -1
    assert rep.clean_accuracy == pytest.approx(
        sum(e.attacked for e in rep.examples) / rep.evaluated)


def test_attack_dataset_keeps_misclassified_inputs(blobs_boundaries,
                                                   blobs_test,
                                                   quick_attack_config):
    raw = model.mlp((8,), k=4, n=2, hidden=(16,), seed=99)
    bs = geometry.boundary_set_for(raw)
    cfg = quick_attack_config
    pred, out = harness.attack_dataset(raw, bs, blobs_test, cfg,
                                       chunk_size=16)
    wrong = pred != blobs_test.labels
    assert wrong.any() and not wrong.all()
    # misclassified: the input itself, a success, no gradient spent
    np.testing.assert_array_equal(out.x_adv[wrong], blobs_test.images[wrong])
    assert out.success[wrong].all()
    assert (out.grad_evals_per_restart[wrong] == 0).all()
    # attacked: the restart engine's rows under the dataset seed policy
    idx = np.flatnonzero(~wrong)
    ref = attacks.run_restarts_batch(
        raw, bs, blobs_test.images[idx], blobs_test.labels[idx], cfg,
        positions=idx)
    np.testing.assert_allclose(out.x_adv[idx], ref.x_adv, atol=1e-12)
    np.testing.assert_array_equal(out.success[idx], ref.success)
    np.testing.assert_array_equal(out.grad_evals_per_restart[idx],
                                  ref.grad_evals_per_restart)


@pytest.mark.parametrize("bad", [7, -1])
def test_attack_entry_rejects_labels_outside_the_model(blobs_mlp,
                                                       blobs_boundaries,
                                                       blobs_test,
                                                       quick_attack_config,
                                                       bad):
    labels = blobs_test.labels.copy()
    labels[[2, 5]] = bad
    ds = data.Dataset(images=blobs_test.images, labels=labels)
    match = f"label {bad} at index 2 is outside the model's classes 0..3"
    with pytest.raises(ValueError, match=match):
        harness.evaluate(blobs_mlp, blobs_boundaries, ds,
                         quick_attack_config)
    with pytest.raises(ValueError, match=match):
        harness.sweep_n_init(blobs_mlp, blobs_boundaries, ds,
                             quick_attack_config, [0, 1])


@pytest.mark.parametrize("seed, restarts, first_bad", [
    (2**63 - 2, 2, 1),  # position 0 draws 2**63 - 2 and 2**63 - 1
    (2**63 - 1, 1, 1),
    (2**63 - 1, 2, 0),
    (2**63 - 40, 4, 10),
    (99999999999999999999999, 1, 0),  # past 2**63 - 1 at position 0
])
def test_check_seeds_names_the_first_overflowing_position(seed, restarts,
                                                          first_bad):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=restarts,
                               n_init=0, n_attack=1, seed=seed)
    harness.check_seeds(cfg, first_bad)  # every position below it fits
    if seed <= 2**63 - 1:  # numpy ints too, where the seed fits one
        harness.check_seeds(dataclasses.replace(cfg, seed=np.int64(seed),
                                                restarts=np.int64(restarts)),
                            first_bad)
    assert first_bad == 0 or seed + first_bad * restarts - 1 <= 2**63 - 1
    with pytest.raises(ValueError,
                       match=f"overflows at dataset position {first_bad}:"):
        harness.check_seeds(cfg, first_bad + 1)


def test_attack_entry_rejects_overflowing_seeds(blobs_mlp, blobs_boundaries,
                                                blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=2,
                               n_init=0, n_attack=1, seed=2**63 - 2)
    with pytest.raises(ValueError, match="dataset position 1:"):
        harness.attack_dataset(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                               init="none")


def test_sweep_refuses_every_seed_before_its_first_attack(
        monkeypatch, blobs_mlp, blobs_boundaries, blobs_test,
        quick_attack_config):
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return run(*args, **kwargs)

    run = harness.run_restarts_batch
    monkeypatch.setattr(harness, "run_restarts_batch", spy)
    with pytest.raises(ValueError, match="seed 9223372036854775807 "):
        harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test,
                             quick_attack_config, [0, 1],
                             seeds=(0, 2**63 - 1))
    assert calls == []


@pytest.mark.parametrize("kwargs, error, message", [
    ({"workers": 0}, ValueError, "workers: must be >= 1, got 0"),
    ({"workers": -3}, ValueError, "workers: must be >= 1, got -3"),
    ({"chunk_size": 0}, ValueError, "chunk_size: must be >= 1, got 0"),
    ({"chunk_size": -1}, ValueError, "chunk_size: must be >= 1, got -1"),
    ({"workers": 1.5}, TypeError, "workers: expected int, got float"),
], ids=["workers-0", "workers-negative", "chunk_size-0", "chunk_size-negative",
        "workers-float"])
@pytest.mark.parametrize("entry", ["evaluate", "attack_dataset",
                                   "sweep_n_init"])
def test_entry_points_refuse_workers_and_chunk_size_below_one(
        blobs_mlp, blobs_boundaries, blobs_test, quick_attack_config, entry,
        kwargs, error, message):
    args = [[0, 1]] if entry == "sweep_n_init" else []
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        getattr(harness, entry)(blobs_mlp, blobs_boundaries, blobs_test,
                                quick_attack_config, *args, **kwargs)


@pytest.mark.parametrize("values, seeds, message", [
    ([1.7], None, "n_init_values[0]: expected int, got float"),
    ([0, 1], [2.9], "seeds[0]: expected int, got float"),
    ([0, 1], [3, -1], "seeds[1]: must be >= 0, got -1"),
    ((0, "2"), None, "n_init_values[1]: expected int, got str"),
], ids=["split-float", "seed-float", "seed-negative", "split-str"])
def test_sweep_refuses_splits_and_seeds_it_used_to_truncate(
        blobs_mlp, blobs_boundaries, blobs_test, quick_attack_config, values,
        seeds, message):
    with pytest.raises((TypeError, ValueError),
                       match=f"^{re.escape(message)}$"):
        harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test,
                             quick_attack_config, values, seeds=seeds)


@pytest.mark.parametrize("entry", ["evaluate", "attack_dataset",
                                   "sweep_n_init", "run_restarts_batch"])
@pytest.mark.parametrize("method, init, message", [
    ("bogus", "boundary", "method: 'bogus' is not one of pgd/fab"),
    ("pgd", "nonsense", "init: 'nonsense' is not one of none/random/boundary"),
    ("bogus", "nonsense", "method: 'bogus' is not one of pgd/fab"),
], ids=["method", "init", "both"])
def test_unknown_method_or_init_is_refused_with_nothing_to_attack(
        blobs_mlp, blobs_boundaries, blobs_test, quick_attack_config, entry,
        method, init, message):
    # every label is wrong, so no chunk has an example to attack: the
    # refusal cannot wait for one
    wrong = data.Dataset(
        images=blobs_test.images,
        labels=(blobs_mlp.predict(blobs_test.images) + 1) % blobs_mlp.k)
    calls = {
        "evaluate": lambda: harness.evaluate(
            blobs_mlp, blobs_boundaries, wrong, quick_attack_config,
            method=method, init=init),
        "attack_dataset": lambda: harness.attack_dataset(
            blobs_mlp, blobs_boundaries, wrong, quick_attack_config,
            method=method, init=init),
        "sweep_n_init": lambda: harness.sweep_n_init(
            blobs_mlp, blobs_boundaries, wrong, quick_attack_config, [0, 1],
            method=method, init=init),
        "run_restarts_batch": lambda: attacks.run_restarts_batch(
            blobs_mlp, blobs_boundaries, wrong.images[:0], wrong.labels[:0],
            quick_attack_config, method=method, init=init),
    }
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calls[entry]()


def test_sweep_takes_numpy_ints_as_ints(blobs_mlp, blobs_boundaries,
                                        blobs_test, quick_attack_config):
    sw = harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test,
                              quick_attack_config, [np.int64(1)],
                              seeds=[np.int64(2)])
    assert sw.n_init_values == (1,) and sw.seeds == (2,)
    assert type(sw.n_init_values[0]) is int and type(sw.seeds[0]) is int


def test_zero_epsilon_keeps_robust_equal_to_clean(blobs_mlp,
                                                  blobs_boundaries,
                                                  blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.0, alpha=0.02, restarts=2,
                               n_init=2, n_attack=5, seed=1)
    rep = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test, cfg)
    assert rep.robust_accuracy == rep.clean_accuracy


def test_iteration_stats_cover_attacked_successes_only(blobs_mlp,
                                                       blobs_boundaries,
                                                       blobs_test,
                                                       quick_attack_config):
    rep = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                           quick_attack_config)
    iters = [e.iterations for e in rep.examples if e.success and e.attacked]
    if iters:
        assert rep.mean_iterations_to_success == pytest.approx(
            float(np.mean(iters)))
        assert rep.median_iterations_to_success == pytest.approx(
            float(np.median(iters)))
    else:
        assert rep.mean_iterations_to_success is None


def test_report_is_identical_across_worker_counts(blobs_mlp,
                                                  blobs_boundaries,
                                                  blobs_test,
                                                  quick_attack_config):
    texts = []
    for workers in (1, 3):
        rep = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                               quick_attack_config, workers=workers,
                               chunk_size=8)
        texts.append(rep.to_json())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("method", ["pgd", "fab"])
def test_chunk_threads_share_no_attack_buffers(method, blobs_mlp,
                                               blobs_boundaries, blobs_test):
    # 20 chunks on two threads, each chunk's restarts reusing its own
    # ball and live-set buffers; a short switch interval interleaves them
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, eta_init=0.02,
                               restarts=2, n_init=3, n_attack=10, seed=7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        texts = [harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                                  cfg, method=method, init="boundary",
                                  workers=workers, chunk_size=8).to_json()
                 for workers in (1, 2)]
    finally:
        sys.setswitchinterval(interval)
    assert texts[0] == texts[1]


def test_chunk_threads_fill_one_outcome_without_losing_rows(
        blobs_boundaries, blobs_test, quick_attack_config):
    # threads write their chunks' rows of one dataset-wide outcome: every
    # field, attacked and misclassified rows alike, is the one-thread one
    raw = model.mlp((8,), k=4, n=2, hidden=(16,), seed=99)
    bs = geometry.boundary_set_for(raw)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [harness.attack_dataset(raw, bs, blobs_test,
                                       quick_attack_config, workers=workers,
                                       chunk_size=8)
                for workers in (1, 3)]
    finally:
        sys.setswitchinterval(interval)
    (pred, one), (pred3, three) = runs
    assert (pred != blobs_test.labels).any()
    assert pred.tobytes() == pred3.tobytes()
    for name, a in vars(one).items():
        assert a.tobytes() == getattr(three, name).tobytes(), name


def test_report_is_identical_across_chunk_sizes(blobs_mlp,
                                                blobs_boundaries,
                                                blobs_test,
                                                quick_attack_config):
    a = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                         quick_attack_config, chunk_size=7)
    b = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                         quick_attack_config, chunk_size=256)
    assert a.to_json() == b.to_json()


def test_report_json_round_trips(blobs_mlp, blobs_boundaries, blobs_test,
                                 quick_attack_config):
    rep = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                           quick_attack_config)
    payload = json.loads(rep.to_json())
    assert payload == rep.to_dict()
    assert payload["config"]["epsilon"] == quick_attack_config.epsilon
    assert "version" in payload
    assert "workers" not in payload["config"]


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_report_dict_is_its_fields_plus_version(blobs_mlp, blobs_boundaries,
                                                blobs_test,
                                                quick_attack_config):
    rep = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                           quick_attack_config)
    got = rep.to_dict()
    assert set(got) == _field_names(harness.EvalReport) | {"version"}
    assert all(set(e) == _field_names(harness.ExampleOutcome)
               for e in got["examples"])
    text = rep.to_json()
    got["seeds"].append(99)
    got["config"]["epsilon"] = 1.0
    got["examples"][0]["success"] = not got["examples"][0]["success"]
    got["examples"].pop()
    got["model_id"] = "changed"
    assert rep.to_json() == text


def test_attack_and_model_ids_are_descriptive(blobs_mlp,
                                              quick_attack_config):
    aid = harness.attack_id_of(quick_attack_config, "pgd", "boundary")
    assert "pgd" in aid and "boundary" in aid and "eps0.08" in aid
    mid = harness.model_id_of(blobs_mlp)
    assert "mlp" in mid


# -- sweep ---------------------------------------------------------------


def test_sweep_holds_total_budget_fixed(blobs_mlp, blobs_boundaries,
                                        blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=1,
                               n_init=0, n_attack=6, seed=2)
    sw = harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                              n_init_values=[0, 2, 4], seeds=[2, 3])
    assert sw.total_budget == 6
    assert len(sw.points) == 6  # 3 values x 2 seeds
    for pt in sw.points:
        assert pt.n_init + pt.n_attack == 6
        assert pt.report.config["n_init"] == pt.n_init
        assert pt.report.seeds == (pt.seed,)


def test_sweep_zero_init_point_equals_random_init(blobs_mlp,
                                                  blobs_boundaries,
                                                  blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=1,
                               n_init=0, n_attack=6, seed=2)
    sw = harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                              n_init_values=[0], seeds=[2])
    rand = harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                            method="pgd", init="random")
    pt = sw.points[0]
    assert pt.report.robust_accuracy == rand.robust_accuracy
    assert [e.iterations for e in pt.report.examples] == [
        e.iterations for e in rand.examples]


def test_sweep_series_and_csv(blobs_mlp, blobs_boundaries, blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=1,
                               n_init=0, n_attack=6, seed=2)
    sw = harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                              n_init_values=[0, 3], seeds=[1, 2, 3])
    robust = sw.robust_accuracy_series()
    assert len(robust) == 2  # one seed-mean per budget split
    for v in robust:
        assert 0.0 <= v <= 1.0
    # the series is the plain mean of the per-seed reports
    per_seed = [pt.report.robust_accuracy for pt in sw.points
                if pt.n_init == 0]
    assert robust[0] == pytest.approx(np.mean(per_seed))
    text = sw.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    rows = [l for l in lines if not l.startswith("#")][1:]
    # per-(value, seed) rows plus one mean row per value
    assert len(rows) == 2 * 3 + 2
    mean_rows = [r for r in rows if ",mean," in r or r.split(",")[1] == "mean"]
    assert len(mean_rows) == 2


def test_sweep_is_deterministic(blobs_mlp, blobs_boundaries, blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=1,
                               n_init=1, n_attack=5, seed=4)
    a = harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                             n_init_values=[0, 2], seeds=[4]).to_csv()
    b = harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                             n_init_values=[0, 2], seeds=[4],
                             workers=2, chunk_size=8).to_csv()
    assert a == b


def _hand_report(iterations):
    """A three-example report whose first examples succeed at
    ``iterations``."""
    examples = tuple(
        harness.ExampleOutcome(
            index=i, label=0, predicted=0, success=i < len(iterations),
            iterations=iterations[i] if i < len(iterations) else -1,
            restart=0 if i < len(iterations) else -1, attacked=True)
        for i in range(3))
    return harness.EvalReport(
        model_id="m", attack_id="a", method="pgd", init="boundary",
        clean_accuracy=1.0, robust_accuracy=(3 - len(iterations)) / 3,
        evaluated=3, successes=len(iterations), failures=3 - len(iterations),
        mean_iterations_to_success=(float(np.mean(iterations))
                                    if iterations else None),
        median_iterations_to_success=(float(np.median(iterations))
                                      if iterations else None),
        seeds=(1,), config={}, examples=examples)


def test_sweep_csv_text():
    # split 0 has no success in either seed; split 4 is repeated
    by_split = {0: (_hand_report([]), _hand_report([])),
                4: (_hand_report([1]), _hand_report([1, 4]))}
    points = tuple(
        harness.SweepPoint(n_init=nv, n_attack=6 - nv, seed=sd, report=rep)
        for nv in (0, 4, 4) for sd, rep in zip((1, 2), by_split[nv]))
    sw = harness.SweepResult(
        total_budget=6, n_init_values=(0, 4, 4), seeds=(1, 2), method="pgd",
        init="boundary", base_config={"seed": 1, "epsilon": 0.1},
        points=points)
    assert sw.mean_iterations_series() == (None, 1.75, 1.75)
    assert sw.to_csv(meta={"z": 1, "a": "b"}) == (
        "# boundarylab-sweep 1\n"
        f"# version: {__version__}\n"
        "# method: pgd\n"
        "# init: boundary\n"
        "# total_budget: 6\n"
        '# base_config: {"epsilon": 0.1, "seed": 1}\n'
        "# seeds: 1,2\n"
        "# a: b\n"
        "# z: 1\n"
        "n_init,n_attack,total_budget,seed,evaluated,successes,"
        "robust_accuracy,mean_iterations_to_success,"
        "median_iterations_to_success\n"
        "0,6,6,1,3,0,1.0,,\n"
        "0,6,6,2,3,0,1.0,,\n"
        "4,2,6,1,3,1,0.6666666666666666,1.0,1.0\n"
        "4,2,6,2,3,2,0.3333333333333333,2.5,2.5\n"
        "4,2,6,1,3,1,0.6666666666666666,1.0,1.0\n"
        "4,2,6,2,3,2,0.3333333333333333,2.5,2.5\n"
        "0,6,6,mean,,,1.0,,\n"
        "4,2,6,mean,,,0.49999999999999994,1.75,\n"
        "4,2,6,mean,,,0.49999999999999994,1.75,\n")


def _sweep_by_evaluate(c, bs, ds, config, values, method, init, seeds):
    # the sweep as one evaluate call per (split, seed), in the sweep's order
    points = []
    for nv in values:
        cfg = config.with_budget_split(nv)
        for sd in seeds:
            rep = harness.evaluate(c, bs, ds,
                                   dataclasses.replace(cfg, seed=sd),
                                   method=method, init=init)
            points.append(harness.SweepPoint(n_init=nv, n_attack=cfg.n_attack,
                                             seed=sd, report=rep))
    return harness.SweepResult(
        total_budget=config.n_init + config.n_attack,
        n_init_values=tuple(values), seeds=tuple(seeds), method=method,
        init=init, base_config=dataclasses.asdict(config),
        points=tuple(points))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("init", ["none", "random", "boundary"])
@pytest.mark.parametrize("method", ["pgd", "fab"])
def test_sweep_equals_one_evaluate_per_point(method, init, workers,
                                             blobs_mlp, blobs_boundaries,
                                             blobs_test, quick_attack_config):
    # unsorted, a split twice and one with no attack steps; 48-example
    # chunks split the 160 examples 48/48/48/16
    values, seeds = [5, 0, 2, 2, 13], [7, 8]
    sw = harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test,
                              quick_attack_config, values, method=method,
                              init=init, seeds=seeds, workers=workers,
                              chunk_size=48)
    want = _sweep_by_evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                              quick_attack_config, values, method, init,
                              seeds)
    assert sw.to_csv() == want.to_csv()
    assert len(sw.points) == len(want.points) == 10
    for got, ref in zip(sw.points, want.points):
        assert (got.n_init, got.n_attack, got.seed) == (
            ref.n_init, ref.n_attack, ref.seed)
        assert got.report.to_json() == ref.report.to_json()


def test_sweep_draws_each_start_once_and_descends_once(
        monkeypatch, blobs_mlp, blobs_boundaries, blobs_test):
    counts = {"random_start_batch": 0, "boundary_distance_grad": 0}
    for name in counts:
        fn = getattr(attacks, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(attacks, name, counted)
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, eta_init=0.02,
                               restarts=3, n_init=0, n_attack=8, seed=1)
    seeds, chunks = (1, 2), 4  # 160 examples in chunks of 48
    harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test, cfg,
                         list(range(6)), seeds=seeds, chunk_size=48)
    assert counts["random_start_batch"] == len(seeds) * chunks * 3
    # each descent move is one head backward; the n_init=5 point alone
    # makes every one the whole sweep makes
    sweep_moves = counts["boundary_distance_grad"]
    counts["boundary_distance_grad"] = 0
    for sd in seeds:
        harness.evaluate(blobs_mlp, blobs_boundaries, blobs_test,
                         dataclasses.replace(cfg.with_budget_split(5),
                                             seed=sd), chunk_size=48)
    assert counts["boundary_distance_grad"] == sweep_moves > 0


def test_sweep_refuses_an_empty_seed_list(blobs_mlp, blobs_boundaries,
                                          blobs_test, quick_attack_config):
    with pytest.raises(ValueError, match="^seeds: empty list$"):
        harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test,
                             quick_attack_config, [0, 2], seeds=())


def test_sweep_refuses_an_empty_split_list(blobs_mlp, blobs_boundaries,
                                           blobs_test, quick_attack_config):
    # refused by the argument's name, as the CLI words it after its path
    for seeds in (None, ()):
        with pytest.raises(ValueError, match="^n_init_values: empty list$"):
            harness.sweep_n_init(blobs_mlp, blobs_boundaries, blobs_test,
                                 quick_attack_config, [], seeds=seeds)


# -- representation export ----------------------------------------------


@pytest.fixture(scope="module")
def repr_export(request):
    blobs_mlp = request.getfixturevalue("blobs_mlp")
    blobs_boundaries = request.getfixturevalue("blobs_boundaries")
    blobs_test = request.getfixturevalue("blobs_test")
    cfg = attacks.AttackConfig(epsilon=0.12, alpha=0.03, restarts=2,
                               n_init=2, n_attack=8, seed=5)
    _, out = harness.attack_dataset(blobs_mlp, blobs_boundaries, blobs_test,
                                    cfg)
    exp = harness.export_representation_space(blobs_mlp, blobs_boundaries,
                                              blobs_test, out)
    return exp, out, blobs_mlp, blobs_boundaries, blobs_test


def test_export_has_all_boundaries_and_pairs(repr_export):
    exp, out, clf, bs, ds = repr_export
    assert exp.k == bs.k and exp.n == bs.n
    assert len(exp.boundaries) == bs.k * (bs.k - 1) // 2
    by_index = {}
    for rec in exp.records:
        by_index.setdefault(rec.index, []).append(rec.kind)
    for kinds in by_index.values():
        assert sorted(kinds) == ["adversarial", "original"]


def test_export_predictions_match_region_predicate(repr_export):
    exp, out, clf, bs, ds = repr_export
    for rec in exp.records:
        v = np.asarray(rec.v)
        z = v @ clf.tail.weight.T + clf.tail.bias
        assert rec.predicted == int(np.argmax(z))


def test_export_success_flag_matches_outcome(repr_export):
    exp, out, clf, bs, ds = repr_export
    for rec in exp.records:
        assert rec.success == bool(out.success[rec.index])


def test_export_csv_is_stable(repr_export):
    exp, out, clf, bs, ds = repr_export
    exp2 = harness.export_representation_space(clf, bs, ds, out)
    assert exp.to_csv() == exp2.to_csv()
    header = [l for l in exp.to_csv().split("\n")
              if l and not l.startswith("#")][0]
    assert header.split(",")[:3] == ["kind", "index", "class_i"]


def test_export_csv_text():
    rec = harness.ReprRecord
    exp = harness.ReprExport(
        k=2, n=2, boundaries=((0, 1, (0.5, -1.25), 2.0),), records=(
            rec(index=0, kind="original", label=1, predicted=1,
                success=False, v=(-0.5, 3.0)),
            rec(index=0, kind="adversarial", label=1, predicted=1,
                success=False, v=(0.1, -2.0)),
            rec(index=1, kind="original", label=0, predicted=0,
                success=True, v=(1.0, 0.25)),
            rec(index=1, kind="adversarial", label=0, predicted=1,
                success=True, v=(-1e-05, 7.0))))
    assert exp.to_csv(meta={"run_config": "{}"}) == (
        "# boundarylab-repr-export 1\n"
        f"# version: {__version__}\n"
        "# k: 2\n"
        "# n: 2\n"
        "# run_config: {}\n"
        "kind,index,class_i,class_j,label,predicted,success,bias,c0,c1\n"
        "boundary,,0,1,,,,2.0,0.5,-1.25\n"
        "original,0,,,1,1,false,,-0.5,3.0\n"
        "adversarial,0,,,1,1,false,,0.1,-2.0\n"
        "original,1,,,0,0,true,,1.0,0.25\n"
        "adversarial,1,,,0,1,true,,-1e-05,7.0\n")


def test_export_dict_is_its_fields_plus_version(repr_export):
    exp = repr_export[0]
    got = exp.to_dict()
    assert set(got) == _field_names(harness.ReprExport) | {"version"}
    assert all(set(r) == _field_names(harness.ReprRecord)
               for r in got["records"])
    assert all(set(b) == {"class_i", "class_j", "w", "bias"}
               for b in got["boundaries"])
    text = exp.to_json()
    got["records"][0]["v"][0] = 7.0
    got["records"][1]["kind"] = "changed"
    got["boundaries"][0]["w"][0] = 7.0
    got["k"] = 0
    assert exp.to_json() == text
