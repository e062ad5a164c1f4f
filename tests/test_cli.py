import json
import os
import re
import stat
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from boundarylab import attacks, cli, data, model, verify
from helpers import rewrite_checkpoint_header

BLOBS = {"kind": "blobs", "n_per_class": 15, "k": 3, "d": 6,
         "separation": 6.0, "seed": 1}
TEST_BLOBS = dict(BLOBS, seed=2, n_per_class=10)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ckpt = root / "model.ckpt"
    cfg = root / "train.json"
    cfg.write_text(json.dumps({
        "seed": 0,
        "dataset": BLOBS,
        "model": {"preset": "mlp", "k": 3, "n": 2, "hidden": [16],
                  "seed": 0},
        "train": {"epochs": 20},
        "out": str(ckpt),
    }))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return root, ckpt


def attack_config(root, ckpt, out_name="report.json", **extra):
    cfg = {
        "dataset": TEST_BLOBS,
        "model_path": str(ckpt),
        "attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 2,
                   "n_init": 2, "n_attack": 8, "seed": 5},
        "out": str(root / out_name),
    }
    cfg.update(extra)
    path = root / f"cfg-{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path, root / out_name


def test_train_writes_a_loadable_checkpoint(trained):
    root, ckpt = trained
    clf = model.Classifier.load(ckpt)
    assert clf.k == 3
    assert clf.meta["run_config"]["dataset"]["kind"] == "blobs"
    assert "out" not in clf.meta["run_config"]


def test_attack_report_embeds_resolved_config(trained):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt)
    assert cli.main(["attack", "--config", str(cfg)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["epsilon"] == 0.08
    assert payload["config"]["method"] == "pgd"
    assert payload["config"]["init"] == "boundary"
    assert payload["seeds"] == [5]
    assert 0.0 <= payload["robust_accuracy"] <= payload["clean_accuracy"]
    assert "version" in payload
    assert "workers" not in payload["config"]


def test_attack_rerun_is_byte_identical(trained):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "rerun.json")
    assert cli.main(["attack", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert cli.main(["attack", "--config", str(cfg)]) == 0
    assert out.read_bytes() == first
    assert cli.main(["attack", "--config", str(cfg), "--workers", "3"]) == 0
    assert out.read_bytes() == first


def test_seed_flag_overrides_config(trained):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "seeded.json")
    assert cli.main(["attack", "--config", str(cfg), "--seed", "11"]) == 0
    payload = json.loads(out.read_text())
    assert payload["seeds"] == [11]
    assert payload["config"]["seed"] == 11


def test_out_flag_overrides_config(trained):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "moved.json")
    other = root / "elsewhere.json"
    assert cli.main(["attack", "--config", str(cfg),
                     "--out", str(other)]) == 0
    assert other.exists() and not out.exists()


def test_attack_method_and_init_are_selectable(trained):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "fab.json", method="fab",
                             init="random")
    assert cli.main(["attack", "--config", str(cfg)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "fab"
    assert payload["init"] == "random"


def test_sweep_writes_csv(trained):
    root, ckpt = trained
    out = root / "sweep.csv"
    cfg = root / "sweep.json"
    cfg.write_text(json.dumps({
        "dataset": TEST_BLOBS,
        "model_path": str(ckpt),
        "attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 1,
                   "n_init": 0, "n_attack": 6, "seed": 3},
        "sweep": {"n_init_values": [0, 2], "seeds": [3, 4]},
        "out": str(out),
    }))
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    data_rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(data_rows) == 2 * 2 + 2  # per-seed rows plus mean rows


def test_digits_and_a_sweep_load_no_scipy(trained):
    # scipy serves verify's LP check and the tests, not the import path
    root, ckpt = trained
    cfg = root / "sweep-imports.json"
    cfg.write_text(json.dumps({
        "dataset": TEST_BLOBS,
        "model_path": str(ckpt),
        "attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 1,
                   "n_init": 1, "n_attack": 2, "seed": 3},
        "sweep": {"n_init_values": [0, 1], "seeds": [3]},
        "out": str(root / "sweep-imports.csv"),
    }))
    script = (
        "import sys\n"
        "from boundarylab import cli, data\n"
        "data.make_digits(2, classes=(0, 1), size=8)\n"
        f"assert cli.main(['sweep', '--config', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_idx_files_and_a_sweep_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use; a dataset built without a
    # class map, as load_idx builds one, collects its labels without it
    shape = (1, 3, 4)
    ckpt = model.mlp(shape, 3, n=2, hidden=(4,), seed=0).save(
        tmp_path / "mlp.ckpt")
    ds = data.make_digits(3, classes=(0, 1, 2), size=4, seed=0)
    ds = data.Dataset(images=ds.images[:, :, :3], labels=ds.labels,
                      class_map=ds.class_map)
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "dataset": {"kind": "idx", "images": str(ip), "labels": str(lp)},
        "model_path": str(ckpt),
        "attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 1,
                   "n_init": 1, "n_attack": 2, "seed": 3},
        "sweep": {"n_init_values": [0, 1], "seeds": [3]},
        "out": str(tmp_path / "sweep.csv"),
    }))
    script = (
        "import sys\n"
        "from boundarylab import cli, data\n"
        f"assert data.load_idx({str(ip)!r}, {str(lp)!r}).k == 3\n"
        f"assert cli.main(['sweep', '--config', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_export_repr_csv_and_json(trained):
    root, ckpt = trained
    for fmt, name in (("csv", "repr.csv"), ("json", "repr.json")):
        out = root / name
        cfg = root / f"repr-{fmt}.json"
        cfg.write_text(json.dumps({
            "dataset": TEST_BLOBS,
            "model_path": str(ckpt),
            "attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 1,
                       "n_init": 2, "n_attack": 6, "seed": 3},
            "out": str(out),
        }))
        assert cli.main(["export-repr", "--config", str(cfg),
                         "--format", fmt]) == 0
        text = out.read_text()
        if fmt == "json":
            payload = json.loads(text)
            assert payload["k"] == 3 and payload["n"] == 2
            assert len(payload["boundaries"]) == 3
        else:
            rows = [l for l in text.strip().split("\n")
                    if not l.startswith("#")]
            assert rows[0].split(",")[0] == "kind"
            kinds = {r.split(",")[0] for r in rows[1:]}
            assert kinds == {"boundary", "original", "adversarial"}


def test_export_repr_is_identical_across_worker_counts(trained):
    root, ckpt = trained
    # 300 examples span two evaluation chunks
    cfg, out = attack_config(root, ckpt, "repr-workers.csv",
                             dataset=dict(TEST_BLOBS, n_per_class=100))
    outputs = []
    for workers in ("1", "2"):
        assert cli.main(["export-repr", "--config", str(cfg),
                         "--workers", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_command_passes():
    assert cli.main(["verify"]) == 0


def _verify_lines(capsys, status):
    return [l.split(":")[0].removeprefix(f"{status}  ")
            for l in capsys.readouterr().out.splitlines()
            if l.startswith(f"{status}  ")]


def test_a_raising_check_fails_under_its_usual_name(monkeypatch, capsys):
    assert cli.main(["verify"]) == 0
    names = _verify_lines(capsys, "PASS")
    assert len(names) == len(verify.CHECKS)

    def boom(seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "CHECKS",
                        tuple((name, boom) for name, _ in verify.CHECKS))
    assert cli.main(["verify"]) == 2
    assert _verify_lines(capsys, "FAIL") == names


@pytest.mark.parametrize("seed, error", [
    (-1, "seed: must be >= 0, got -1"),
    (99999999999999999999999, "overflows at dataset position 0:"),
    (2**63 - 119, "overflows at dataset position 59:"),
])
def test_verify_refuses_a_seed_its_checks_cannot_use(seed, error, capsys):
    assert cli.main(["verify", "--seed", str(seed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: seed: ") and error in err


# -- defaults ------------------------------------------------------------


TRAIN_DEFAULTS = {"epochs": 4, "lr": 0.05, "momentum": 0.9,
                  "batch_size": 128}


def _idx_files(tmp_path, labels):
    ds = data.Dataset(images=np.full((len(labels), 1, 3, 3), 0.5),
                      labels=np.array(labels))
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    return {"kind": "idx", "images": str(ip), "labels": str(lp)}


def _train_run_config(tmp_path, dataset, preset):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"dataset": dataset,
                               "model": {"preset": preset},
                               "out": str(tmp_path / "m.ckpt")}))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return model.Classifier.load(tmp_path / "m.ckpt").meta["run_config"]


def test_train_with_only_required_keys_records_every_default(tmp_path):
    digits = _train_run_config(tmp_path, {"kind": "digits", "n_per_class": 1},
                               "small_cnn")
    assert digits == {
        "command": "train",
        "dataset": {"kind": "digits", "n_per_class": 1,
                    "classes": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "size": 28,
                    "seed": 0},
        "model": {"preset": "small_cnn", "k": 10, "n": 2, "seed": 0},
        "train": TRAIN_DEFAULTS, "seed": 0, "adversarial": None}
    blobs = {"kind": "blobs", "n_per_class": 4, "k": 3, "d": 2,
             "separation": 4.0}
    assert _train_run_config(tmp_path, blobs, "linear") == {
        "command": "train", "dataset": dict(blobs, seed=0),
        "model": {"preset": "linear", "k": 3, "seed": 0},
        "train": TRAIN_DEFAULTS, "seed": 0, "adversarial": None}
    idx = _idx_files(tmp_path, [0, 1, 2, 1])
    assert _train_run_config(tmp_path, idx, "mlp") == {
        "command": "train", "dataset": idx,
        "model": {"preset": "mlp", "k": 3, "n": 8, "hidden": [32],
                  "seed": 0},
        "train": TRAIN_DEFAULTS, "seed": 0, "adversarial": None}


def test_idx_labels_with_a_gap_train_at_the_default_k(tmp_path):
    # labels {0, 1, 3}: class 2 has no examples but is still a class
    idx = _idx_files(tmp_path, [0, 1, 3, 1])
    assert _train_run_config(tmp_path, idx, "mlp")["model"]["k"] == 4
    assert model.Classifier.load(tmp_path / "m.ckpt").k == 4


def test_attack_without_method_init_or_seed_records_the_defaults(trained):
    root, ckpt = trained
    attack = {"epsilon": 0.08, "alpha": 0.02, "restarts": 2, "n_init": 2,
              "n_attack": 8}
    out = root / "defaults.json"
    cfg = root / "defaults-cfg.json"
    cfg.write_text(json.dumps({"dataset": TEST_BLOBS,
                               "model_path": str(ckpt), "attack": attack,
                               "out": str(out)}))
    assert cli.main(["attack", "--config", str(cfg)]) == 0
    payload = json.loads(out.read_text())
    resolved = dict(attack, eta_init=0.08, seed=0)
    assert payload["config"] == dict(resolved, method="pgd", init="boundary")
    assert payload["run_config"] == {
        "command": "attack", "model_path": str(ckpt), "dataset": TEST_BLOBS,
        "attack": resolved, "method": "pgd", "init": "boundary", "seed": 0}


@pytest.mark.parametrize("command, flag", [
    ("verify", "--workers"), ("verify", "--out"), ("train", "--workers")])
def test_a_command_refuses_the_flags_it_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


# -- failure modes -------------------------------------------------------


def test_missing_config_file_is_io_error(capsys):
    assert cli.main(["attack", "--config", "/nonexistent/x.json"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["attack", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_integer_past_the_digit_limit_is_config_error(tmp_path, capsys):
    bad = tmp_path / "long.json"
    bad.write_text('{"seed": ' + "1" * 5000 + "}")
    assert cli.main(["train", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "integer too long to read" in err and str(bad) in err


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b'{"a": "\xff\xfe"}')
    assert cli.main(["train", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(bad) in err


def test_missing_required_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": BLOBS, "out": "x.json"}))
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert "model_path" in capsys.readouterr().err


def test_unknown_attack_key_is_config_error(tmp_path, trained, capsys):
    root, ckpt = trained
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "dataset": TEST_BLOBS, "model_path": str(ckpt),
        "attack": {"epsilon": 0.1, "alpha": 0.01, "restarts": 1,
                   "n_init": 0, "n_attack": 5, "seed": 0,
                   "stepsize": 0.5},
        "out": str(tmp_path / "r.json"),
    }))
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert "stepsize" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, message", [
    ("train", {"dataset": dict(BLOBS, sizee=5)},
     "dataset.sizee: unknown key (known: d, k, keep, kind, n_per_class, "
     "sample, seed, separation)"),
    ("train", {"dataset": dict(BLOBS, sample={"n": 9, "sed": 1})},
     "dataset.sample.sed: unknown key (known: n, seed)"),
    ("train", {"model": {"preset": "linear", "hiddn": [3]}},
     "model.hiddn: unknown key (known: k, preset, seed)"),
    ("train", {"train": {"lrr": 5}},
     "train.lrr: unknown key (known: batch_size, epochs, lr, momentum)"),
    ("train", {"methd": "fab"}, "methd: unknown key (known: adversarial, "
     "attack, dataset, init, method, model, model_path, out, seed, sweep, "
     "train, workers)"),
    ("attack", {"methd": "fab"}, "methd: unknown key"),
    ("attack", {"dataset": dict(TEST_BLOBS, sizee=5)},
     "dataset.sizee: unknown key"),
    ("sweep", {"sweep": {"n_init_values": [0, 1], "seed": [1]}},
     "sweep.seed: unknown key (known: n_init_values, seeds)"),
    ("export-repr", {"methd": None}, "methd: unknown key"),
    ("verify", {"methd": "fab"}, "methd: unknown key"),
], ids=["dataset", "dataset.sample", "model", "train", "train-top",
        "attack-top", "attack-dataset", "sweep", "export-repr-null", "verify"])
def test_unknown_key_is_refused_by_name_in_every_section(
        tmp_path, trained, capsys, command, extra, message):
    if command == "train":
        cfg, out = _train_config(tmp_path, **extra), tmp_path / "m.ckpt"
    else:
        cfg, out = attack_config(tmp_path, trained[1], f"{command}.out",
                                 **extra)
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_one_config_serves_train_and_attack(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    cfg = _train_config(
        tmp_path, model_path=str(ckpt), method="fab", init="random",
        attack={"epsilon": 0.05, "restarts": 1, "n_init": 0, "n_attack": 2},
        sweep={"n_init_values": [0]})
    assert cli.main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
    out = tmp_path / "r.json"
    assert cli.main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "fab"


def test_null_keys_write_what_absent_keys_write(tmp_path, trained):
    """A JSON null means absent: in an attack field, ``method``, ``init``,
    ``dataset.keep``, ``dataset.sample`` and ``adversarial``."""
    nulls = {"attack": {"epsilon": None, "eta_init": None, "restarts": 1,
                        "n_init": 1, "n_attack": 2, "seed": None},
             "method": None, "init": None,
             "dataset": dict(TEST_BLOBS, keep=None, sample=None)}
    absent = {"attack": {"restarts": 1, "n_init": 1, "n_attack": 2},
              "dataset": TEST_BLOBS}
    written = []
    for name, extra in (("nulls", nulls), ("absent", absent)):
        cfg, out = attack_config(tmp_path, trained[1], f"{name}.json",
                                 **extra)
        assert cli.main(["attack", "--config", str(cfg)]) == 0
        written.append(out.read_bytes())
        ckpt = tmp_path / f"{name}.ckpt"
        cfg = _train_config(tmp_path, out=str(ckpt),
                            **({"adversarial": None} if extra is nulls
                               else {}))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        written.append(ckpt.read_bytes())
    assert written[:2] == written[2:]
    assert model.Classifier.load(tmp_path / "nulls.ckpt").meta[
        "run_config"]["adversarial"] is None


def test_invalid_attack_value_is_config_error(tmp_path, trained, capsys):
    root, ckpt = trained
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "dataset": TEST_BLOBS, "model_path": str(ckpt),
        "attack": {"epsilon": -1.0, "alpha": 0.01, "restarts": 1,
                   "n_init": 0, "n_attack": 5, "seed": 0},
        "out": str(tmp_path / "r.json"),
    }))
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert "epsilon" in capsys.readouterr().err


def test_negative_attack_seed_is_config_error(tmp_path, trained, capsys):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "negseed.json")
    assert cli.main(["attack", "--config", str(cfg), "--seed", "-1"]) == 1
    assert ("config error: seed: must be >= 0, got -1"
            in capsys.readouterr().err)


UNSEEDED = {"epsilon": 0.08, "alpha": 0.02, "restarts": 2, "n_init": 2,
            "n_attack": 8}


@pytest.mark.parametrize("command, flags, extra, message", [
    ("attack", [], {"seed": -1, "attack": UNSEEDED}, "seed"),
    ("sweep", [], {"seed": -1, "attack": UNSEEDED}, "seed"),
    ("export-repr", [], {"seed": -1, "attack": UNSEEDED}, "seed"),
    ("sweep", ["--seed", "-1"], {}, "seed"),
    ("attack", [], {"attack": dict(UNSEEDED, seed=-1)}, "attack.seed"),
    ("sweep", [], {"sweep": {"n_init_values": [0], "seeds": [3, -1]}},
     "sweep.seeds[1]"),
], ids=["attack-top", "sweep-top", "export-repr-top", "sweep-flag",
        "attack-section", "sweep-seeds"])
def test_negative_seed_is_named_by_the_key_the_user_wrote(
        trained, capsys, command, flags, extra, message):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, f"negseed-{command}.out",
                             **{"sweep": {"n_init_values": [0]}, **extra})
    assert cli.main([command, "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {message}: must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, extra", [([], {"workers": 0}),
                                          (["--workers", "0"], {})],
                         ids=["config", "flag"])
def test_zero_workers_is_refused_by_the_range_rule(trained, capsys, flags,
                                                   extra):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "workers0.json", **extra)
    assert cli.main(["attack", "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == \
        "config error: workers: must be >= 1, got 0\n"


def test_bad_method_is_config_error(tmp_path, trained, capsys):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "badmethod.json", method="cw")
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert "cw" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attack", "sweep", "export-repr"])
@pytest.mark.parametrize("key, value, message", [
    ("method", "cw", "method: 'cw' is not one of pgd/fab"),
    ("init", "odi", "init: 'odi' is not one of none/random/boundary"),
    ("method", 3, "method: 3 is not one of pgd/fab"),
], ids=["method", "init", "method-int"])
def test_unknown_method_or_init_is_refused_by_name(trained, capsys, command,
                                                   key, value, message):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, f"unknown-{command}-{key}.out",
                             sweep={"n_init_values": [0]}, **{key: value})
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_missing_model_file_is_io_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "dataset": TEST_BLOBS, "model_path": str(tmp_path / "no.ckpt"),
        "attack": {"epsilon": 0.1, "alpha": 0.01, "restarts": 1,
                   "n_init": 0, "n_attack": 5, "seed": 0},
        "out": str(tmp_path / "r.json"),
    }))
    assert cli.main(["attack", "--config", str(cfg)]) == 3


def test_corrupt_model_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "dataset": TEST_BLOBS, "model_path": str(bad),
        "attack": {"epsilon": 0.1, "alpha": 0.01, "restarts": 1,
                   "n_init": 0, "n_attack": 5, "seed": 0},
        "out": str(tmp_path / "r.json"),
    }))
    assert cli.main(["attack", "--config", str(cfg)]) == 3


def test_checkpoint_meta_of_pairs_is_io_error(tmp_path, trained, capsys):
    # once coerced to {"a": 1}; now refused by the header's key
    root, ckpt = trained
    bad = tmp_path / "meta.ckpt"
    rewrite_checkpoint_header(ckpt, bad,
                              lambda h: h.update(meta=[["a", 1]]))
    cfg, out = attack_config(root, ckpt, "meta.json", model_path=str(bad))
    assert cli.main(["attack", "--config", str(cfg)]) == 3
    assert (capsys.readouterr().err
            == "i/o error: model_path: meta: expected dict, got list\n")
    assert not out.exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda h: h["arch"].update(input_shape=[9]),
     "layer 1: dense: expected 6 features, got 9"),
    (lambda h: h["arch"]["layers"][-1].update(in_features=3),
     "layer 4: dense: expected 3 features, got 2"),
], ids=["input-shape", "tail-width"])
def test_checkpoint_layers_that_do_not_fit_are_io_error(tmp_path, trained,
                                                        capsys, mutate,
                                                        message):
    # refused at load, by layer, not blamed on the dataset at first use
    root, ckpt = trained
    bad = tmp_path / "fit.ckpt"
    rewrite_checkpoint_header(ckpt, bad, mutate)
    cfg, out = attack_config(root, ckpt, "fit.json", model_path=str(bad))
    assert cli.main(["attack", "--config", str(cfg)]) == 3
    assert (capsys.readouterr().err
            == f"i/o error: model_path: arch: input_shape: {message}\n")
    assert not out.exists()


def test_non_finite_checkpoint_is_io_error(tmp_path, trained, capsys):
    root, ckpt = trained
    clf = model.Classifier.load(ckpt)
    clf.tail.bias[0] = np.nan
    bad = clf.save(tmp_path / "nan.ckpt")
    cfg, _ = attack_config(root, ckpt, "nan.json", model_path=str(bad))
    assert cli.main(["attack", "--config", str(cfg)]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attack", "sweep", "export-repr"])
def test_idx_labels_outside_the_checkpoint_are_io_error(tmp_path, trained,
                                                        capsys, command):
    root, ckpt = trained  # a 3-class model
    ds = data.Dataset(images=np.zeros((4, 1, 2, 3)),
                      labels=np.array([0, 1, 7, 2]))
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    cfg, _ = attack_config(root, ckpt, f"idx-{command}.json",
                           dataset={"kind": "idx", "images": str(ip),
                                    "labels": str(lp)},
                           sweep={"n_init_values": [0, 1]})
    assert cli.main([command, "--config", str(cfg)]) == 3
    assert "label 7 at index 2" in capsys.readouterr().err


def test_unwritable_out_is_io_error(tmp_path, trained, capsys):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "blocked.json",
                           out=str(tmp_path / "no-such-dir" / "r.json"))
    path = root / "cfg-blocked.json.json"
    raw = json.loads(path.read_text())
    raw["out"] = str(tmp_path / "no-such-dir" / "r.json")
    path.write_text(json.dumps(raw))
    assert cli.main(["attack", "--config", str(path)]) == 3


def test_train_rejects_unknown_preset(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 0, "dataset": BLOBS,
        "model": {"preset": "resnet", "k": 3, "n": 2, "seed": 0},
        "train": {"epochs": 1},
        "out": str(tmp_path / "m.ckpt"),
    }))
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert "resnet" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, message", [
    (lambda h: h.pop("arch"), "header has no 'arch'"),
    (lambda h: h["tensors"][0].update(layer=99), "layer 99 is not one of"),
    (lambda h: h["tensors"][0].update(shape=h["tensors"][0]["shape"][::-1]),
     "has shape"),
], ids=["no-arch", "layer-99", "reversed-shape"])
def test_malformed_checkpoint_header_is_io_error(tmp_path, trained, capsys,
                                                 mutate, message):
    root, ckpt = trained
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint_header(ckpt, bad, mutate)
    cfg, _ = attack_config(root, ckpt, "badheader.json", model_path=str(bad))
    assert cli.main(["attack", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: model_path:") and message in err


@pytest.mark.parametrize("command", ["attack", "sweep", "export-repr"])
def test_overflowing_seed_is_config_error(trained, capsys, command):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, f"bigseed-{command}.json",
                           sweep={"n_init_values": [0, 1]})
    # 2 restarts: position 0 draws 2**63 - 2 and 2**63 - 1, position 1 wraps
    assert cli.main([command, "--config", str(cfg),
                     "--seed", str(2**63 - 2)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: seed:")
    assert "dataset position 1:" in err


def test_overflowing_sweep_seed_is_config_error(trained, capsys):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "bigseed-sweep-seeds.json",
                           sweep={"n_init_values": [0, 1],
                                  "seeds": [0, 2**63 - 2]})
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "dataset position 1:" in err
    assert err.startswith("config error: sweep.seeds[1]: ")


@pytest.mark.parametrize("extra, key", [
    ({"workers": "two"}, "workers: expected int, got str"),
    ({"workers": True}, "workers: expected int, got bool"),
    ({"seed": 1.5, "attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 2,
                              "n_init": 2, "n_attack": 8}},
     "seed: expected int, got float"),
    ({"dataset": dict(TEST_BLOBS, n_per_class="x")},
     "dataset.n_per_class: expected int, got str"),
    ({"dataset": dict(TEST_BLOBS, separation="far")},
     "dataset.separation: expected float, got str"),
    ({"dataset": dict(TEST_BLOBS, keep=[0, "1"])},
     "dataset.keep[1]: expected int, got str"),
    ({"dataset": dict(TEST_BLOBS, sample={"n": 5, "seed": [1]})},
     "dataset.sample.seed: expected int, got list"),
    ({"model_path": 7}, "model_path: expected str, got int"),
    ({"attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 2.5,
                 "n_init": 2, "n_attack": 8}},
     "attack.restarts: expected int, got float"),
    ({"dataset": dict(TEST_BLOBS, separation=float("inf"))},
     "dataset.separation: must be finite, got inf"),
])
def test_config_value_of_the_wrong_type_is_config_error(trained, capsys,
                                                        extra, key):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "wrongtype.json", **extra)
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err


def test_train_value_of_the_wrong_type_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 0, "dataset": BLOBS,
        "model": {"preset": "mlp", "k": 3, "hidden": [16, "32"]},
        "train": {"epochs": 1}, "out": str(tmp_path / "m.ckpt"),
    }))
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert "model.hidden[1]: expected int" in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    ([0, 11], "sweep.n_init_values[1]: must be <= 10, got 11"),
    ([], "sweep.n_init_values: empty"),
    ([0, "2"], "sweep.n_init_values[1]: expected int"),
])
def test_bad_sweep_split_is_config_error(trained, capsys, values, message):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "badsplit.json",
                           sweep={"n_init_values": values})
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("values, message", [
    ([0, 11], "sweep.n_init_values[1]: must be <= 10, got 11"),
    ([-1], "sweep.n_init_values[0]: must be >= 0, got -1"),
], ids=["above-budget", "negative"])
def test_a_sweep_split_outside_the_budget_is_refused_by_its_index(
        trained, capsys, values, message):
    root, ckpt = trained  # attack_config's budget is 2 + 8
    cfg, out = attack_config(root, ckpt, "split-index.csv",
                             sweep={"n_init_values": values})
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_empty_sweep_seeds_is_config_error(trained, capsys):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "noseeds.json",
                             sweep={"n_init_values": [0, 1], "seeds": []})
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert "sweep.seeds: empty list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep, message", [
    ({"n_init_values": []}, "sweep.n_init_values: empty list"),
    ({"n_init_values": [], "seeds": "3"},
     "sweep.n_init_values: empty list"),
    ({"n_init_values": [0], "seeds": []}, "sweep.seeds: empty list"),
], ids=["splits", "splits-before-seeds", "seeds"])
def test_an_empty_sweep_list_is_refused_as_the_library_words_it(
        trained, capsys, sweep, message):
    # the library's rule (harness._RULES) with the config path in front
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "empty-list.csv", sweep=sweep)
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_invariant_failure_inside_a_sweep_exits_2(trained, capsys,
                                                  monkeypatch):
    from boundarylab import harness

    def broken(*args, **kwargs):
        raise ValueError("counts do not reconcile")

    monkeypatch.setattr(harness, "sweep_n_init", broken)
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "broken-sweep.json",
                           sweep={"n_init_values": [0, 1]})
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert "invariant failure" in capsys.readouterr().err


def test_diverged_training_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 0,
        "dataset": {"kind": "digits", "n_per_class": 16,
                    "classes": [0, 1, 2, 3], "size": 16, "seed": 0},
        "model": {"preset": "small_cnn"},
        "train": {"epochs": 3, "lr": 1000.0, "batch_size": 16},
        "out": str(out),
    }))
    with np.errstate(all="ignore"):
        assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "non-finite running_var of layer 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dataset, shape", [
    ({"kind": "digits", "n_per_class": 2, "classes": [0, 1, 2], "size": 12},
     "(1, 12, 12)"),
    (dict(TEST_BLOBS, d=5), "(5,)"),
])
def test_dataset_of_another_shape_is_config_error(trained, capsys, dataset,
                                                  shape):
    root, ckpt = trained  # takes (6,)
    cfg, _ = attack_config(root, ckpt, "shape.json", dataset=dataset)
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"images have shape {shape}, the checkpoint takes (6,)" in err


def test_idx_images_of_another_shape_are_io_error(tmp_path, trained, capsys):
    root, ckpt = trained
    ds = data.Dataset(images=np.zeros((3, 1, 2, 3)),
                      labels=np.array([0, 1, 2]))
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    cfg, _ = attack_config(root, ckpt, "idx-shape.json",
                           dataset={"kind": "idx", "images": str(ip),
                                    "labels": str(lp)})
    assert cli.main(["attack", "--config", str(cfg)]) == 3
    assert "images have shape (1, 2, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("dataset, key", [
    ({"kind": "digits", "n_per_class": -1, "classes": [0, 1, 2]},
     "n_per_class"),
    ({"kind": "digits", "n_per_class": 2, "classes": [0, 1, 2], "size": -4},
     "size"),
    (dict(TEST_BLOBS, n_per_class=-1), "n_per_class"),
    (dict(TEST_BLOBS, k=1), "k"),
    (dict(TEST_BLOBS, d=0), "d"),
    (dict(TEST_BLOBS, seed=-2), "seed"),
    ({"kind": "digits", "n_per_class": 2, "classes": [0, 1, 2], "seed": -2},
     "seed"),
    (dict(TEST_BLOBS, sample={"n": 5, "seed": -2}), "sample.seed"),
    (dict(TEST_BLOBS, sample={"n": -1, "seed": 0}), "sample.n"),
])
def test_bad_dataset_size_is_config_error(trained, capsys, dataset, key):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "badsize.json", dataset=dataset)
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert f"config error: dataset.{key}: must be >=" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ({"dataset": dict(TEST_BLOBS, sample={"n": 50})},
     "dataset.sample.n: must be <= 30, got 50"),
    ({"dataset": {"kind": "digits", "n_per_class": 2, "classes": [1.7, 2],
                  "size": 6}},
     "dataset.classes[0]: expected int, got float"),
    ({"dataset": {"kind": "digits", "n_per_class": 2, "classes": "12",
                  "size": 6}},
     "dataset.classes: expected list, got str"),
    ({"dataset": {"kind": "digits", "n_per_class": 2, "classes": [0, 11],
                  "size": 6}},
     "dataset.classes[1]: must be <= 9, got 11"),
    ({"dataset": {"kind": "digits", "n_per_class": 2, "classes": [],
                  "size": 6}},
     "dataset.classes: empty list"),
    ({"dataset": dict(TEST_BLOBS, keep=[1.5, 2])},
     "dataset.keep[0]: expected int, got float"),
    ({"dataset": dict(TEST_BLOBS, keep=[])},
     "dataset.keep: empty list"),
    ({"dataset": dict(TEST_BLOBS, keep=[1, 7])},
     "dataset.keep: classes [7] not present (have [0, 1, 2])"),
], ids=["sample-n-above-size", "classes-float", "classes-str",
        "classes-above-9", "classes-empty", "keep-float", "keep-empty",
        "keep-absent"])
def test_dataset_values_are_refused_by_their_path(trained, capsys, extra,
                                                  message):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "dataset-path.json", **extra)
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("sweep, message", [
    ({"n_init_values": [1.7]},
     "sweep.n_init_values[0]: expected int, got float"),
    ({"n_init_values": [0, 1], "seeds": [2.9]},
     "sweep.seeds[0]: expected int, got float"),
], ids=["split-float", "seed-float"])
def test_sweep_values_are_refused_not_truncated(trained, capsys, sweep,
                                                message):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, "sweep-path.csv", sweep=sweep)
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _train_config(tmp_path, **extra):
    cfg = {"seed": 0, "dataset": BLOBS,
           "model": {"preset": "mlp", "k": 3, "n": 2, "hidden": [8]},
           "train": {"epochs": 1}, "out": str(tmp_path / "m.ckpt")}
    cfg.update(extra)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


ADV = {"epsilon": 0.05, "restarts": 1, "n_init": 0, "n_attack": 1}


@pytest.mark.parametrize("flags, extra, message", [
    (["--seed", "-1"], {}, "seed: must be >= 0, got -1"),
    ([], {"model": {"preset": "mlp", "seed": -3}},
     "model.seed: must be >= 0, got -3"),
    ([], {"model": {"preset": "mlp", "n": 0}}, "model.n: must be >= 1, got 0"),
    ([], {"model": {"preset": "mlp", "hidden": [0]}},
     "model.hidden[0]: must be >= 1, got 0"),
    ([], {"model": {"preset": "mlp", "k": 1}}, "model.k: must be >= 2, got 1"),
    ([], {"model": {"preset": "mlp", "k": 2}},
     "model.k: label 2 at index 30 is outside the model's classes 0..1"),
    ([], {"train": {"batch_size": 0}}, "train.batch_size: must be >= 1, got 0"),
    ([], {"train": {"epochs": -1}}, "train.epochs: must be >= 0, got -1"),
    # one step: the largest seed is 2**63 // 1_000_003 = 9223344366821
    (["--seed", "9223344366822"], {"adversarial": ADV},
     "seed: 9223344366822 overflows adversarial training's start seeds"),
    ([], {"train": {"epochs": 1, "lr": -1}}, "train.lr: must be > 0, got -1"),
    ([], {"train": {"epochs": 1, "momentum": 1.5}},
     "train.momentum: must be < 1, got 1.5"),
    ([], {"train": {"epochs": 1, "momentum": -1}},
     "train.momentum: must be >= 0, got -1"),
], ids=["seed-flag", "model-seed", "model-n", "model-hidden", "model-k",
        "model-k-labels", "batch_size", "epochs", "adversarial-seed", "lr",
        "momentum-above", "momentum-below"])
def test_train_refuses_out_of_range_values_by_key(tmp_path, capsys, flags,
                                                  extra, message):
    cfg = _train_config(tmp_path, **extra)
    assert cli.main(["train", "--config", str(cfg), *flags]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("keep", [None, [1]], ids=["all", "keep"])
def test_train_refuses_a_digit_listed_twice(tmp_path, capsys, keep):
    cfg = _train_config(tmp_path, dataset={
        "kind": "digits", "n_per_class": 2, "classes": [1, 1], "size": 16,
        "keep": keep}, model={"preset": "mlp", "n": 2})
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == \
        "config error: dataset.classes: digit 1 is listed twice\n"
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("preset", ["mlp", "small_cnn"])
def test_train_refuses_an_empty_dataset_before_writing(tmp_path, capsys,
                                                       preset):
    cfg = _train_config(
        tmp_path, dataset={"kind": "digits", "n_per_class": 0,
                           "classes": [0, 1], "size": 16},
        model={"preset": preset, "n": 2})
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert ("config error: dataset: the digits dataset has no examples"
            in capsys.readouterr().err)
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["attack", "sweep", "export-repr"])
def test_evaluation_refuses_an_empty_dataset_before_writing(
        tmp_path, trained, capsys, command):
    root, ckpt = trained
    cfg, out = attack_config(root, ckpt, f"empty-{command}.json",
                             dataset=dict(TEST_BLOBS, n_per_class=0),
                             sweep={"n_init_values": [0, 1]})
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert ("config error: dataset: the blobs dataset has no examples"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, work", [
    ("train", ("model", "train")),
    ("attack", ("harness", "evaluate")),
    ("sweep", ("harness", "sweep_n_init")),
    ("export-repr", ("harness", "attack_dataset")),
], ids=["train", "attack", "sweep", "export-repr"])
def test_missing_out_is_refused_before_the_work(tmp_path, trained, capsys,
                                                monkeypatch, command, work):
    from boundarylab import harness

    def never(*args, **kwargs):
        raise AssertionError(f"{command} ran its work without an out path")

    monkeypatch.setattr({"model": model, "harness": harness}[work[0]],
                        work[1], never)
    if command == "train":
        cfg = _train_config(tmp_path, out=None)
    else:
        root, ckpt = trained
        cfg, _ = attack_config(root, ckpt, f"no-out-{command}.json", out=None,
                               sweep={"n_init_values": [0, 1]})
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert "config error: out: required" in capsys.readouterr().err


def _section_config(tmp_path, trained, section, **attack):
    """An ``attack`` run, or an adversarial ``train``, whose attack
    section is ``ADV`` updated by ``attack``; returns (command, config,
    out)."""
    spec = dict(ADV, **attack)
    if section == "adversarial":
        cfg = _train_config(tmp_path, adversarial=spec)
        return "train", cfg, tmp_path / "m.ckpt"
    cfg = tmp_path / "attack.json"
    out = tmp_path / "report.json"
    cfg.write_text(json.dumps({"dataset": TEST_BLOBS,
                               "model_path": str(trained[1]),
                               "attack": spec, "out": str(out)}))
    return "attack", cfg, out


@pytest.mark.parametrize("section", ["attack", "adversarial"])
@pytest.mark.parametrize("key, value", [
    ("norm", "linf"), ("fab_mu", 0.05), ("fab_eta", 1.05),
    ("fab_beta_max", 0.1)])
def test_removed_attack_keys_are_unknown(tmp_path, trained, capsys, section,
                                         key, value):
    command, cfg, out = _section_config(tmp_path, trained, section,
                                        **{key: value})
    assert cli.main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {section}.{key}: unknown key" in err
    assert not out.exists()


BAD_FLOATS = [(float("nan"), "must be finite, got nan"),
              (float("inf"), "must be finite, got inf"),
              (float("-inf"), "must be finite, got -inf"),
              (True, "got bool"), ("0.1", "got str"),
              (10**400, "must be finite, got an int too big for a float")]
BAD_FLOAT_IDS = ["nan", "inf", "-inf", "true", "str", "int-past-float"]


@pytest.mark.parametrize("section", ["attack", "adversarial"])
@pytest.mark.parametrize("value, message", BAD_FLOATS, ids=BAD_FLOAT_IDS)
@pytest.mark.parametrize("key", ["epsilon", "alpha", "eta_init"])
def test_bad_attack_float_is_config_error_by_name(tmp_path, trained, capsys,
                                                  section, key, value,
                                                  message):
    command, cfg, out = _section_config(tmp_path, trained, section,
                                        **{key: value})
    assert cli.main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {section}.{key}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("section", ["attack", "adversarial"])
@pytest.mark.parametrize("key, value, message", [
    ("alpha", 0, "must be > 0, got 0"),
    ("restarts", 2.0, "expected int, got float"),
    ("n_attack", -1, "must be >= 0, got -1"),
], ids=["alpha", "restarts", "n_attack"])
def test_bad_attack_value_is_named_by_section_and_key(
        tmp_path, trained, capsys, section, key, value, message):
    command, cfg, out = _section_config(tmp_path, trained, section,
                                        **{key: value})
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert (capsys.readouterr().err
            == f"config error: {section}.{key}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("value, message", BAD_FLOATS, ids=BAD_FLOAT_IDS)
def test_bad_train_lr_is_config_error_by_name(tmp_path, capsys, value,
                                              message):
    cfg = _train_config(tmp_path, train={"epochs": 1, "lr": value})
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error: train.lr: " in err and message in err
    assert not (tmp_path / "m.ckpt").exists()


def test_schema_lists_the_attack_config_fields():
    match = re.search(r"^  attack +object +AttackConfig fields: (.*?)\n  \S",
                      cli.__doc__, re.M | re.S)
    listed = [key.strip() for key in match.group(1).split(",")]
    assert listed == [f.name for f in fields(attacks.AttackConfig)]
