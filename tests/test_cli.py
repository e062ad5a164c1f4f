import json
import os
import stat

import numpy as np
import pytest

from boundarylab import cli, model

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


# -- failure modes -------------------------------------------------------


def test_missing_config_file_is_io_error(capsys):
    assert cli.main(["attack", "--config", "/nonexistent/x.json"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["attack", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


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


def test_bad_method_is_config_error(tmp_path, trained, capsys):
    root, ckpt = trained
    cfg, _ = attack_config(root, ckpt, "badmethod.json", method="cw")
    assert cli.main(["attack", "--config", str(cfg)]) == 1
    assert "cw" in capsys.readouterr().err


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


def test_non_finite_checkpoint_is_io_error(tmp_path, trained, capsys):
    root, ckpt = trained
    clf = model.Classifier.load(ckpt)
    clf.tail.bias[0] = np.nan
    bad = clf.save(tmp_path / "nan.ckpt")
    cfg, _ = attack_config(root, ckpt, "nan.json", model_path=str(bad))
    assert cli.main(["attack", "--config", str(cfg)]) == 3
    assert "non-finite" in capsys.readouterr().err


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
