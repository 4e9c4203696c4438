"""End-to-end runs of the console entry point, kept small enough for CI."""

import json
import shutil

import numpy as np
import pytest

from dodnet.bench import count_flops, count_params, head_backbone_ratio
from dodnet.cli import main
from dodnet.data import read_volume
from dodnet.model import ARCHITECTURES, desk_config
from dodnet.training import load_checkpoint, model_from_checkpoint, save_checkpoint

SHAPE = "12,16,16"
PATCH = "8,16,16"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    rc = main(
        [
            "gen-data",
            "--tasks", "2",
            "--per-task", "3",
            "--per-task-test", "1",
            "--shape", SHAPE,
            "--seed", "7",
            "--out", str(d),
        ]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("cli-run")
    rc = main(
        [
            "train",
            "--data", str(data_dir),
            "--epochs", "1",
            "--steps", "2",
            "--batch", "1",
            "--patch", PATCH,
            "--seed", "0",
            "--out", str(d),
        ]
    )
    assert rc == 0
    return d


def test_gen_data_writes_samples_and_manifest(data_dir):
    headers = sorted(p.name for p in data_dir.glob("*.hdr"))
    assert len(headers) == 8  # 2 tasks x (3 train + 1 test)
    assert "alpha-train-000.hdr" in headers
    assert "beta-test-000.hdr" in headers
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["samples"]) == 8
    assert {t["name"] for t in manifest["tasks"]} == {"alpha", "beta"}


def test_gen_data_reports_count(tmp_path, capsys):
    rc = main(
        ["gen-data", "--tasks", "1", "--per-task", "2", "--shape", SHAPE,
         "--out", str(tmp_path / "d")]
    )
    assert rc == 0
    assert "wrote 2 samples" in capsys.readouterr().out


def test_train_writes_artifacts(run_dir):
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "best.ckpt").exists()
    log = (run_dir / "metrics.log").read_text(encoding="utf-8").splitlines()
    assert len(log) == 2  # one line per step, no eval passes requested
    for line in log:
        step, lr, task, loss = line.split(",")
        assert task in ("alpha", "beta")
        assert float(loss) > 0.0


def test_eval_prints_per_structure_dice(run_dir, data_dir, capsys):
    rc = main(
        ["eval", "--ckpt", str(run_dir / "final.ckpt"), "--data", str(data_dir),
         "--split", "test", "--window", PATCH]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("alpha/organ", "alpha/tumor", "beta/organ", "beta/tumor"):
        assert f"{name}: dice" in out
    assert "mean:" in out


def test_eval_empty_split_is_an_error(run_dir, tmp_path, capsys):
    d = tmp_path / "train-only"
    assert main(["gen-data", "--tasks", "1", "--per-task", "1", "--shape", SHAPE,
                 "--out", str(d)]) == 0
    rc = main(
        ["eval", "--ckpt", str(run_dir / "final.ckpt"), "--data", str(d),
         "--split", "test", "--window", PATCH]
    )
    assert rc == 1
    assert "no samples" in capsys.readouterr().out


def test_predict_writes_label_volume(run_dir, data_dir, tmp_path):
    src = data_dir / "alpha-test-000"
    out = tmp_path / "pred"
    rc = main(
        ["predict", "--ckpt", str(run_dir / "final.ckpt"), "--task", "1",
         "--in", str(src), "--out", str(out), "--window", PATCH]
    )
    assert rc == 0
    result = read_volume(out)
    original = read_volume(src)
    np.testing.assert_array_equal(result.image, original.image)
    assert result.labels is not None
    assert set(np.unique(result.labels)) <= {0, 1, 2}


def test_predict_rejects_non_finite_checkpoint(run_dir, data_dir, tmp_path, capsys):
    model = model_from_checkpoint(load_checkpoint(run_dir / "final.ckpt"))
    model.controller.bias.data[:] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", model)
    out = tmp_path / "pred"
    rc = main(
        ["predict", "--ckpt", str(tmp_path / "nan.ckpt"), "--task", "1",
         "--in", str(data_dir / "alpha-test-000"), "--out", str(out), "--window", PATCH]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "'controller.bias'" in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("pred*"))


def test_bench_prints_exact_cost_table(capsys):
    config, shape = desk_config(num_tasks=2), (8, 16, 16)
    rc = main(["bench", "--config", "small", "--tasks", "2", "--input", "8,16,16"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["arch", "params", "MACs", "bias", "adds", "head/backbone"]
    rows = {cells[0]: cells[1:] for cells in (line.split() for line in lines[2:])}
    assert list(rows) == list(ARCHITECTURES)
    for arch, (params, macs, adds, ratio) in rows.items():
        flops = count_flops(config, shape, arch, 2)
        assert int(params.replace(",", "")) == count_params(config, arch)
        assert int(macs.replace(",", "")) == flops.total_macs
        assert int(adds.replace(",", "")) == flops.total_adds
        if arch == "dodnet":
            assert float(ratio) == pytest.approx(head_backbone_ratio(config, shape, 2), rel=1e-5)
        else:
            assert ratio == "-"


def test_transfer_restart_resumes_from_checkpoint(run_dir, data_dir, tmp_path):
    d = tmp_path / "warm"
    rc = main(
        ["train", "--data", str(data_dir), "--init-from", str(run_dir / "final.ckpt"),
         "--epochs", "1", "--steps", "1", "--batch", "1", "--patch", PATCH,
         "--out", str(d)]
    )
    assert rc == 0
    assert (d / "final.ckpt").exists()


def test_transfer_only_defined_for_dynamic_head(run_dir, data_dir, tmp_path, capsys):
    rc = main(
        ["train", "--data", str(data_dir), "--arch", "multi_head",
         "--init-from", str(run_dir / "final.ckpt"), "--epochs", "1", "--steps", "1",
         "--batch", "1", "--patch", PATCH, "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_manifest_is_reported(tmp_path, capsys):
    rc = main(
        ["train", "--data", str(tmp_path), "--epochs", "1", "--steps", "1",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _drop_split_key(manifest):
    del manifest["samples"][0]["split"]


def _renumber_second_task(manifest):
    manifest["tasks"][1]["task_id"] = 3


def _quote_second_task_id(manifest):
    manifest["tasks"][1]["task_id"] = "2"


def _unknown_split(manifest):
    manifest["samples"][0]["split"] = "validation"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_split_key, "sample entry 0 has no 'split' key"),
        (_renumber_second_task, "task ids must be 1..2"),
        (_quote_second_task_id, "task ids must be 1..2"),
        (_unknown_split, "unknown split 'validation'"),
    ],
)
def test_malformed_manifest_is_reported(run_dir, data_dir, tmp_path, capsys, corrupt, message):
    bad = tmp_path / "bad-data"
    shutil.copytree(data_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text(encoding="utf-8"))
    corrupt(manifest)
    (bad / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    rc = main(["eval", "--ckpt", str(run_dir / "best.ckpt"), "--data", str(bad),
               "--window", PATCH])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_diverged_training_is_reported(data_dir, tmp_path, capsys, recwarn):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data_dir), "--epochs", "1", "--steps", "3",
               "--batch", "1", "--patch", PATCH, "--lr", "1e30", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "diverged" in err
    assert "Traceback" not in err
    assert not list(out.glob("*.ckpt"))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 2


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_shape_argument_must_have_three_parts(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--shape", "8,16", "--out", str(tmp_path)])
    assert exc.value.code == 2
