"""Run configuration, checkpoint container, metrics, report tables, PPM
emission, and the CLI's exit-code contract."""

import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from civsf.errors import ConfigError, DataFormatError, DomainError, ShapeError
from civsf.datamodel import load_container
from civsf.harness import config as config_mod
from civsf.harness import report
from civsf.harness.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from civsf.harness.cli import cli
from civsf.harness.config import Config
from civsf.harness.metrics import (
    BUCKET_LABELS,
    bucket_means,
    bucketize,
    macro_f1,
    mse,
)
from civsf.harness.ppm import compose, read_ppm, stretch, write_ppm
from civsf.harness.report import (
    REFERENCE_LABEL,
    ReportTable,
    from_metrics,
    render_reference_tables,
    write_log,
)
from civsf.training.pretrain import EpochRecord


# -- config -------------------------------------------------------------------------


def test_config_defaults_and_hash():
    cfg = Config()
    h = cfg.hash()
    assert len(h) == 12 and int(h, 16) >= 0
    assert Config().hash() == h
    assert Config(seed=1).hash() != h
    text = cfg.to_text()
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)


def test_config_validation():
    with pytest.raises(ConfigError, match="framework"):
        Config(framework="vit")
    for name in ("batch_size", "seq_batch_size", "ft_batch",
                 "world_samples", "world_regions", "world_gap_min"):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got 0"):
            Config(**{name: 0})
        with pytest.raises(ConfigError, match=name):
            Config(**{name: -3})
        assert getattr(Config(**{name: 1}), name) == 1
    with pytest.raises(ConfigError, match="mask_ratio"):
        Config(mask_ratio=1.0)
    with pytest.raises(ConfigError, match="context_len"):
        Config(context_len=1)
    with pytest.raises(ConfigError, match="world_gap_max 3 is below world_gap_min 5"):
        Config(world_gap_min=5, world_gap_max=3)
    with pytest.raises(ConfigError, match="world_gap_min must be >= 1, got 0"):
        Config(world_gap_min=0, world_gap_max=0)
    assert Config(world_gap_min=4, world_gap_max=4).world_gap_max == 4
    # only gen-data needs whole crop fields; a model needs only side % patch == 0
    assert Config(side=12, patch=4).side == 12


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "framework = sm-vsf   # trailing comment\n"
        "hidden = 32\n"
        "mask_ratio = 0.25\n")
    cfg = config_mod.from_file(str(path))
    assert (cfg.framework, cfg.hidden, cfg.mask_ratio) == ("sm-vsf", 32, 0.25)
    # overrides beat the file
    cfg2 = config_mod.from_file(str(path), {"hidden": "64"})
    assert cfg2.hidden == 64

    path.write_text("hidden 32\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        config_mod.from_file(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        config_mod.from_file(str(tmp_path / "absent.cfg"))


def test_config_pair_coercion():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_mod.parse_pairs({"hiden": "32"})
    with pytest.raises(ConfigError, match="not int"):
        config_mod.parse_pairs({"hidden": "large"})
    with pytest.raises(ConfigError, match="not float"):
        config_mod.parse_pairs({"mask_ratio": "half"})
    got = config_mod.parse_pairs({"hidden": " 48 ", "framework": " sm-vsf "})
    assert got == {"hidden": 48, "framework": "sm-vsf"}


# -- checkpoint container ------------------------------------------------------------


def checkpoint_fixture(tmp_path):
    tensors = {
        "b/scalar": np.array(2.5, dtype=np.float32),
        "a/vec": np.arange(5, dtype=np.float32),
        "c/cube": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
    }
    meta = {"framework": "ci-vsf", "seed": "3"}
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, tensors, meta)
    return path, tensors, meta


def test_checkpoint_roundtrip(tmp_path):
    path, tensors, meta = checkpoint_fixture(tmp_path)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].dtype == np.float32
        assert loaded[k].shape == tensors[k].shape
        assert np.array_equal(loaded[k], tensors[k])


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    path, _, _ = checkpoint_fixture(tmp_path)
    first = open(path, "rb").read()
    loaded, meta = load_checkpoint(path)
    path2 = str(tmp_path / "again.ckpt")
    save_checkpoint(path2, loaded, meta)
    assert open(path2, "rb").read() == first
    assert first.startswith(MAGIC)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOTMYFMT" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic") as exc:
        load_checkpoint(path)
    assert exc.value.offset == 0


def test_checkpoint_truncation_reports_offset(tmp_path):
    path, _, _ = checkpoint_fixture(tmp_path)
    blob = open(path, "rb").read()
    for cut in (4, 10, len(blob) - 3):
        short = str(tmp_path / f"cut{cut}.ckpt")
        with open(short, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(DataFormatError) as exc:
            load_checkpoint(short)
        assert exc.value.offset is not None and exc.value.offset <= cut


def test_checkpoint_unknown_dtype_tag(tmp_path):
    path = str(tmp_path / "one.ckpt")
    save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)}, {})
    blob = bytearray(open(path, "rb").read())
    tag_at = 8 + 4 + 0 + 4 + 2 + 1  # magic, meta len, meta, count, name len, name
    assert blob[tag_at] == 0
    blob[tag_at] = 9
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(DataFormatError, match="dtype tag 9"):
        load_checkpoint(path)


def test_checkpoint_duplicate_name(tmp_path):
    def entry(name: bytes, offset: int) -> bytes:
        return (struct.pack("<H", len(name)) + name
                + struct.pack("<BB", 0, 1) + struct.pack("<I", 1)
                + struct.pack("<Q", offset))

    blob = (MAGIC + struct.pack("<I", 0) + struct.pack("<I", 2)
            + entry(b"w", 0) + entry(b"w", 4)
            + np.zeros(2, dtype="<f4").tobytes())
    path = str(tmp_path / "dup.ckpt")
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(DataFormatError, match="duplicate tensor name 'w'"):
        load_checkpoint(path)


def test_checkpoint_non_utf8_text_reports_offset(tmp_path):
    path = str(tmp_path / "meta.ckpt")
    save_checkpoint(path, {}, {"framework": "ci-vsf"})
    blob = bytearray(open(path, "rb").read())
    blob[12] = 0xFF  # first metadata byte, after magic and length
    open(path, "wb").write(bytes(blob))
    with pytest.raises(DataFormatError, match="metadata is not UTF-8") as exc:
        load_checkpoint(path)
    assert exc.value.offset == 12

    path = str(tmp_path / "name.ckpt")
    save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)}, {})
    blob = bytearray(open(path, "rb").read())
    name_at = 8 + 4 + 0 + 4 + 2  # magic, meta len, meta, count, name len
    blob[name_at] = 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(DataFormatError, match="entry 0 name is not UTF-8") as exc:
        load_checkpoint(path)
    assert exc.value.offset == name_at


def test_checkpoint_rejects_bad_metadata(tmp_path):
    path = str(tmp_path / "x.ckpt")
    with pytest.raises(DataFormatError, match="not encodable"):
        save_checkpoint(path, {}, {"bad:key": "v"})
    with pytest.raises(DataFormatError, match="not encodable"):
        save_checkpoint(path, {}, {"key": "two\nlines"})


# -- metrics -------------------------------------------------------------------------


def test_mse_values_and_errors():
    assert mse([1.0, 2.0], [2.0, 4.0]) == 2.5
    with pytest.raises(ShapeError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        mse([], [])


def test_macro_f1_hand_oracle():
    pred = np.array([0, 0, 1, 2])
    truth = np.array([0, 1, 1, 1])
    # class 0: 2/3; class 1: 1/2; class 2: 0; classes 3, 4 absent from both
    assert abs(macro_f1(pred, truth, 5) - (2 / 3 + 1 / 2 + 0) / 3) < 1e-12
    assert macro_f1([1, 1], [1, 1], 4) == 1.0
    with pytest.raises(DomainError):
        macro_f1([], [], 3)
    with pytest.raises(ShapeError):
        macro_f1([0, 1], [0], 3)


def test_bucketize_boundaries():
    assert BUCKET_LABELS == ("0 - 25 days", "25 - 50 days", "50 - 100 days",
                             "More than 100 days")
    assert bucketize(0) == "0 - 25 days"
    assert bucketize(24.999) == "0 - 25 days"
    assert bucketize(25) == "25 - 50 days"
    assert bucketize(49) == "25 - 50 days"
    assert bucketize(50) == "50 - 100 days"
    assert bucketize(99.5) == "50 - 100 days"
    assert bucketize(100) == "More than 100 days"
    assert bucketize(400) == "More than 100 days"
    with pytest.raises(DomainError, match="negative"):
        bucketize(-1)


def test_bucket_means_groups():
    got = bucket_means([1.0, 3.0, 10.0], [5, 10, 60])
    assert got == {"all": 14.0 / 3, "0 - 25 days": 2.0, "50 - 100 days": 10.0}
    with pytest.raises(ShapeError):
        bucket_means([1.0], [1, 2])
    with pytest.raises(DomainError):
        bucket_means([], [])


# -- report tables and logs -----------------------------------------------------------


def test_report_table_cells_and_render():
    t = ReportTable("Demo", "MAE", ("A", "B"), {"seed": "3"})
    t.set("row1", "A", 0.12345)
    t.set("row1", "B", "n/a")
    t.set("row2", "B", 1.0)
    with pytest.raises(DomainError, match="unknown column"):
        t.set("row1", "C", 1.0)
    text = t.render_text()
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert lines[1] == "# seed: 3"
    assert lines[2].startswith("MAE")
    assert set(lines[3]) == {"-"}
    assert "0.1235" in lines[4] and lines[5].endswith("1.0000")
    assert "  -" in lines[5]  # missing cell renders as a dash
    csv = t.render_csv()
    assert csv.splitlines()[2] == "metric,row,A,B"
    assert csv.splitlines()[3] == "MAE,row1,0.1235,n/a"  # floats format to 4 decimals
    assert csv.splitlines()[4] == "MAE,row2,,1.0000"


def test_from_metrics_orders_all_then_buckets():
    metrics = {"mse/50 - 100 days": 3.0, "mse/all": 1.0, "mse/0 - 25 days": 2.0}
    t = from_metrics("Future", "MSE", "ci-vsf", metrics, "abc", 7)
    assert t.render_csv().splitlines()[4:] == ["MSE,all,1.0000", "MSE,0 - 25 days,2.0000",
                                               "MSE,50 - 100 days,3.0000"]
    assert t.meta == {"config": "abc", "seed": "7"}
    single = from_metrics("Crop", "F1", "sm-mr", {"macro_f1": 0.5}, "abc", 7)
    assert single.render_csv().splitlines()[4:] == ["F1,macro_f1,0.5000"]


def csv_cell(table, row: str, column: str) -> str:
    """One cell read back from the table's CSV rendering."""
    header, *body = [line.split(",") for line in table.render_csv().splitlines()
                     if not line.startswith("#")]
    return next(line for line in body if line[1] == row)[header.index(column)]


def test_log_roundtrip(tmp_path):
    records = [EpochRecord(0, "1a", "ci-vsf", 0.5, 1.0),
               EpochRecord(1, "2", "ci-vsf", 0.25, 2.5)]
    path = str(tmp_path / "log.csv")
    write_log(path, records, "deadbeef0123", 9)
    text = open(path).read()
    assert text.startswith("# config: deadbeef0123\n# seed: 9\n")
    assert text.splitlines()[2:] == ["epoch,phase,framework,loss,seconds",
                                     "0,1a,ci-vsf,0.5,1.000", "1,2,ci-vsf,0.25,2.500"]


def test_reference_tables_pin_published_cells():
    tables = render_reference_tables()
    assert len(tables) == 5
    assert all(t.meta["label"] == REFERENCE_LABEL for t in tables)
    assert REFERENCE_LABEL == "paper reference — not reproduced"
    by_title = {t.title: t for t in tables}
    soil = by_title["Soil Moisture Forecasting Downstream Task"]
    assert csv_cell(soil, "0 - 25 days", "CI-VSF") == "0.0179"
    assert csv_cell(soil, "More than 100 days", "SM-VSF") == "0.0678"
    est = by_title["Soil Moisture Prediction Finetuned Models"]
    assert csv_cell(est, "All", "CI-VSF") == "0.0282"
    assert csv_cell(est, "T15TUH", "MM-MR") == "0.1365"
    crop = by_title["2019 Test 11 class average F1 Scores"]
    assert csv_cell(crop, "Average", "SM-MR") == "0.5331"
    missing = by_title["Missing Image Prediction Finetuned Models"]
    assert csv_cell(missing, "50%", "SM-VSF") == "362.02"
    assert csv_cell(missing, "90%", "CI-VSF") == "343.88"
    future = by_title["Image Forecasting Downstream Task"]
    assert csv_cell(future, "More than 100 days", "CI-VSF") == "457.27"


# -- ppm ------------------------------------------------------------------------------


def test_stretch_endpoints():
    assert np.all(stretch(np.full((4, 4), 7.0)) == 128)  # constant -> mid-gray
    two = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(stretch(two), np.array([[0, 0], [255, 255]], dtype=np.uint8))
    ramp = stretch(np.arange(100, dtype=np.float64).reshape(10, 10))
    assert ramp.flatten()[0] == 0 and ramp.flatten()[-1] == 255
    assert np.all(np.diff(ramp.flatten().astype(int)) >= 0)


def test_compose_band_order_and_validation():
    img = np.zeros((6, 2, 2), dtype=np.float32)
    img[2] = 1.0  # B4 goes to the red channel
    img[2, 0, 0] = 0.0
    rgb = compose(img)
    assert rgb.shape == (2, 2, 3)
    assert rgb[0, 0, 0] == 0 and rgb[1, 1, 0] == 255
    assert np.all(rgb[..., 1] == 128) and np.all(rgb[..., 2] == 128)
    with pytest.raises(DomainError, match=r"\(6, H, W\)"):
        compose(np.zeros((3, 2, 2)))
    with pytest.raises(DomainError, match="band index"):
        compose(img, bands=(0, 1, 6))


def test_ppm_roundtrip_with_comment(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (6, 5, 3)).astype(np.float32)
    path = str(tmp_path / "x.ppm")
    write_ppm(path, img, config_hash="cafe01", seed=4)
    blob = open(path, "rb").read()
    assert blob.startswith(b"P6\n# config: cafe01 seed: 4\n3 5\n255\n")
    back = read_ppm(path)
    assert np.array_equal(back, compose(img))
    # without the note there is no comment line
    write_ppm(path, img)
    assert open(path, "rb").read().startswith(b"P6\n3 5\n255\n")


def test_ppm_read_errors(tmp_path):
    path = str(tmp_path / "bad.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(DataFormatError, match="not a binary PPM"):
        read_ppm(path)
    with open(path, "wb") as fh:
        fh.write(b"P6\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(DataFormatError, match="payload"):
        read_ppm(path)
    with open(path, "wb") as fh:
        fh.write(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(DataFormatError, match="maxval"):
        read_ppm(path)


# -- cli ------------------------------------------------------------------------------


BASE_SET = [
    "side=16", "patch=4", "hidden=16", "context_len=4", "mask_ratio=0.5",
    "batch_size=8", "seq_batch_size=4",
    "epochs_1a=1", "epochs_1b=1", "epochs_1c=1", "epochs_2=1",
    "images_per_epoch=8", "instances_per_epoch=4", "lr=0.001",
    "world_samples=6", "world_gap_min=5", "world_gap_max=20",
    "ft_batch=8", "ft_max_train=8", "ft_max_eval=4", "ft_epochs_missing=2",
]


def sets(extra=()) -> list[str]:
    out = []
    for kv in list(BASE_SET) + list(extra):
        out += ["--set", kv]
    return out


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """One generated dataset and one pretrained checkpoint per kind family."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "world.civsf")
    assert cli(["gen-data", "--out", data] + sets()) == 0
    out = str(root / "runs")
    assert cli(["pretrain", "--data", data, "--framework", "ci-vsf",
                "--out", out] + sets()) == 0
    assert cli(["pretrain", "--data", data, "--framework", "sm-mr",
                "--out", out] + sets(["epochs_1b=0", "epochs_2=0"])) == 0
    return {"root": root, "data": data,
            "ci": f"{out}/ci-vsf-seed0.ckpt", "mr": f"{out}/sm-mr-seed0.ckpt",
            "log": f"{out}/ci-vsf-seed0-log.csv"}


def test_cli_pipeline_artifacts(cli_dir, capsys):
    import os
    assert os.path.exists(cli_dir["data"])
    assert os.path.exists(cli_dir["ci"]) and os.path.exists(cli_dir["mr"])
    rows = open(cli_dir["log"]).read().splitlines()[3:]
    assert [r.split(",")[1] for r in rows] == ["1a", "1b", "1c", "2"]
    capsys.readouterr()

    ft_out = str(cli_dir["root"] / "ft")
    code = cli(["finetune", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--task", "missing", "--out", ft_out] + sets())
    out = capsys.readouterr().out
    assert code == 0
    assert "missing-image (ci-vsf)" in out
    assert os.path.exists(f"{ft_out}/missing-ci-vsf-seed0.txt")
    assert os.path.exists(f"{ft_out}/missing-ci-vsf-seed0.csv")
    assert os.path.exists(f"{ft_out}/missing-ci-vsf-seed0-head.ckpt")
    tensors, meta = load_checkpoint(f"{ft_out}/missing-ci-vsf-seed0-head.ckpt")
    assert meta["task"] == "missing-image" and tensors


def test_cli_finetune_seed_keeps_the_checkpoints_split(cli_dir, capsys, monkeypatch):
    """--seed picks the fine-tune's draws; the split stays the checkpoint's."""
    from civsf.training import finetune as ft
    from civsf.training.pretrain import load_model
    results, real = [], ft.finetune_missing

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ft, "finetune_missing", recorded)
    out = str(cli_dir["root"] / "ft-seed7")
    assert cli(["finetune", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--task", "missing", "--seed", "7", "--out", out] + sets()) == 0
    monkeypatch.undo()
    _, meta = load_checkpoint(cli_dir["ci"])
    csv = open(f"{out}/missing-ci-vsf-seed7.csv").read().splitlines()
    assert csv[1:3] == [f"# config: {meta['config_hash']}", "# seed: 7"]

    model, cfg, _ = load_model(cli_dir["ci"])
    cfg = dataclasses.replace(cfg, **config_mod.parse_pairs(
        dict(kv.split("=", 1) for kv in BASE_SET)))
    direct = ft.finetune_missing(model, load_container(cli_dir["data"]), cfg, 7)
    assert results[0].metrics == direct.metrics

    # no other route moves the split either
    capsys.readouterr()
    assert cli(["finetune", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--task", "missing", "--set", "seed=7"] + sets()) == 2
    assert "keeps the checkpoint's seed" in capsys.readouterr().err


# full-precision values the ci-vsf fixture's `evaluate` reports; a refactor of
# the frozen encode and forecast paths must reproduce them up to float32
# rounding (rtol 1e-5)
EVALUATE_PINNED = {"recon": 0.3443509638309479, "all": 0.2837367318570614,
                   "25 - 50 days": 0.10793701559305191, "50 - 100 days": 0.28273162618279457,
                   "More than 100 days": 0.4615466594696045}


def test_cli_evaluate_and_reference(cli_dir, capsys, monkeypatch):
    assert cli(["evaluate", "--reference"]) == 0
    out = capsys.readouterr().out
    for title in ("Soil Moisture Forecasting Downstream Task",
                  "2019 Test 11 class average F1 Scores",
                  "Image Forecasting Downstream Task"):
        assert title in out
    assert REFERENCE_LABEL in out

    rows = {}
    table_set = report.ReportTable.set

    def record(table, row, column, value):
        rows[row] = value
        table_set(table, row, column, value)

    monkeypatch.setattr(report.ReportTable, "set", record)
    assert cli(["evaluate", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"]]) == 0
    out = capsys.readouterr().out
    assert "reconstruction objective on test split" in out
    assert "Forecast MSE on test-split instances" in out
    # the objective prints to 6 decimals, well inside rtol 1e-5 of its pin
    cells = {"recon": float(out.splitlines()[0].split(": ")[1].split()[0]), **rows}
    assert list(cells) == list(EVALUATE_PINNED)
    for key, want in EVALUATE_PINNED.items():
        assert cells[key] == pytest.approx(want, rel=1e-5), key

    # reconstruction-only models evaluate without the forecast table
    assert cli(["evaluate", "--data", cli_dir["data"], "--ckpt", cli_dir["mr"]]) == 0
    out = capsys.readouterr().out
    assert "reconstruction objective" in out
    assert "Forecast MSE" not in out


def test_cli_forecast_writes_ppm(cli_dir, capsys):
    path = str(cli_dir["root"] / "fc.ppm")
    code = cli(["forecast", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--sample", "0", "--start", "0", "--target-doy", "150",
                "--out", path])
    assert code == 0
    assert read_ppm(path).shape == (16, 16, 3)
    capsys.readouterr()

    # reconstruction checkpoints cannot forecast
    code = cli(["forecast", "--data", cli_dir["data"], "--ckpt", cli_dir["mr"],
                "--sample", "0", "--start", "0", "--target-doy", "150",
                "--out", path])
    assert code == 3
    assert "VSF" in capsys.readouterr().err


def test_cli_non_utf8_checkpoint_exits_3(cli_dir, capsys):
    blob = bytearray(open(cli_dir["ci"], "rb").read())
    blob[12] = 0xFF
    bad = str(cli_dir["root"] / "non-utf8.ckpt")
    open(bad, "wb").write(bytes(blob))
    assert cli(["evaluate", "--data", cli_dir["data"], "--ckpt", bad]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_cli_checkpoint_with_unknown_config_key_exits_3(cli_dir, capsys):
    tensors, meta = load_checkpoint(cli_dir["ci"])
    bad = str(cli_dir["root"] / "extra-key.ckpt")
    save_checkpoint(bad, tensors, {**meta, "cfg/retired_knob": "1"})
    assert cli(["evaluate", "--data", cli_dir["data"], "--ckpt", bad]) == 3
    err = capsys.readouterr().err
    assert "retired_knob" in err and bad in err


def test_crop_mapping_rejects_patch_4_checkpoint(cli_dir, capsys):
    from civsf.errors import CompatibilityError
    from civsf.training.finetune import finetune_crop
    from civsf.training.pretrain import load_model
    model, cfg, _ = load_model(cli_dir["ci"])
    assert model.enc.patch == 4
    with pytest.raises(CompatibilityError, match="patch 8"):
        finetune_crop(model, load_container(cli_dir["data"]), cfg, seed=0)
    code = cli(["finetune", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--task", "crop"] + sets())
    assert code == 3
    assert "needs patch 8" in capsys.readouterr().err


def test_cli_inspect_mask(capsys):
    assert cli(["inspect-mask", "--t", "4", "--g", "16", "--ratio", "0.5"]) == 0
    out = capsys.readouterr().out
    lattice = out.splitlines()[:4]
    assert all(len(row) == 16 and row.count("#") == 8 for row in lattice)
    assert "rows masked: [8, 8, 8, 8]" in out
    assert "cols masked: [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]" in out


def test_python_dash_m_civsf_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("civsf", "civsf.harness.cli"):
        run = lambda *argv: subprocess.run([sys.executable, "-m", module, *argv],
                                           capture_output=True, text=True, env=env,
                                           timeout=120)
        done = run("inspect-mask", "--t", "4", "--g", "16", "--ratio", "0.5")
        assert done.returncode == 0, (module, done.stderr)
        assert all(len(row) == 16 and row.count("#") == 8
                   for row in done.stdout.splitlines()[:4]), module
        assert "rows masked: [8, 8, 8, 8]" in done.stdout, module
        assert run("no-such-command").returncode == 2, module


def test_cli_config_errors(tmp_path, capsys):
    assert cli(["gen-data", "--out", "/tmp/x", "--set", "bogus=1"]) == 2
    assert cli(["gen-data", "--out", "/tmp/x", "--set", "side=abc"]) == 2
    assert cli(["gen-data", "--out", "/tmp/x", "--set", "framework=resnet"]) == 2
    assert cli(["gen-data", "--out", "/tmp/x", "--set", "sideways"]) == 2
    assert cli(["gen-data", "--out", "/tmp/x", "--config", "/nope.cfg"]) == 2
    capsys.readouterr()
    # invalid world settings: a message, no traceback, nothing written
    out = str(tmp_path / "w.civ")
    for sets in (["world_gap_min=5", "world_gap_max=3"], ["world_regions=0"],
                 ["world_samples=0"], ["side=12"], ["side=4"], ["crop_classes=0"],
                 ["crop_classes=6"]):
        argv = ["gen-data", "--out", out] + [a for kv in sets for a in ("--set", kv)]
        assert cli(argv) == 2, sets
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err, sets
    assert not os.path.exists(out)


def test_cli_argparse_errors(capsys):
    assert cli([]) == 2                       # no subcommand
    assert cli(["pretrain"]) == 2             # missing required arguments
    assert cli(["finetune", "--data", "d", "--ckpt", "c", "--task", "poetry"]) == 2
    assert cli(["finetune", "--data", "d", "--task", "missing"]) == 2   # no --ckpt
    capsys.readouterr()
    # evaluate needs a checkpoint and data unless it prints the reference tables
    for argv in (["evaluate"], ["evaluate", "--ckpt", "c"], ["evaluate", "--data", "d"]):
        assert cli(argv) == 2
        assert "evaluate needs --ckpt and --data" in capsys.readouterr().err


def test_cli_rejects_flags_a_command_does_not_read(capsys):
    """finetune starts from the checkpoint's config and takes no --config;
    evaluate and forecast take none of --config, --set and --seed."""
    finetune = ["finetune", "--data", "d", "--ckpt", "c", "--task", "missing"]
    evaluate = ["evaluate", "--reference"]
    forecast = ["forecast", "--data", "d", "--ckpt", "c", "--sample", "0",
                "--target-doy", "150", "--out", "x.ppm"]
    config, set_, seed = ["--config", "f.cfg"], ["--set", "hidden=16"], ["--seed", "1"]
    for argv in (finetune + config, evaluate + config, evaluate + set_, evaluate + seed,
                 forecast + config, forecast + set_, forecast + seed):
        assert cli(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_cli_data_errors(cli_dir, capsys):
    assert cli(["pretrain", "--data", "/no/such.civsf", "--out", "/tmp/o"]
               + sets()) == 3
    assert "/no/such.civsf" in capsys.readouterr().err
    assert cli(["finetune", "--data", cli_dir["data"], "--ckpt", "/no/such.ckpt",
                "--task", "missing"]) == 3
    assert "/no/such.ckpt" in capsys.readouterr().err
    assert cli(["forecast", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--sample", "99", "--start", "0", "--target-doy", "150",
                "--out", "/tmp/x.ppm"]) == 3
    capsys.readouterr()


def test_cli_zero_batch_sizes_exit_2(cli_dir, capsys):
    out = str(cli_dir["root"] / "zero-batch")
    for kv in ("batch_size=0", "seq_batch_size=0"):
        assert cli(["pretrain", "--data", cli_dir["data"], "--out", out]
                   + sets([kv])) == 2
        assert "must be >= 1" in capsys.readouterr().err
    assert cli(["finetune", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--task", "missing", "--set", "ft_batch=0"]) == 2
    assert "ft_batch must be >= 1" in capsys.readouterr().err


def test_cli_io_errors_exit_3(cli_dir, capsys):
    plain = cli_dir["root"] / "plain-file"
    plain.write_text("not a directory\n")
    assert cli(["pretrain", "--data", cli_dir["data"], "--out", f"{plain}/sub"]
               + sets()) == 3
    assert "Not a directory" in capsys.readouterr().err
    assert cli(["forecast", "--data", cli_dir["data"], "--ckpt", cli_dir["ci"],
                "--sample", "0", "--start", "0", "--target-doy", "150",
                "--out", f"{plain}/fc.ppm"]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_gradcheck_exit_codes(capsys):
    assert cli(["gradcheck", "--seed", "0", "--coords", "1"]) == 0
    out = capsys.readouterr().out
    assert "OK: worst" in out
    assert cli(["gradcheck", "--seed", "0", "--coords", "1",
                "--threshold", "1e-30"]) == 4
    assert "FAIL" in capsys.readouterr().err
