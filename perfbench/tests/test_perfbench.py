"""Tests of the benchmark itself: every output check rejects a deliberately
wrong output, the tracer reaches names imported by name, and run.py prints
the metrics BENCHMARK.json declares.

    python -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for _path in (BENCH, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from civsf.harness.ppm import read_ppm, write_ppm  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# -- output checks ------------------------------------------------------------------

def test_losses_fall_rejects_a_rise_and_a_nan():
    good = [("1a", 0.5), ("1a", 0.2), ("2", 0.9), ("2", 0.4)]
    assert checks.losses_fall(good) == []
    assert checks.losses_fall([("1a", 0.5), ("1a", 0.6)])
    assert checks.losses_fall([("1a", 0.5), ("1a", 0.5)])
    assert checks.losses_fall([("1a", 0.5), ("1a", math.nan), ("1a", 0.1)])
    assert checks.losses_fall([("1b", 0.5)])


def test_causal_rejects_a_moved_prefix_and_a_still_suffix():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(2, 4, 3, 5)).astype(np.float32)
    moved = base.copy()
    moved[:, 2:] += 1.0
    assert checks.causal(base, moved, 1, True, "x") == []
    prefix = moved.copy()
    prefix[1, 0, 2, 4] = np.nextafter(prefix[1, 0, 2, 4], np.float32(np.inf))
    assert checks.causal(base, prefix, 1, True, "x")
    still = moved.copy()
    still[:, 3] = base[:, 3]
    assert checks.causal(base, still, 1, True, "x")
    assert checks.causal(base, base.copy(), 1, False, "x") == []
    assert checks.causal(base, moved, 1, False, "x")


def test_same_arrays_rejects_one_ulp_and_a_dtype_change():
    a = {"w": np.linspace(0, 1, 6, dtype=np.float32).reshape(2, 3)}
    assert checks.same_arrays(a, {"w": a["w"].copy()}, "p") == []
    off = a["w"].copy()
    off[1, 2] = np.nextafter(off[1, 2], np.float32(2))
    assert checks.same_arrays(a, {"w": off}, "p")
    assert checks.same_arrays(a, {"w": a["w"].astype(np.float64)}, "p")
    assert checks.same_arrays(a, {"v": a["w"]}, "p")


def test_ppm_parser_agrees_with_the_program_and_rejects_truncation(tmp_path):
    img = np.random.default_rng(1).uniform(0, 1, (6, 16, 16)).astype(np.float32)
    path = str(tmp_path / "f.ppm")
    write_ppm(path, img, config_hash="abc", seed=3)
    with open(path, "rb") as fh:
        blob = fh.read()
    parsed, problems = checks.ppm_image(blob, 16)
    assert problems == []
    assert np.array_equal(parsed, read_ppm(path))
    assert checks.ppm_image(blob[:-1], 16)[1]
    assert checks.ppm_image(blob + b"\0", 16)[1]
    assert checks.ppm_image(blob[:6], 16)[1]
    assert checks.ppm_image(blob, 8)[1]


def test_forecast_checks_reject_target_leak_and_wrong_weather_response():
    f, g, t1, t2 = b"P6 forecast", b"P6 other", b"truth-1", b"truth-2"
    assert checks.forecast_blind(f, f, t1, t2) == []
    assert checks.forecast_blind(f, g, t1, t2)
    assert checks.forecast_blind(f, f, t1, t1)
    assert checks.forecast_weather(f, g, True) == []
    assert checks.forecast_weather(f, f, True)
    assert checks.forecast_weather(f, f, False) == []
    assert checks.forecast_weather(f, g, False)


def test_gradcheck_bound_rejects_a_large_error():
    assert checks.gradcheck_within(0, 5e-5) == []
    assert checks.gradcheck_within(0, 1e-4) == []
    assert checks.gradcheck_within(0, 1.01e-4)
    assert checks.gradcheck_within(0, math.nan)


def test_beats_rejects_a_tie_and_a_loss():
    assert checks.beats("soil", 0.2, 0.3) == []
    assert checks.beats("soil", 0.3, 0.3)
    assert checks.beats("soil", 0.35, 0.3)
    assert checks.beats("soil", math.inf, 0.3)


def test_equals_and_finite():
    assert checks.equals("tokens", 10.0, 10.0) == []
    assert checks.equals("tokens", 10.5, 10.0)
    assert checks.all_finite("m", [1.0, 2.0]) == []
    assert checks.all_finite("m", [1.0, math.inf])
    assert checks.all_finite("m", [])


# -- tracer ---------------------------------------------------------------------------

def test_tracer_reaches_names_imported_by_name_and_restores_them():
    import civsf.harness.cli as cli
    import civsf.training.model as model
    import civsf.training.pretrain as pretrain
    from civsf.numerics.tensor import Tensor

    originals = (cli.write_ppm, cli.load_container, pretrain.load_checkpoint,
                 pretrain.forecast_embed, model.causal_temporal_encode,
                 pretrain.build_mask, Tensor.backward, Tensor.__init__)
    tracer = spans.Tracer(enabled=True)
    tracer.install()
    try:
        for site, orig in zip((cli.write_ppm, cli.load_container, pretrain.load_checkpoint,
                               pretrain.forecast_embed, model.causal_temporal_encode,
                               pretrain.build_mask), originals):
            assert site is not orig and site.__wrapped__ is orig
        tracer.recording = True
        tracer.stage = "round"
        rng = np.random.default_rng(0)
        pretrain.build_mask(4, 16, 0.25, rng)
        x = Tensor(np.ones(3), requires_grad=True)
        (x * x).sum().backward()
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert (cli.write_ppm, cli.load_container, pretrain.load_checkpoint,
            pretrain.forecast_embed, model.causal_temporal_encode, pretrain.build_mask,
            Tensor.backward, Tensor.__init__) == originals
    assert tracer.calls("masking.build_mask") == 1
    assert tracer.calls("numerics.tensor.backward") == 1
    metrics = tracer.metrics(rounds=1)
    assert metrics["masking.build_mask_s"][0] > 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])


def test_self_time_takes_out_only_the_named_children():
    tracer = spans.Tracer(enabled=True)
    tracer.spans = [
        ["training.finetune.soil", 0.0, 10.0, -1, "round"],
        ["training.model.encode_series", 1.0, 4.0, 0, "round"],
        ["encoders.vit", 1.5, 2.5, 1, "round"],
        ["training.model.encode_weather", 4.0, 6.0, 0, "round"],
        ["forecast_decode.decoder", 7.0, 8.0, 0, "round"],
    ]
    m = tracer.metrics(rounds=2)
    assert m["training.finetune.soil.self_s"][0] == pytest.approx((10 - 3 - 2) / 2)
    assert m["training.model.encode_series_s"][0] == pytest.approx((3 - 1) / 2)
    assert m["encoders.vit.forward_s"][0] == pytest.approx(0.5)


# -- inputs ------------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 7])
def test_forecast_schedule_targets_days_without_an_image(seed):
    samples = workloads.synthworld.gen_dataset(workloads.WORLD_SAMPLES, workloads.WORLD, seed)
    cfg = workloads.ordering_cfg("ci-vsf")
    schedule = workloads.forecast_schedule(samples, cfg, seed)
    assert len(schedule) == workloads.FORECASTS_PER_ROUND
    for si, day in schedule:
        s = samples[si]
        assert day not in s.doys
        assert s.doys[cfg.context_len - 1] < day < s.start_doy + s.weather.shape[0]


# -- run.py ------------------------------------------------------------------------------

def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _leftovers() -> list[str]:
    work = os.path.join(ROOT, ".perfbench-work")
    return sorted(os.listdir(work)) if os.path.isdir(work) else []


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace):
    before = _leftovers()
    proc = _run(ROOT, "--workload", "sm-vsf", "--seed", "5", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    epochs = sum(workloads.ROUND_EPOCHS[f"epochs_{p}"] for p in workloads.PHASES["sm-vsf"])
    one_round = (epochs + len(workloads.FINETUNES) + workloads.FORECASTS_PER_ROUND
                 + workloads.REWRITES_PER_ROUND + 1)
    assert result["attempted"] == one_round and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in result["metrics"].items():
        assert value["unit"] == units[name]
    if trace == "1":
        assert result["metrics"]["encoders.weather.day_steps"]["value"] == 0
        assert result["metrics"]["numerics.gradcheck.loss_evals"]["value"] > 0
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())
    assert _leftovers() == before


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(str(tmp_path), "--workload", "sm-vsf", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
