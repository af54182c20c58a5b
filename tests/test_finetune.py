"""Downstream fine-tuning: corruption mechanics, head math, frozen-encoder
discipline, and end-to-end smoke runs for all five procedures."""

import dataclasses

import numpy as np
import pytest

from civsf.datamodel import Sample, instances_of
from civsf.encoders import patchify
from civsf.errors import CompatibilityError, DomainError, NumericError
from civsf.harness.config import Config
from civsf.harness.metrics import BUCKET_LABELS
from civsf.numerics import Tensor
from civsf.synthworld import WorldConfig, gen_dataset
from civsf.training.finetune import (
    CropHead,
    EstimateHead,
    SoilForecastHead,
    corrupt_series,
    cross_entropy,
    finetune_crop,
    finetune_estimate,
    finetune_future_image,
    finetune_missing,
    finetune_soil_forecast,
    forecast_cache,
    region_of,
    weather_states,
)
from civsf.training.model import FrameworkModel


def ft_config(**kw) -> Config:
    base = dict(framework="ci-vsf", side=16, patch=4, hidden=16, vit_heads=4,
                temporal_heads=4, context_len=4,
                ft_lr=0.001, ft_batch=16, ft_max_train=24, ft_max_eval=12,
                ft_epochs_soil=4, ft_epochs_estimate=3, ft_epochs_crop=3,
                ft_epochs_missing=4, ft_epochs_future=3)
    base.update(kw)
    return Config(**base)


@pytest.fixture(scope="module")
def world():
    wc = WorldConfig(side=16, sigma=0.01, gap_min=5, gap_max=20)
    return gen_dataset(6, wc, seed=200)


def snapshot(module) -> dict[str, np.ndarray]:
    return {n: p.data.copy() for n, p in module.named_parameters()}


def assert_unchanged(module, before: dict[str, np.ndarray]) -> None:
    for n, p in module.named_parameters():
        assert np.array_equal(p.data, before[n]), n


# -- corruption ----------------------------------------------------------------------


def test_corrupt_series_counts_and_placement():
    rng = np.random.default_rng(0)
    imgs = rng.uniform(0.05, 1.0, (3, 4, 6, 16, 16)).astype(np.float32)
    out, t_hit, runs = corrupt_series(imgs, patch=4, pct=0.5, rng=np.random.default_rng(1))
    g, n = 16, 8
    assert out.shape == imgs.shape and t_hit.shape == (3, 2)
    for i in range(3):
        a, b = t_hit[i]
        assert 1 <= a < b <= 3  # sorted, distinct, never the first timestamp
        for t in range(4):
            if t not in (a, b):
                assert np.array_equal(out[i, t], imgs[i, t])
        for j, t in enumerate((a, b)):
            p_in = patchify(imgs[i, t][None], 4)[0]
            p_out = patchify(out[i, t][None], 4)[0]
            start = runs[i, j]
            zeroed = np.all(p_out == 0, axis=1)
            expect = np.zeros(g, dtype=bool)
            expect[start:start + n] = True
            assert np.array_equal(zeroed, expect)  # input had no all-zero patches
            assert np.array_equal(p_out[~expect], p_in[~expect])
    # source untouched
    assert imgs.min() >= 0.05


def test_corrupt_series_full_and_deterministic():
    imgs = np.random.default_rng(2).uniform(0.1, 1, (2, 3, 6, 8, 8)).astype(np.float32)
    out, t_hit, runs = corrupt_series(imgs, 4, 1.0, np.random.default_rng(3))
    assert np.all(runs == 0)  # a run of G patches can only start at 0
    for i in range(2):
        for t in t_hit[i]:
            assert np.all(out[i, t] == 0)
    a = corrupt_series(imgs, 4, 0.5, np.random.default_rng(7))
    b = corrupt_series(imgs, 4, 0.5, np.random.default_rng(7))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_corrupt_series_rejections():
    imgs = np.zeros((1, 2, 6, 8, 8), dtype=np.float32)
    with pytest.raises(DomainError, match=">= 3 timestamps"):
        corrupt_series(imgs, 4, 0.5, np.random.default_rng(0))
    imgs = np.zeros((1, 3, 6, 8, 8), dtype=np.float32)
    with pytest.raises(DomainError, match="covers 0"):
        corrupt_series(imgs, 4, 0.05, np.random.default_rng(0))  # rounds to zero patches


# -- heads ---------------------------------------------------------------------------


def test_crop_head_attention_normalized():
    head = CropHead(8, 5, 2, np.random.default_rng(0))
    pooled = Tensor(np.random.default_rng(1).normal(0, 1, (3, 7, 8)).astype(np.float32))
    alpha = head.attention(pooled)
    assert alpha.shape == (3, 7, 1)
    assert np.allclose(alpha.data.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(alpha.data > 0)


def test_crop_head_output_shape():
    head = CropHead(8, 5, 2, np.random.default_rng(0))
    emb = np.random.default_rng(1).normal(0, 1, (2, 3, 4, 8)).astype(np.float32)
    logits = head(emb, emb.mean(axis=2))
    assert logits.shape == (2, 5, 16, 16)  # grid side 2 upsampled x8


def test_cross_entropy_matches_hand_computation():
    rng = np.random.default_rng(4)
    logits = rng.normal(0, 2, (2, 3, 2, 2)).astype(np.float64)
    labels = rng.integers(0, 3, (2, 2, 2))
    got = cross_entropy(Tensor(logits.copy()), labels).data
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    picked = np.take_along_axis(p, labels[:, None], axis=1)[:, 0]
    assert abs(got - (-np.log(picked).mean())) < 1e-12


def test_soil_head_uses_frozen_constant():
    head = SoilForecastHead(8, np.random.default_rng(0))
    soil = np.random.default_rng(1).uniform(0, 1, (2, 4)).astype(np.float32)
    z = np.random.default_rng(2).normal(0, 1, (2, 8)).astype(np.float32)
    a = head(soil, z).data
    b = head(soil, z + 1.0).data
    assert a.shape == (2,)
    assert not np.array_equal(a, b)


def test_estimate_head_shape():
    head = EstimateHead(8, np.random.default_rng(0))
    pooled = np.random.default_rng(1).normal(0, 1, (3, 5, 8)).astype(np.float32)
    assert head(pooled).shape == (3, 5)


def test_region_round_robin():
    assert [region_of(i, 3) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]


# -- gating and validation -----------------------------------------------------------


def test_forecast_tasks_require_vsf(world):
    cfg = ft_config(framework="mm-mr")
    model = FrameworkModel("mm-mr", cfg, 0)
    with pytest.raises(CompatibilityError, match="VSF"):
        finetune_future_image(model, world, cfg, seed=0)
    with pytest.raises(CompatibilityError, match="VSF"):
        finetune_soil_forecast(model, world, cfg, seed=0)


def test_soil_tasks_demand_soil_series(world):
    cfg = ft_config()
    model = FrameworkModel("ci-vsf", cfg, 0)
    bare = [Sample(images=s.images, doys=s.doys, weather=s.weather,
                   start_doy=s.start_doy, crops=s.crops) for s in world]
    with pytest.raises(DomainError, match="soil series"):
        finetune_soil_forecast(model, bare, cfg, seed=0)
    with pytest.raises(DomainError, match="soil series"):
        finetune_estimate(model, bare, cfg, seed=0)


def test_crop_task_demands_crop_grids(world):
    cfg = ft_config(patch=8, crop_timestamps=6)
    model = FrameworkModel("ci-vsf", cfg, 0)
    bare = [Sample(images=s.images, doys=s.doys, weather=s.weather,
                   start_doy=s.start_doy, soil=s.soil) for s in world]
    with pytest.raises(DomainError, match="crop grids"):
        finetune_crop(model, bare, cfg, seed=0)


def test_estimate_rejects_unknown_protocol(world):
    cfg = ft_config()
    model = FrameworkModel("ci-vsf", cfg, 0)
    with pytest.raises(DomainError, match="protocol"):
        finetune_estimate(model, world, cfg, seed=0, protocol="zero-shot")


# -- end-to-end smoke ----------------------------------------------------------------


def test_missing_image_trains_decoder_only(world):
    cfg = ft_config()
    model = FrameworkModel("ci-vsf", cfg, 1)
    before_vit = snapshot(model.vit)
    before_temporal = snapshot(model.temporal)
    before_weather = snapshot(model.weather)
    res = finetune_missing(model, world, cfg, seed=3)
    assert res.task == "missing-image"
    assert set(res.metrics) == {"mse"} and np.isfinite(res.metrics["mse"])
    assert len(res.losses) == cfg.ft_epochs_missing
    assert res.losses[-1] < res.losses[0]
    assert_unchanged(model.vit, before_vit)
    assert_unchanged(model.temporal, before_temporal)
    assert_unchanged(model.weather, before_weather)
    assert set(res.head_state) == {n for n, _ in model.decoder.named_parameters()}


def test_future_image_buckets_and_training(world):
    cfg = ft_config(framework="sm-vsf")
    model = FrameworkModel("sm-vsf", cfg, 2)
    res = finetune_future_image(model, world, cfg, seed=4)
    assert res.task == "future-image"
    assert "mse/all" in res.metrics
    allowed = {"mse/all"} | {f"mse/{lbl}" for lbl in BUCKET_LABELS}
    assert set(res.metrics) <= allowed and len(res.metrics) >= 2
    assert res.losses[-1] < res.losses[0]
    assert all(np.isfinite(v) for v in res.metrics.values())


def test_soil_forecast_smoke_and_determinism(world):
    cfg = ft_config()
    model = FrameworkModel("ci-vsf", cfg, 5)
    res1 = finetune_soil_forecast(model, world, cfg, seed=6)
    res2 = finetune_soil_forecast(model, world, cfg, seed=6)
    assert res1.task == "soil-forecast"
    assert "mae/all" in res1.metrics
    assert res1.losses[-1] < res1.losses[0]
    assert res1.metrics == res2.metrics
    assert res1.losses == res2.losses
    assert all(np.array_equal(res1.head_state[k], res2.head_state[k])
               for k in res1.head_state)
    res3 = finetune_soil_forecast(model, world, cfg, seed=7)
    assert res3.metrics != res1.metrics


def test_estimate_in_region_regions_cover_test_split(world):
    cfg = ft_config()
    model = FrameworkModel("ci-vsf", cfg, 8)
    before = snapshot(model)
    res = finetune_estimate(model, world, cfg, seed=9)
    assert res.task == "estimate"
    assert "mae/all" in res.metrics
    region_keys = [k for k in res.metrics if k.startswith("mae/region")]
    assert region_keys  # at least the test split's own regions
    assert res.losses[-1] < res.losses[0]
    assert_unchanged(model, before)  # head-only procedure


def test_estimate_cross_region_holds_each_region_out(world):
    cfg = ft_config(world_regions=3, ft_epochs_estimate=2)
    model = FrameworkModel("ci-vsf", cfg, 10)
    res = finetune_estimate(model, world, cfg, seed=11, protocol="cross-region")
    assert res.task == "estimate-cross"
    held = [res.metrics[f"mae/region{r}"] for r in range(3)]
    assert abs(res.metrics["mae/all"] - np.mean(held)) < 1e-12
    # two epochs per held-out region
    assert len(res.losses) == 3 * cfg.ft_epochs_estimate


def test_crop_mapping_smoke(world):
    cfg = ft_config(patch=8, crop_timestamps=6, ft_epochs_crop=4)
    model = FrameworkModel("sm-mr", cfg, 12)
    before = snapshot(model)
    res = finetune_crop(model, world, cfg, seed=13)
    assert res.task == "crop-map"
    assert set(res.metrics) == {"macro_f1"}
    assert 0.0 <= res.metrics["macro_f1"] <= 1.0
    assert len(res.losses) == cfg.ft_epochs_crop
    assert res.losses[-1] < res.losses[0]
    assert_unchanged(model, before)


def test_crop_mapping_needs_patch_8(world):
    cfg = ft_config(crop_timestamps=6)  # patch 4: the head would emit 32-pixel maps
    model = FrameworkModel("sm-mr", cfg, 12)
    with pytest.raises(CompatibilityError, match="patch 8"):
        finetune_crop(model, world, cfg, seed=13)


def test_nonfinite_loss_names_task_and_epoch(world):
    cfg = ft_config()
    model = FrameworkModel("ci-vsf", cfg, 8)
    nan_soil = [dataclasses.replace(s, soil=np.full_like(s.soil, np.nan)) for s in world]
    with pytest.raises(NumericError, match="non-finite loss in estimation fine-tuning at epoch 0"):
        finetune_estimate(model, nan_soil, cfg, seed=9)


def test_fine_tunes_encode_each_window_once(world, monkeypatch):
    """Cross-region folds and forecast instances that share a context window
    share its one frozen encode."""
    encoded = []
    real = FrameworkModel.frozen_encode

    def recording(self, images, doys, weather_h, start_doy):
        encoded.extend((d.tobytes(), im.tobytes()) for d, im in zip(doys, images))
        return real(self, images, doys, weather_h, start_doy)

    monkeypatch.setattr(FrameworkModel, "frozen_encode", recording)
    cfg = ft_config(world_regions=3)
    model = FrameworkModel("ci-vsf", cfg, 1)
    runs = {
        "estimate-cross": lambda: finetune_estimate(model, world, cfg, seed=11,
                                                    protocol="cross-region"),
        "future": lambda: finetune_future_image(model, world, cfg, seed=4),
        "soil": lambda: finetune_soil_forecast(model, world, cfg, seed=6),
    }
    for task, run in runs.items():
        encoded.clear()
        run()
        assert encoded, task
        assert len(set(encoded)) == len(encoded), task


def test_forecast_target_beyond_weather_states_raises(world):
    cfg = ft_config()
    model = FrameworkModel("ci-vsf", cfg, 1)
    insts = instances_of(world, [0], cfg.context_len, cfg.gap_min, cfg.gap_max)
    s = world[0]
    last_doy = int(s.doys[max(i.target for i in insts)])
    # the weather ends the day before the latest target, after every window
    cut = [dataclasses.replace(s, weather=s.weather[:last_doy - int(s.start_doy)])]
    states = weather_states(model, cut, [0], cfg)
    with pytest.raises(DomainError, match="beyond"):
        forecast_cache(model, cut, states, insts, cfg)


# -- pinned outputs ------------------------------------------------------------------

# metrics and final-epoch loss of each procedure on the `world` fixture from a
# fresh ci-vsf model (seed 1); a refactor of the fine-tunes must reproduce
# them, up to float32 rounding (rtol 1e-5)
PINNED = {
    "missing": ({"mse": 0.4102991400787107}, 0.11822125315666199),
    "future": ({"mse/all": 0.4987887168924014, "mse/0 - 25 days": 0.49100027481714886,
                "mse/25 - 50 days": 0.5042361815770467,
                "mse/50 - 100 days": 0.49578426281611127,
                "mse/More than 100 days": 0.5041341483592987}, 0.17217602829138437),
    "soil": ({"mae/all": 0.21167991993327936, "mae/0 - 25 days": 0.21559997896353403,
              "mae/25 - 50 days": 0.2661137282848358, "mae/50 - 100 days": 0.17899336169163385,
              "mae/More than 100 days": 0.14596205204725266}, 0.39809858798980713),
    "estimate": ({"mae/all": 0.8129363059997559, "mae/region1": 0.8129363059997559},
                 1.093181888262431),
    "estimate-cross": ({"mae/region0": 0.2931312620639801, "mae/region1": 1.3494161367416382,
                        "mae/region2": 0.46305179595947266, "mae/all": 0.7018663982550303},
                       0.5092805425326029),
    "crop": ({"macro_f1": 0.12699857605177994}, 1.6318265994389851),
}


@pytest.mark.parametrize("task", sorted(PINNED))
def test_finetune_outputs_are_pinned(world, task):
    cfg = ft_config()
    run = {
        "missing": lambda m: finetune_missing(m, world, cfg, seed=3),
        "future": lambda m: finetune_future_image(m, world, cfg, seed=4),
        "soil": lambda m: finetune_soil_forecast(m, world, cfg, seed=6),
        "estimate": lambda m: finetune_estimate(m, world, cfg, seed=9),
        "estimate-cross": lambda m: finetune_estimate(
            m, world, ft_config(world_regions=3), seed=11, protocol="cross-region"),
        "crop": lambda m: finetune_crop(m, world, ft_config(patch=8, crop_timestamps=6),
                                        seed=13),
    }[task]
    model_cfg = ft_config(patch=8) if task == "crop" else cfg
    res = run(FrameworkModel("ci-vsf", model_cfg, 1))
    metrics, final_loss = PINNED[task]
    assert list(res.metrics) == list(metrics)
    for key, want in metrics.items():
        assert res.metrics[key] == pytest.approx(want, rel=1e-5), key
    assert res.losses[-1] == pytest.approx(final_loss, rel=1e-5)
