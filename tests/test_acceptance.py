"""Acceptance suite: twelve checks, one test and one printed verdict each.

Every test wraps its body in the ``criterion`` reporter from conftest, which
times the body, enforces the runtime budget, and prints a single pass/fail
line in the terminal summary. Training-based checks (6-9) pin small schedules
that were measured to clear their margins on this hardware; the ordering
checks compare frameworks trained on identical data with identical seeds, so
a pass reflects the frameworks and not the draw.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from civsf.datamodel import Sample, split
from civsf.encoders import patchify
from civsf.forecast_decode import forecast_embed, repopulate
from civsf.harness.checkpoint import load_checkpoint, save_checkpoint
from civsf.harness.cli import run_gradcheck
from civsf.harness.config import Config
from civsf.harness.report import render_reference_tables
from civsf.masking import build_mask, verify_mask
from civsf.numerics import RngStream, no_grad
from civsf.synthworld import WorldConfig, gen_dataset
from civsf.training.finetune import (
    finetune_crop,
    finetune_future_image,
    finetune_missing,
    finetune_soil_forecast,
)
from civsf.training.model import FrameworkModel, trivial_plans
from civsf.training.pretrain import load_model, phase2_window_pool, run_framework

GE50_BUCKETS = ("50 - 100 days", "More than 100 days")
ORDER_SEEDS = (0, 1, 2)


# -- shared fixtures for the ordering criteria (7-9) -------------------------------

def _ordering_cfg(kind: str) -> Config:
    # measured schedule: clears every ordering margin with room on this box
    return Config(framework=kind, seed=0, side=16, patch=4, hidden=16,
                  vit_heads=4, temporal_heads=4, context_len=4, mask_ratio=0.25,
                  lr=0.001, batch_size=32, seq_batch_size=16,
                  epochs_1a=12, epochs_1b=6, epochs_1c=20, epochs_2=28,
                  images_per_epoch=512, instances_per_epoch=256,
                  ft_lr=0.001, ft_batch=32, ft_max_train=384, ft_max_eval=192,
                  ft_epochs_future=12, ft_epochs_missing=60, ft_epochs_soil=30)


@pytest.fixture(scope="session")
def ordering_world():
    # wide revisit gaps put real mass in the >=50-day horizon buckets
    return gen_dataset(64, WorldConfig(side=16, sigma=0.01, gap_min=8, gap_max=25),
                       seed=7)


@pytest.fixture(scope="session")
def pretrained(ordering_world, tmp_path_factory):
    """Lazy cache of (framework, seed) -> trained model on the shared world.

    All kinds train on the same fixed split; only the training seed varies
    between runs, so each ordering criterion pays only for the checkpoints
    it is first to request.
    """
    out = tmp_path_factory.mktemp("ordering-ckpts")
    cfg0 = _ordering_cfg("ci-vsf")
    tr_idx, _, _ = split(len(ordering_world),
                         (cfg0.train_frac, cfg0.val_frac, cfg0.test_frac),
                         cfg0.seed)
    train = [ordering_world[i] for i in tr_idx]
    cache: dict[tuple[str, int], FrameworkModel] = {}

    def get(kind: str, seed: int) -> FrameworkModel:
        key = (kind, seed)
        if key not in cache:
            path, _ = run_framework(kind, train, _ordering_cfg(kind), seed,
                                    str(out / f"{kind}-{seed}.ckpt"))
            cache[key] = load_model(path)[0]
        return cache[key]

    return get


def _ge50(metrics: dict, prefix: str) -> float:
    vals = [metrics[f"{prefix}/{b}"] for b in GE50_BUCKETS]
    assert len(vals) == 2
    return float(np.mean(vals))


def _tiny_world(n: int, seed: int):
    return gen_dataset(n, WorldConfig(side=16, sigma=0.01, gap_min=5, gap_max=20),
                       seed=seed)


# -- criterion 1 --------------------------------------------------------------------

def test_c01_mask_margin_exactness(criterion):
    """Every admissible (T, G, r) yields exact row and column margins."""
    with criterion(1, "mask margin exactness", 5.0):
        rng = np.random.default_rng(11)
        checked = 0
        for t in range(1, 33):
            for g in range(1, 33):
                for a in range(t):                # a = masked steps per location
                    if (a * g) % t:
                        continue
                    plan = build_mask(t, g, a / t, rng)
                    per_step = a * g // t
                    assert plan.masked.shape == (t, g)
                    assert plan.masked.sum(axis=1).tolist() == [per_step] * t
                    assert plan.masked.sum(axis=0).tolist() == [a] * g
                    verify_mask(plan)
                    checked += 1
        assert checked > 32 * 32                  # r=0 alone admits one per pair

        lattice = build_mask(4, 16, 0.5, rng)
        assert lattice.masked.sum(axis=1).tolist() == [8, 8, 8, 8]
        assert ((~lattice.masked).sum(axis=0) == 2).all()
        assert lattice.unmasked_patches.shape[1] == 8
        assert lattice.series_len == 2


# -- criterion 2 --------------------------------------------------------------------

def test_c02_causal_no_leakage(criterion):
    """Perturbing any input after t_i leaves the embedding prefix bitwise intact."""
    with criterion(2, "causal no-leakage", 30.0):
        cfg = Config(framework="ci-vsf", side=16, patch=8, hidden=16,
                     vit_heads=4, temporal_heads=4, context_len=4)
        t_total, days, start = 5, 90, 1
        doys = np.array([[8, 21, 37, 52, 74]])
        for seed in range(20):
            model = FrameworkModel("ci-vsf", cfg, seed)
            data = np.random.default_rng(1000 + seed)
            imgs = data.uniform(0.1, 0.9, (1, t_total, 6, 16, 16)).astype(np.float32)
            wx = data.normal(0.0, 1.0, (1, days, 5)).astype(np.float32)

            def embed(images, weather, d):
                plans = trivial_plans(t_total, model.enc.grid, 1)
                with no_grad():
                    h = model.encode_weather(weather,
                                             steps=int(d.max()) - start + 1)
                    return model.encode_series(images, d, h, start, plans,
                                               mask_pixels=False).data

            base = embed(imgs, wx, doys)

            # image pixels at timestamps 3 and 4: prefix :3 must not move
            bumped = imgs.copy()
            bumped[:, 3] += 0.05
            bumped[:, 4] *= 0.5
            after = embed(bumped, wx, doys)
            assert np.array_equal(after[:, :3], base[:, :3])
            assert not np.array_equal(after[:, 3:], base[:, 3:])

            # weather on days strictly after doy 37 (= timestamp 2)
            wx2 = wx.copy()
            wx2[:, 37:] += data.normal(0.0, 2.0, wx2[:, 37:].shape).astype(np.float32)
            after = embed(imgs, wx2, doys)
            assert np.array_equal(after[:, :3], base[:, :3])
            assert not np.array_equal(after[:, 3:], base[:, 3:])

            # DOY of the final timestamp moves; prefix :4 must not
            d2 = doys.copy()
            d2[0, 4] = 85
            after = embed(imgs, wx, d2)
            assert np.array_equal(after[:, :4], base[:, :4])
            assert not np.array_equal(after[:, 4:], base[:, 4:])


# -- criterion 3 --------------------------------------------------------------------

def test_c03_gradient_fidelity(criterion):
    """Full-path finite-difference check in float64 over ten seeds."""
    with criterion(3, "gradient fidelity", 120.0):
        worst = 0.0
        for seed in range(10):
            err = run_gradcheck(seed)
            worst = max(worst, err)
            assert err <= 1e-4, f"seed {seed}: relative error {err:.3e}"
        print(f"    worst relative error over 10 seeds: {worst:.3e}")


# -- criterion 4 --------------------------------------------------------------------

def test_c04_target_hygiene(criterion):
    """The forecast prediction path is bitwise blind to the target image."""
    with criterion(4, "target hygiene", 10.0):
        world = _tiny_world(2, seed=42)
        cfg = Config(framework="ci-vsf", side=16, patch=4, hidden=16,
                     vit_heads=4, temporal_heads=4, context_len=4,
                     mask_ratio=0.5)
        model = FrameworkModel("ci-vsf", cfg, 4)
        inst = phase2_window_pool(world, cfg)[0][0]
        s = world[inst.sample_idx]
        c = cfg.context_len

        def predict(target_img: np.ndarray):
            images = s.images.copy()
            images[inst.target] = target_img
            imgs = images[inst.start:inst.start + c][None]
            doys = s.doys[inst.start:inst.start + c][None]
            tgt_doy = np.array([int(s.doys[inst.target])])
            rng = RngStream(4).generator("hygiene/mask")
            plans = [build_mask(c, model.enc.grid, cfg.mask_ratio, rng)]
            with no_grad():
                h = model.encode_weather(s.weather[None],
                                         steps=int(tgt_doy[0]) - s.start_doy + 1)
                emb = model.encode_series(imgs, doys, h, s.start_doy, plans,
                                          mask_pixels=True)
                w_t = h[np.arange(1), tgt_doy - s.start_doy]
                femb = forecast_embed(model.forecaster, emb[:, c - 1], w_t,
                                      model.doy(tgt_doy),
                                      model.delta(tgt_doy - doys[:, c - 1]))
                pred = model.decoder(
                    repopulate(femb, plans[0].unmasked_patches[None, c - 1],
                               model.enc.grid))
            truth = patchify(images[inst.target][None, None], cfg.patch)[:, 0]
            loss = float(((pred.data - truth) ** 2).mean())
            return pred.data, loss

        true_img = s.images[inst.target]
        pred_a, loss_a = predict(true_img)
        pred_b, loss_b = predict(np.zeros_like(true_img))
        pred_c, loss_c = predict(np.full_like(true_img, 0.7))

        # the target reaches the objective, never the prediction
        assert loss_a != loss_b and loss_a != loss_c
        assert np.array_equal(pred_a, pred_b)
        assert np.array_equal(pred_a, pred_c)


# -- criterion 5 --------------------------------------------------------------------

def test_c05_framework_hygiene(criterion, tmp_path):
    """Weather-blind kinds must train identically on noise weather."""
    with criterion(5, "weather-blind framework hygiene", 60.0):
        world = _tiny_world(6, seed=100)
        noise = np.random.default_rng(999)
        noisy = [Sample(images=s.images, doys=s.doys,
                        weather=noise.normal(0.0, 3.0, s.weather.shape)
                                     .astype(np.float32),
                        start_doy=s.start_doy, soil=s.soil, crops=s.crops)
                 for s in world]
        for kind in ("sm-mr", "sm-vsf"):
            cfg = Config(framework=kind, side=16, patch=4, hidden=16,
                         vit_heads=4, temporal_heads=4, context_len=4,
                         mask_ratio=0.5, lr=0.001, batch_size=8,
                         seq_batch_size=4, epochs_1a=1, epochs_1b=1,
                         epochs_1c=1, epochs_2=1, images_per_epoch=16,
                         instances_per_epoch=8)
            p_a = str(tmp_path / f"{kind}-clean.ckpt")
            p_b = str(tmp_path / f"{kind}-noise.ckpt")
            _, recs_a = run_framework(kind, world, cfg, 5, p_a)
            _, recs_b = run_framework(kind, noisy, cfg, 5, p_b)
            assert [r.loss for r in recs_a] == [r.loss for r in recs_b]
            assert Path(p_a).read_bytes() == Path(p_b).read_bytes()


# -- criterion 6 --------------------------------------------------------------------

def test_c06_pretraining_smoke(criterion, tmp_path):
    """Each phase cuts its loss by at least 30% over the 80/30 schedule."""
    with criterion(6, "pretraining smoke", 600.0):
        samples = gen_dataset(200, WorldConfig(), seed=11)
        # default schedule (20/10/20 + 30); lr raised so the short weather
        # phase moves past its 30% bar within its 10 epochs
        cfg = dataclasses.replace(Config(framework="ci-vsf"), lr=0.001)
        _, recs = run_framework("ci-vsf", samples, cfg, 3,
                                str(tmp_path / "smoke.ckpt"))
        for phase in ("1a", "1b", "1c", "2"):
            losses = [r.loss for r in recs if r.phase == phase]
            drop = (losses[0] - losses[-1]) / losses[0]
            print(f"    phase {phase}: {losses[0]:.5f} -> {losses[-1]:.5f} "
                  f"({drop * 100:.0f}% reduction)")
            assert drop >= 0.30, f"phase {phase}: only {drop * 100:.1f}%"


# -- criteria 7-9 -------------------------------------------------------------------

def test_c07_future_image_ordering(criterion, ordering_world, pretrained):
    """CI-VSF beats SM-VSF on long-range image forecasting, every seed."""
    with criterion(7, "future-image ordering", 900.0):
        margins = []
        for seed in ORDER_SEEDS:
            ci = finetune_future_image(pretrained("ci-vsf", seed), ordering_world,
                                       _ordering_cfg("ci-vsf"), seed)
            sm = finetune_future_image(pretrained("sm-vsf", seed), ordering_world,
                                       _ordering_cfg("sm-vsf"), seed)
            a, b = _ge50(ci.metrics, "mse"), _ge50(sm.metrics, "mse")
            margins.append((b - a) / b)
        print("    >=50d MSE margins: "
              + ", ".join(f"{m * 100:+.1f}%" for m in margins))
        assert all(m >= 0.10 for m in margins), margins


def test_c08_missing_image_ordering(criterion, ordering_world, pretrained):
    """CI-VSF beats MM-MR on 50% corrupted-image reconstruction, every seed."""
    with criterion(8, "missing-image ordering", 600.0):
        margins = []
        for seed in ORDER_SEEDS:
            ci = finetune_missing(pretrained("ci-vsf", seed), ordering_world,
                                  _ordering_cfg("ci-vsf"), seed)
            mm = finetune_missing(pretrained("mm-mr", seed), ordering_world,
                                  _ordering_cfg("mm-mr"), seed)
            a, b = ci.metrics["mse"], mm.metrics["mse"]
            margins.append((b - a) / b)
        print("    50% corruption MSE margins: "
              + ", ".join(f"{m * 100:+.1f}%" for m in margins))
        assert all(m >= 0.10 for m in margins), margins


def test_c09_soil_forecast_ordering(criterion, ordering_world, pretrained):
    """CI-VSF beats SM-VSF on long-range soil moisture MAE, every seed."""
    with criterion(9, "soil forecast ordering", 600.0):
        margins = []
        for seed in ORDER_SEEDS:
            ci = finetune_soil_forecast(pretrained("ci-vsf", seed), ordering_world,
                                        _ordering_cfg("ci-vsf"), seed)
            sm = finetune_soil_forecast(pretrained("sm-vsf", seed), ordering_world,
                                        _ordering_cfg("sm-vsf"), seed)
            a, b = _ge50(ci.metrics, "mae"), _ge50(sm.metrics, "mae")
            margins.append((b - a) / b)
        print("    >=50d MAE margins: "
              + ", ".join(f"{m * 100:+.1f}%" for m in margins))
        assert all(m >= 0.10 for m in margins), margins


# -- criterion 10 -------------------------------------------------------------------

def test_c10_temporal_flexibility(criterion, tmp_path):
    """A C=6 encoder drives the T=10 crop head with no weight surgery."""
    with criterion(10, "temporal flexibility", 300.0):
        world = gen_dataset(8, WorldConfig(side=16, sigma=0.01), seed=21)
        cfg = Config(framework="sm-mr", side=16, patch=8, hidden=16,
                     vit_heads=4, temporal_heads=4, context_len=6,
                     mask_ratio=0.5, lr=0.001, batch_size=16, seq_batch_size=8,
                     epochs_1a=2, epochs_1c=2, images_per_epoch=64,
                     instances_per_epoch=32, crop_timestamps=10, ft_lr=0.001,
                     ft_batch=8, ft_epochs_crop=4, ft_max_train=32,
                     ft_max_eval=16)
        path, _ = run_framework("sm-mr", world, cfg, 9,
                                str(tmp_path / "flex.ckpt"))
        model, mcfg, _ = load_model(path)
        assert mcfg.context_len == 6 and mcfg.crop_timestamps == 10

        before = {n: p.data.copy() for n, p in model.named_parameters()}
        result = finetune_crop(model, world, mcfg, 9)
        assert result.task == "crop-map"
        assert all(np.isfinite(v) for v in result.losses)
        assert result.losses[-1] < result.losses[0]
        assert 0.0 <= result.metrics["macro_f1"] <= 1.0
        # no weight surgery: the encoder is exactly the pretrained one
        for n, p in model.named_parameters():
            assert np.array_equal(before[n], p.data), n
        print(f"    losses {result.losses[0]:.4f} -> {result.losses[-1]:.4f}, "
              f"macro_f1 {result.metrics['macro_f1']:.3f}")


# -- criterion 11 -------------------------------------------------------------------

def test_c11_checkpoint_roundtrip(criterion, tmp_path):
    """Forward loss is bitwise stable across a save/load cycle; bytes too."""
    with criterion(11, "checkpoint roundtrip", 10.0):
        world = _tiny_world(3, seed=55)
        cfg = Config(framework="ci-vsf", side=16, patch=4, hidden=16,
                     vit_heads=4, temporal_heads=4, context_len=4,
                     mask_ratio=0.5, lr=0.001, batch_size=4, seq_batch_size=4,
                     epochs_1a=1, epochs_1b=1, epochs_1c=1, epochs_2=1,
                     images_per_epoch=8, instances_per_epoch=4)
        p1 = str(tmp_path / "rt1.ckpt")
        run_framework("ci-vsf", world, cfg, 7, p1)
        model_a, _, meta_a = load_model(p1)

        def forward(model) -> float:
            s = world[0]
            imgs = s.images[None, :4]
            doys = s.doys[None, :4]
            plans = trivial_plans(4, model.enc.grid, 1)
            with no_grad():
                h = model.encode_weather(
                    s.weather[None], steps=int(doys.max()) - s.start_doy + 1)
                emb = model.encode_series(imgs, doys, h, s.start_doy, plans,
                                          mask_pixels=False)
                pred = model.decoder(emb)
            truth = patchify(imgs, model.enc.patch)
            return float(((pred.data - truth) ** 2).mean())

        loss_pre = forward(model_a)
        p2 = str(tmp_path / "rt2.ckpt")
        save_checkpoint(p2, {f"model/{n}": a
                             for n, a in model_a.state_arrays().items()}, meta_a)
        model_b, _, _ = load_model(p2)
        assert forward(model_b) == loss_pre
        pa, pb = dict(model_a.named_parameters()), dict(model_b.named_parameters())
        assert pa.keys() == pb.keys()
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data), name

        tensors, meta = load_checkpoint(p1)
        p3 = str(tmp_path / "rt3.ckpt")
        save_checkpoint(p3, tensors, meta)
        assert Path(p3).read_bytes() == Path(p1).read_bytes()


# -- criterion 12 -------------------------------------------------------------------

VSF_COLS = ("SM-VSF", "CI-VSF")
ALL_COLS = ("SM-MR", "MM-MR", "SM-VSF", "CI-VSF")

PUBLISHED = {
    "Soil Moisture Forecasting Downstream Task": (VSF_COLS, {
        "0 - 25 days": ("0.0406", "0.0179"),
        "25 - 50 days": ("0.0429", "0.0184"),
        "50 - 100 days": ("0.0549", "0.0189"),
        "More than 100 days": ("0.0678", "0.0204"),
    }),
    "Soil Moisture Prediction Finetuned Models": (ALL_COLS, {
        "All": ("0.0615", "0.0458", "0.0483", "0.0282"),
        "T11SKA": ("0.1113", "0.0847", "0.1121", "0.0695"),
        "T15TUH": ("0.1283", "0.1365", "0.1181", "0.0834"),
        "T14SKC": ("0.1159", "0.1275", "0.1312", "0.0958"),
        "T16SBF": ("0.0821", "0.0631", "0.0895", "0.0544"),
        "T10SEJ": ("0.1003", "0.0718", "0.1011", "0.0587"),
        "T14RQT": ("0.0815", "0.0579", "0.0658", "0.0558"),
    }),
    "2019 Test 11 class average F1 Scores": (ALL_COLS, {
        "Average": ("0.5331", "0.5789", "0.5731", "0.6233"),
    }),
    "Missing Image Prediction Finetuned Models": (ALL_COLS, {
        "50%": ("792.68", "788.94", "362.02", "326.43"),
        "70%": ("820.46", "814.75", "394.32", "337.79"),
        "90%": ("826.23", "820.43", "404.32", "343.88"),
    }),
    "Image Forecasting Downstream Task": (VSF_COLS, {
        "0 - 25 days": ("340.13", "237.21"),
        "25 - 50 days": ("591.54", "278.83"),
        "50 - 100 days": ("1093.62", "358.23"),
        "More than 100 days": ("1112.84", "457.27"),
    }),
}


def test_c12_reference_table_fidelity(criterion):
    """Every published cell renders exactly, labeled as non-reproduced."""
    with criterion(12, "reference table fidelity", float("inf")):
        tables = render_reference_tables()
        assert [t.title for t in tables] == list(PUBLISHED)
        for table in tables:
            cols, rows = PUBLISHED[table.title]
            assert table.columns == cols
            body = [line.split(",") for line in table.render_csv().splitlines()
                    if not line.startswith("#")]
            assert body[0] == ["metric", "row", *cols]
            assert [line[1] for line in body[1:]] == list(rows)
            for line, (row, cells) in zip(body[1:], rows.items()):
                assert line[2:] == list(cells), (table.title, row)
            assert table.meta["label"] == "paper reference — not reproduced"
            assert "paper reference — not reproduced" in table.render_text()
