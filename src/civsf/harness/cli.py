"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 data or I/O error, 4 numeric
abort.
Flags override config-file values; `--set key=value` overrides any field.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from civsf.datamodel import load_container, split, stack_windows, windows_of
from civsf.encoders import unpatchify
from civsf.errors import (CompatibilityError, ConfigError, DataFormatError,
                          DomainError, NumericError, ShapeError)
from civsf.fileio import write_atomic
from civsf.harness import config as config_mod
from civsf.harness import report
from civsf.harness.config import FRAMEWORKS, Config
from civsf.harness.ppm import write_ppm
from civsf.masking import build_mask, render_mask, verify_mask
from civsf.numerics import RngStream, Tensor, no_grad
from civsf.numerics.gradcheck import grad_check


def _overrides(args) -> dict[str, str]:
    out: dict[str, str] = {}
    for kv in args.set or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects key=value, got '{kv}'")
        key, value = kv.split("=", 1)
        out[key.strip()] = value.strip()
    if getattr(args, "framework", None):
        out["framework"] = args.framework
    return out


def _load_cfg(args) -> Config:
    ov = _overrides(args)
    if args.seed is not None:
        ov["seed"] = str(args.seed)
    if args.config:
        return config_mod.from_file(args.config, ov)
    return config_mod.from_overrides(ov)


# -- subcommands ----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    from civsf.synthworld import PHENOLOGY, WorldConfig, gen_dataset
    cfg = _load_cfg(args)
    world = WorldConfig(side=cfg.side, n_regions=cfg.world_regions,
                        crop_classes=cfg.crop_classes, gap_min=cfg.world_gap_min,
                        gap_max=cfg.world_gap_max, sigma=cfg.world_sigma)
    if cfg.side < 1 or cfg.side % world.field_px:
        raise ConfigError(f"gen-data needs side to be a positive multiple of the "
                          f"{world.field_px}-pixel crop field, got {cfg.side}")
    if not 1 <= cfg.crop_classes <= len(PHENOLOGY):
        raise ConfigError(f"gen-data knows crop classes 1 to {len(PHENOLOGY)}, "
                          f"got crop_classes {cfg.crop_classes}")
    samples = gen_dataset(cfg.world_samples, world, cfg.seed, args.out,
                          config_note=f"config: {cfg.hash()} seed: {cfg.seed}")
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    from civsf.training.pretrain import run_framework
    cfg = _load_cfg(args)
    samples = load_container(args.data)
    train_idx, _, _ = split(len(samples), (cfg.train_frac, cfg.val_frac, cfg.test_frac),
                            cfg.seed)
    train = [samples[i] for i in train_idx]
    os.makedirs(args.out, exist_ok=True)
    tag = f"{cfg.framework}-seed{cfg.seed}"
    ckpt = os.path.join(args.out, f"{tag}.ckpt")
    path, records = run_framework(cfg.framework, train, cfg, cfg.seed, ckpt,
                                  resume_from=args.resume, verbose=not args.quiet)
    report.write_log(os.path.join(args.out, f"{tag}-log.csv"),
                     records, cfg.hash(), cfg.seed)
    print(f"checkpoint: {path}")
    return 0


# task -> (function in training.finetune, its keyword arguments, table metric)
_FT_TASKS = {
    "soil": ("finetune_soil_forecast", {}, "MAE"),
    "estimate": ("finetune_estimate", {"protocol": "in-region"}, "MAE"),
    "estimate-cross": ("finetune_estimate", {"protocol": "cross-region"}, "MAE"),
    "crop": ("finetune_crop", {}, "F1"),
    "missing": ("finetune_missing", {}, "MSE"),
    "future": ("finetune_future_image", {}, "MSE"),
}


def cmd_finetune(args) -> int:
    from civsf.harness.checkpoint import save_checkpoint
    from civsf.training import finetune as ft
    from civsf.training.pretrain import load_model
    model, cfg, _ = load_model(args.ckpt)
    ov = _overrides(args)
    if "seed" in ov:
        raise ConfigError("finetune keeps the checkpoint's seed, which fixes the train/test "
                          "split; --seed chooses the fine-tune's own draws")
    cfg = dataclasses.replace(cfg, **config_mod.parse_pairs(ov))
    samples = load_container(args.data)
    seed = cfg.seed if args.seed is None else args.seed
    fn_name, kwargs, metric = _FT_TASKS[args.task]
    result = getattr(ft, fn_name)(model, samples, cfg, seed, **kwargs)

    table = report.from_metrics(f"{result.task} ({model.kind})", metric,
                                model.kind, result.metrics, cfg.hash(), seed)
    print(table.render_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        tag = f"{args.task}-{model.kind}-seed{seed}"
        write_atomic(os.path.join(args.out, f"{tag}.txt"), table.render_text().encode("utf-8"))
        write_atomic(os.path.join(args.out, f"{tag}.csv"), table.render_csv().encode("utf-8"))
        if result.head_state:
            save_checkpoint(os.path.join(args.out, f"{tag}-head.ckpt"),
                            result.head_state,
                            {"task": result.task, "framework": model.kind,
                             "seed": str(seed), "config_hash": cfg.hash()})
    return 0


def cmd_evaluate(args) -> int:
    if args.reference:
        for table in report.render_reference_tables():
            print(table.render_text())
        return 0
    if not (args.ckpt and args.data):
        raise ConfigError("evaluate needs --ckpt and --data, or --reference")
    from civsf.training import finetune as ft
    from civsf.training.pretrain import load_model, reconstruction_objective
    model, cfg, _ = load_model(args.ckpt)
    samples = load_container(args.data)
    _, _, test_idx = split(len(samples), (cfg.train_frac, cfg.val_frac, cfg.test_frac),
                           cfg.seed)
    stream = RngStream(cfg.seed)
    windows = windows_of(samples, test_idx, cfg.context_len)
    windows = windows[:cfg.ft_max_eval] if cfg.ft_max_eval else windows
    if not windows:
        raise DomainError("no evaluation windows in the test split")
    loss = reconstruction_objective(model, samples, windows, cfg, stream.generator("eval/mask"))
    print(f"reconstruction objective on test split: {loss:.6f} "
          f"({len(windows)} windows, config {cfg.hash()}, seed {cfg.seed})")

    if model.forecaster is not None:
        _, insts = ft.instance_pools(samples, cfg, stream, "eval")
        states = ft.weather_states(model, samples, [i.sample_idx for i in insts], cfg)
        femb, truth, deltas = ft.forecast_cache(model, samples, states, insts, cfg)
        table = report.ReportTable("Forecast MSE on test-split instances (no fine-tune)",
                                   "MSE", (model.kind,),
                                   {"config": cfg.hash(), "seed": str(cfg.seed)})
        for row, value in ft.forecast_mse(model.decoder, femb, truth, deltas).items():
            table.set(row, model.kind, value)
        print(table.render_text())
    return 0


def cmd_forecast(args) -> int:
    from civsf.training.model import weather_at
    from civsf.training.pretrain import load_model
    model, cfg, _ = load_model(args.ckpt)
    samples = load_container(args.data)
    if not 0 <= args.sample < len(samples):
        raise DomainError(f"sample index {args.sample} outside [0, {len(samples)})")
    s = samples[args.sample]
    c = cfg.context_len
    if not 0 <= args.start <= s.t_steps - c:
        raise DomainError(f"window start {args.start} outside [0, {s.t_steps - c}]")
    last_doy = int(s.doys[args.start + c - 1])
    if args.target_doy <= last_doy:
        raise DomainError(f"target doy {args.target_doy} not after context end {last_doy}")
    if model.forecaster is None:
        raise CompatibilityError(f"forecast needs a *-VSF checkpoint, got '{model.kind}'")
    imgs, doys, wx, start = stack_windows(samples, [(args.sample, args.start)], c)
    target = np.array([args.target_doy])
    # the weather runs only up to the target day
    weather_h = model.frozen_weather(wx, steps=args.target_doy - start + 1)
    emb = model.frozen_encode(imgs, doys, weather_h, start).data
    w_t = None if weather_h is None else weather_at(weather_h, target - start)
    femb = model.frozen_forecast(emb[:, -1], w_t, target, target - doys[:, -1])
    with no_grad():
        patches = model.decoder(Tensor(femb)).data
    img = unpatchify(patches[0], model.enc.side, model.enc.patch)
    write_ppm(args.out, img, config_hash=cfg.hash(), seed=cfg.seed)
    print(f"wrote forecast composite to {args.out}")
    targets = np.flatnonzero(s.doys == args.target_doy)
    if targets.size:
        truth_path = args.out + ".truth.ppm"
        write_ppm(truth_path, s.images[int(targets[0])],
                  config_hash=cfg.hash(), seed=cfg.seed)
        print(f"wrote observed composite to {truth_path}")
    return 0


def cmd_inspect_mask(args) -> int:
    rng = RngStream(args.seed).generator("inspect-mask")
    plan = build_mask(args.t, args.g, args.ratio, rng)
    verify_mask(plan)
    print(render_mask(plan))
    print(f"rows masked: {plan.masked.sum(axis=1).tolist()}")
    print(f"cols masked: {plan.masked.sum(axis=0).tolist()}")
    return 0


def run_gradcheck(seed: int, max_coords: int = 4) -> float:
    """Finite-difference check of the full forecasting loss in float64."""
    from civsf.datamodel import Instance, Sample
    from civsf.training.model import FrameworkModel
    from civsf.training.pretrain import _phase2_batch
    cfg = Config(framework="ci-vsf", side=8, patch=4, hidden=16, vit_heads=4,
                 temporal_heads=4, context_len=3, mask_ratio=0.0)
    rng = RngStream(seed).generator("gradcheck/data")
    doys = np.array([10, 25, 40, 60, 85], dtype=np.int64)
    wx = np.stack([rng.uniform(-5, 15, 100), rng.uniform(0, 25, 100),
                   rng.uniform(0, 8, 100), rng.uniform(-4, 4, 100),
                   rng.uniform(-4, 4, 100)], axis=1).astype(np.float32)
    sample = Sample(images=rng.uniform(0, 1, (5, 6, 8, 8)).astype(np.float32),
                    doys=doys, weather=wx, start_doy=1)
    inst = Instance(0, 0, 3, 4, int(doys[4] - doys[2]))
    model = FrameworkModel("ci-vsf", cfg, seed, dtype=np.float64)

    def loss_fn():
        return _phase2_batch(model, [sample], [inst], cfg,
                             RngStream(seed).generator("gradcheck/mask"))

    return grad_check(loss_fn, model.named_parameters(),
                      max_coords_per_param=max_coords,
                      rng=RngStream(seed).generator("gradcheck/coords"))


def cmd_gradcheck(args) -> int:
    worst = 0.0
    for seed in range(args.seed, args.seed + args.repeats):
        err = run_gradcheck(seed, args.coords)
        worst = max(worst, err)
        print(f"seed {seed}: max relative error {err:.3e}")
    if worst > args.threshold:
        print(f"FAIL: {worst:.3e} > {args.threshold:.1e}", file=sys.stderr)
        return 4
    print(f"OK: worst {worst:.3e} <= {args.threshold:.1e}")
    return 0


# -- parser and dispatch -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="civsf")
    sub = parser.add_subparsers(dest="command", required=True)

    def overrides(p, config=True):
        if config:
            p.add_argument("--config", help="config file of key = value lines")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config field")
        p.add_argument("--seed", type=int, default=None)

    def inputs(p):
        p.add_argument("--data", required=True, help="dataset container path")
        p.add_argument("--ckpt", required=True, help="checkpoint path")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset container")
    overrides(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain one framework")
    overrides(p)
    p.add_argument("--data", required=True, help="dataset container path")
    p.add_argument("--framework", choices=FRAMEWORKS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="resume from this checkpoint")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_pretrain)

    # finetune starts from the checkpoint's config, so it reads no config file
    p = sub.add_parser("finetune", help="fine-tune a downstream head")
    overrides(p, config=False)
    inputs(p)
    p.add_argument("--task", choices=_FT_TASKS, required=True)
    p.add_argument("--out", help="directory for tables and head weights")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("evaluate", help="frozen-model diagnostics or reference tables")
    p.add_argument("--ckpt", help="checkpoint path")
    p.add_argument("--data", help="dataset container path")
    p.add_argument("--reference", action="store_true",
                   help="print the published reference tables and exit")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("forecast", help="decode one forecast to a PPM composite")
    inputs(p)
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--start", type=int, default=0, help="context window start index")
    p.add_argument("--target-doy", type=int, required=True)
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("inspect-mask", help="print one spatiotemporal mask plan")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_inspect_mask)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--coords", type=int, default=4, help="coordinates per parameter")
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataFormatError, DomainError, CompatibilityError, ShapeError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    entry()
