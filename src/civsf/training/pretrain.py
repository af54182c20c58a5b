"""Pretraining phases and the per-framework runner.

Phase 1a reconstructs single images from unmasked patches, 1b reconstructs
masked daily weather through the LSTM, 1c reconstructs image series with
embeddings masked at the temporal stage, and phase 2 trains variable-step
forecasting on next-step chains with a sampled final horizon K. Frameworks
run their subset: sm-mr 1a+1c, mm-mr 1a+1b+1c (plus the auxiliary weather
head in 1c), sm-vsf 1a+1c+2, ci-vsf all four.

Every random draw comes from a stream labeled by phase, epoch and purpose,
so a resumed run replays the exact draws of an uninterrupted one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from civsf.datamodel import Instance, Sample, instances_of, stack_windows, windows_of
from civsf.encoders import WeatherEncoder, patchify
from civsf.errors import CompatibilityError, ConfigError, DomainError
from civsf.forecast_decode import forecast_embed, repopulate
from civsf.fusion import causal_temporal_encode
from civsf.harness.checkpoint import load_checkpoint, save_checkpoint
from civsf.harness.config import Config, parse_pairs
from civsf.masking import build_mask, build_weather_mask
from civsf.numerics import RngStream, no_grad, optim
from civsf.training.model import FrameworkModel

PHASES = {
    "sm-mr": ("1a", "1c"),
    "mm-mr": ("1a", "1b", "1c"),
    "sm-vsf": ("1a", "1c", "2"),
    "ci-vsf": ("1a", "1b", "1c", "2"),
}


@dataclass
class EpochRecord:
    epoch: int          # global index across phases
    phase: str
    framework: str
    loss: float
    seconds: float


def phase_schedule(kind: str, cfg: Config) -> list[tuple[str, int]]:
    epochs = {"1a": cfg.epochs_1a, "1b": cfg.epochs_1b,
              "1c": cfg.epochs_1c, "2": cfg.epochs_2}
    return [(p, epochs[p]) for p in PHASES[kind] if epochs[p] > 0]


# -- epoch pools: each maps (samples, cfg) to the items a phase draws from ----

def image_pool(samples: list[Sample], cfg: Config) -> list[tuple[int, int]]:
    return [(si, t) for si, s in enumerate(samples) for t in range(s.t_steps)]


def sample_pool(samples: list[Sample], cfg: Config) -> list[int]:
    return list(range(len(samples)))


def window_pool(samples: list[Sample], cfg: Config) -> list[tuple[int, int]]:
    return windows_of(samples, range(len(samples)), cfg.context_len)


def phase2_window_pool(samples: list[Sample], cfg: Config) -> list[list[Instance]]:
    """Instances grouped by context window, so K can be resampled per window
    each epoch."""
    by_window: dict[tuple[int, int], list[Instance]] = {}
    for inst in instances_of(samples, range(len(samples)), cfg.context_len,
                             cfg.gap_min, cfg.gap_max):
        by_window.setdefault((inst.sample_idx, inst.start), []).append(inst)
    return list(by_window.values())


def _reordered(phase: str, cap: str | None):
    """Epoch items of a phase: its pool in an order drawn from
    '<phase>/epoch<e>/order', cut to the Config field cap (None or a zero
    cap keeps the whole pool)."""
    def items(pool: list, cfg: Config, stream: RngStream, epoch: int) -> list:
        perm = stream.generator(f"{phase}/epoch{epoch}/order").permutation(len(pool))
        n = getattr(cfg, cap) if cap else 0
        return [pool[i] for i in (perm[:n] if n else perm)]
    return items


def phase2_epoch_instances(pool: list[list[Instance]], cfg: Config,
                           stream: RngStream, epoch: int) -> list[Instance]:
    """One instance per selected window, horizon K drawn fresh this epoch."""
    windows = _reordered("2", "instances_per_epoch")(pool, cfg, stream, epoch)
    g = stream.generator(f"2/epoch{epoch}/horizon")
    return [w[int(g.integers(len(w)))] for w in windows]


# -- per-batch losses --------------------------------------------------------

def _phase1a_batch(model: FrameworkModel, samples, rows, cfg: Config, rng):
    imgs = np.stack([samples[si].images[t] for si, t in rows])
    b = imgs.shape[0]
    g = model.enc.grid
    n_mask = round(cfg.mask_ratio * g)
    kept = np.empty((b, g - n_mask), dtype=np.int64)
    for i in range(b):
        hidden = rng.choice(g, size=n_mask, replace=False)
        keep = np.ones(g, dtype=bool)
        keep[hidden] = False
        kept[i] = np.flatnonzero(keep)

    patches = patchify(imgs, model.enc.patch)                       # (B, G, P)
    sel = np.take_along_axis(patches, kept[..., None], axis=1)
    tokens = model.vit(sel[:, None].astype(model.dtype), kept[:, None])
    tokens = tokens.reshape(b, kept.shape[1], model.enc.hidden)
    pred = model.decoder(repopulate(tokens, kept, g))               # (B, G, P)
    return ((pred - patches) ** 2).mean()


def _phase1b_batch(model: FrameworkModel, samples, rows, cfg: Config, rng):
    wx = np.stack([samples[si].weather for si in rows])
    b, length, _ = wx.shape
    mask = np.stack([build_weather_mask(length, cfg.weather_mask_ratio, rng)
                     for _ in range(b)])
    h = model.weather(wx, day_mask=mask)
    pred = model.weather.reconstruct(h)
    return ((pred - WeatherEncoder.normalize(wx)) ** 2).mean()


def _phase1c_batch(model: FrameworkModel, samples, rows, cfg: Config, rng):
    c = cfg.context_len
    imgs, doys, wx, start = stack_windows(samples, rows, c)
    b = len(rows)
    g = model.enc.grid
    plans = [build_mask(c, g, cfg.mask_ratio, rng) for _ in range(b)]

    weather_h = model.encode_weather(wx, steps=int(doys.max()) - start + 1)
    # the ViT sees every patch; the plans mask embeddings at the temporal stage
    patches = patchify(imgs, model.enc.patch)
    fused = model.fuse_series(patches, doys, weather_h, start, plans, mask_pixels=False)
    emb = causal_temporal_encode(model.temporal, fused, plans)

    grid_idx = np.stack([p.unmasked_patches for p in plans])       # (B, C, U)
    pred = model.decoder(repopulate(emb, grid_idx, g))             # (B, C, G, P)
    loss = ((pred - patches) ** 2).mean()

    if model.wx_head is not None:
        # auxiliary recon of same-day weather from patch-pooled fused tokens
        wx_pred = model.wx_head(fused.mean(axis=2))                # (B, C, 5)
        truth_w = WeatherEncoder.normalize(wx)[np.arange(b)[:, None], doys - start]
        loss = loss + ((wx_pred - truth_w) ** 2).mean()
    return loss


def reconstruction_objective(model: FrameworkModel, samples, windows: list[tuple[int, int]],
                             cfg: Config, rng) -> float:
    """Mean phase-1c loss over (sample, start) windows, in ft_batch chunks
    and without gradients."""
    total = 0.0
    with no_grad():
        for lo in range(0, len(windows), cfg.ft_batch):
            chunk = windows[lo:lo + cfg.ft_batch]
            total += float(_phase1c_batch(model, samples, chunk, cfg, rng).data) * len(chunk)
    return total / len(windows)


def _phase2_batch(model: FrameworkModel, samples, insts: list[Instance],
                  cfg: Config, rng):
    c = cfg.context_len
    b = len(insts)
    g = model.enc.grid
    imgs, doys, wx, start = stack_windows(samples, [(i.sample_idx, i.start) for i in insts], c)
    tgt_doy = np.array([int(samples[i.sample_idx].doys[i.target]) for i in insts])
    plans = [build_mask(c, g, cfg.mask_ratio, rng) for _ in range(b)]

    weather_h = model.encode_weather(wx, steps=int(tgt_doy.max()) - start + 1)
    emb = model.encode_series(imgs, doys, weather_h, start, plans, mask_pixels=True)

    grid_idx = np.stack([p.unmasked_patches for p in plans])       # (B, C, U)
    b_rows = np.arange(b)
    step_losses = []
    for i in range(c):
        if i < c - 1:
            step_doy = doys[:, i + 1]
            truth_imgs = imgs[:, i + 1]
        else:
            step_doy = tgt_doy
            truth_imgs = np.stack([samples[j.sample_idx].images[j.target] for j in insts])
        w_t = weather_h[b_rows, step_doy - start] if weather_h is not None else None
        femb = forecast_embed(model.forecaster, emb[:, i], w_t,
                              model.doy(step_doy), model.delta(step_doy - doys[:, i]))
        pred = model.decoder(repopulate(femb, grid_idx[:, i], g))  # (B, G, P)
        step_losses.append(((pred - patchify(truth_imgs, model.enc.patch)) ** 2).mean())
    loss = step_losses[0]
    for term in step_losses[1:]:
        loss = loss + term
    return loss / float(c)


# -- epoch loops ---------------------------------------------------------------

# phase -> (pool builder, Config field of the batch size, epoch items, batch
# loss); epoch items map (pool, cfg, stream, epoch) to the epoch's items
PHASE_STEPS = {
    "1a": (image_pool, "batch_size", _reordered("1a", "images_per_epoch"), _phase1a_batch),
    "1b": (sample_pool, "batch_size", _reordered("1b", None), _phase1b_batch),
    "1c": (window_pool, "seq_batch_size", _reordered("1c", "instances_per_epoch"),
           _phase1c_batch),
    "2": (phase2_window_pool, "seq_batch_size", phase2_epoch_instances, _phase2_batch),
}


def run_epoch(phase: str, model: FrameworkModel, samples, pool: list, cfg: Config,
              stream: RngStream, opt, epoch: int) -> float:
    """One epoch of a phase over its pool: the epoch's items in batches, one
    optimizer step per batch, every mask drawn from '<phase>/epoch<e>/mask'.
    Returns the mean item loss."""
    if phase not in PHASE_STEPS:
        raise DomainError(f"unknown phase '{phase}'")
    _, batch_field, items_of, batch_loss = PHASE_STEPS[phase]
    if not pool:
        raise DomainError(f"phase {phase} has no training items "
                          f"(context_len {cfg.context_len}, gaps [{cfg.gap_min}, {cfg.gap_max}])")
    items = items_of(pool, cfg, stream, epoch)
    batch = getattr(cfg, batch_field)
    rng = stream.generator(f"{phase}/epoch{epoch}/mask")
    total = 0.0
    for lo in range(0, len(items), batch):
        chunk = items[lo:lo + batch]
        loss = batch_loss(model, samples, chunk, cfg, rng)
        opt.minimize(loss, f"phase {phase} at epoch {epoch}")
        total += float(loss.data) * len(chunk)
    return total / len(items)


# -- checkpointing and the runner ----------------------------------------------

def _save(path: str, model: FrameworkModel, opt, kind: str, cfg: Config,
          seed: int, phase: str, epochs_done: int, global_epoch: int) -> None:
    tensors = {f"model/{n}": a for n, a in model.state_arrays().items()}
    tensors.update({f"opt/{n}": a for n, a in opt.state_arrays().items()})
    meta = {"framework": kind, "seed": str(seed), "phase": phase,
            "epochs_done": str(epochs_done), "global_epoch": str(global_epoch),
            "config_hash": cfg.hash()}
    meta.update({f"cfg/{k}": str(v) for k, v in
                 ((f, getattr(cfg, f)) for f in cfg.__dataclass_fields__)})
    save_checkpoint(path, tensors, meta)


def _prefixed(arrays: dict, prefix: str) -> dict:
    """The entries whose names start with prefix, under the rest of the name."""
    return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}


def load_model(path: str) -> tuple[FrameworkModel, Config, dict[str, str]]:
    """Rebuild the exact model a checkpoint was saved from."""
    tensors, meta = load_checkpoint(path)
    if "framework" not in meta or "seed" not in meta:
        raise CompatibilityError(f"{path} lacks framework/seed metadata")
    try:
        cfg = Config(**parse_pairs(_prefixed(meta, "cfg/")))
    except ConfigError as e:
        raise CompatibilityError(f"{path}: the saved config does not fit this version: "
                                 f"{e}") from e
    model = FrameworkModel(meta["framework"], cfg, int(meta["seed"]))
    model.load_state(_prefixed(tensors, "model/"))
    return model, cfg, meta


def run_framework(kind: str, samples: list[Sample], cfg: Config, seed: int,
                  out_path: str, resume_from: str | None = None,
                  verbose: bool = False) -> tuple[str, list[EpochRecord]]:
    """Train one framework end to end; returns (checkpoint path, epoch log).

    resume_from restarts at the epoch after the checkpoint's last completed
    one and replays the identical stream draws, so the result is bitwise
    equal to an uninterrupted run.
    """
    model = FrameworkModel(kind, cfg, seed)
    stream = RngStream(seed)
    sched = phase_schedule(kind, cfg)

    # phase -> epochs already run; the checkpoint's phase resumes mid-way
    # with its saved optimizer state, the phases before it are complete
    done: dict[str, int] = {}
    opt_state: dict[str, np.ndarray] = {}
    global_epoch = 0
    if resume_from is not None:
        tensors, meta = load_checkpoint(resume_from)
        if meta.get("framework") != kind:
            raise CompatibilityError(
                f"checkpoint trained framework '{meta.get('framework')}', not '{kind}'")
        if meta.get("config_hash") != cfg.hash():
            raise CompatibilityError("checkpoint config does not match this run's config")
        model.load_state(_prefixed(tensors, "model/"))
        names = [p for p, _ in sched]
        phase = meta.get("phase")
        if phase not in names:
            raise CompatibilityError(f"checkpoint phase '{phase}' not in schedule {names}")
        done = dict(sched[:names.index(phase)])
        done[phase] = int(meta["epochs_done"])
        global_epoch = int(meta["global_epoch"])
        opt_state = _prefixed(tensors, "opt/")

    records: list[EpochRecord] = []
    for phase, n_epochs in sched:
        first = done.get(phase, 0)
        if first >= n_epochs:
            continue
        opt = optim.Adam(model.phase_params(phase), lr=cfg.lr)
        if first > 0:
            opt.load_state(opt_state)
        pool = PHASE_STEPS[phase][0](samples, cfg)
        for e in range(first, n_epochs):
            t0 = time.monotonic()
            loss = run_epoch(phase, model, samples, pool, cfg, stream, opt, e)
            dt = time.monotonic() - t0
            records.append(EpochRecord(global_epoch, phase, kind, loss, dt))
            global_epoch += 1
            if verbose:
                print(f"[{kind}] phase {phase} epoch {e + 1}/{n_epochs}: "
                      f"loss {loss:.6f} ({dt:.1f}s)", flush=True)
            if e + 1 == n_epochs or (cfg.ckpt_every and (e + 1) % cfg.ckpt_every == 0):
                _save(out_path, model, opt, kind, cfg, seed, phase, e + 1, global_epoch)
    if records:
        return out_path, records
    if resume_from is None:
        raise DomainError(f"framework '{kind}' has an empty phase schedule")
    # already finished; the source checkpoint is the result
    return resume_from, records
