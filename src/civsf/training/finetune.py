"""Downstream fine-tuning: five frozen-encoder procedures.

Every procedure freezes the pretrained encoder, so the expensive encode runs
once per dataset under no_grad and heads train against cached embeddings.
The weather LSTM runs once per location and fine-tune (weather_states);
each window gathers its rows of those states. The encoder runs once per
distinct context window and fine-tune (_encode_once), keeping only what the
task reads: cross-region folds and forecast instances that share a window
share its row.
Forecast-flavored heads (soil forecast, future image) require a *-VSF
checkpoint; reconstruction and estimation heads accept all four kinds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from civsf.datamodel import Instance, Sample, instances_of, split, stack_windows, windows_of
from civsf.encoders import patchify, unpatchify
from civsf.errors import CompatibilityError, DomainError, ShapeError
from civsf.harness.config import Config
from civsf.harness.metrics import bucket_means, macro_f1, mse
from civsf.numerics import RngStream, Tensor, log_softmax, nn, no_grad, optim, softmax
from civsf.training.model import FrameworkModel, uses_forecaster, weather_at


@dataclass
class FinetuneResult:
    task: str
    metrics: dict[str, float]
    losses: list[float] = field(default_factory=list)
    head_state: dict[str, np.ndarray] = field(default_factory=dict)


# -- heads ---------------------------------------------------------------------

class SoilForecastHead(nn.Module):
    """LSTM over past soil values; its final hidden state joins the pooled
    embedding and the target-date embeddings, then linear-ReLU-linear."""

    def __init__(self, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.lstm = nn.Lstm(1, hidden, rng, dtype=dtype)
        self.l1 = nn.Linear(hidden, hidden, rng, dtype=dtype)
        self.l2 = nn.Linear(hidden, 1, rng, dtype=dtype)

    def __call__(self, soil_series: np.ndarray, z_const: np.ndarray) -> Tensor:
        """soil_series (B, C); z_const (B, D) is the frozen sum of pooled
        final embedding plus target doy/delta (and weather) embeddings."""
        h = self.lstm(soil_series[..., None].astype(np.float32))
        z = h[:, -1] + Tensor(z_const)
        return self.l2(self.l1(z).relu())[:, 0]


class EstimateHead(nn.Module):
    """Shared linear-ReLU stack mapping each pooled embedding to a scalar."""

    def __init__(self, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.l1 = nn.Linear(hidden, hidden, rng, dtype=dtype)
        self.l2 = nn.Linear(hidden, 1, rng, dtype=dtype)

    def __call__(self, pooled: np.ndarray) -> Tensor:
        out = self.l2(self.l1(Tensor(pooled)).relu())
        return out.reshape(*pooled.shape[:-1])


class CropHead(nn.Module):
    """Timestamp attention over Emb_STW, then two upsample+conv stages and a
    pixel-shuffled linear classifier to per-pixel logits."""

    def __init__(self, hidden: int, n_classes: int, grid_side: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.score = nn.Linear(hidden, 1, rng, dtype=dtype)
        self.conv1 = nn.Conv3x3(hidden, hidden, rng, dtype=dtype)
        self.conv2 = nn.Conv3x3(hidden, hidden, rng, dtype=dtype)
        self.out = nn.Linear(hidden, 4 * n_classes, rng, dtype=dtype)
        self.n_classes = n_classes
        self.grid_side = grid_side

    def attention(self, pooled: Tensor) -> Tensor:
        """(B, T, D) -> per-timestamp weights (B, T, 1) summing to 1 over T."""
        return softmax(self.score(pooled), axis=1)

    def __call__(self, emb: np.ndarray, pooled: np.ndarray) -> Tensor:
        b, t, g, d = emb.shape
        n = self.grid_side
        alpha = self.attention(Tensor(pooled))
        agg = (Tensor(emb) * alpha.reshape(b, t, 1, 1)).sum(axis=1)   # (B, G, D)
        x = agg.reshape(b, n, n, d).transpose((0, 3, 1, 2))
        x = self.conv1(nn.upsample2x(x)).relu()
        x = self.conv2(nn.upsample2x(x)).relu()
        x = self.out(x.transpose((0, 2, 3, 1)))                        # (B, 4n, 4n, 4K)
        x = x.transpose((0, 3, 1, 2))
        return nn.pixel_shuffle(x, 2)                                  # (B, K, 8n, 8n)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """logits (B, K, H, W) vs integer labels (B, H, W), mean over pixels."""
    ls = log_softmax(logits, axis=1)
    b, _, h, w = logits.shape
    bi = np.arange(b)[:, None, None]
    hi = np.arange(h)[None, :, None]
    wi = np.arange(w)[None, None, :]
    picked = ls[bi, labels.astype(np.int64), hi, wi]
    return -(picked.mean())


# -- shared plumbing -------------------------------------------------------------

def _require_vsf(model: FrameworkModel, task: str) -> None:
    if not uses_forecaster(model.kind):
        raise CompatibilityError(
            f"{task} fine-tuning needs a *-VSF checkpoint, got '{model.kind}'")


def _split_idx(samples: list[Sample], cfg: Config) -> tuple[list[int], list[int]]:
    train, _, test = split(len(samples), (cfg.train_frac, cfg.val_frac, cfg.test_frac),
                           cfg.seed)
    return train, test


def _capped(train: list, test: list, cfg: Config, stream: RngStream, task: str,
            suffix: str = "") -> tuple[list, list]:
    """Train and test items cut to ft_max_train and ft_max_eval (0 keeps
    all), each cut a random subset in the order drawn from
    'ft/<task>/cap/{train,eval}<suffix>'; DomainError when either is empty."""
    def cap(items: list, n: int, split_name: str) -> list:
        if n and len(items) > n:
            label = f"ft/{task}/cap/{split_name}{suffix}"
            return [items[i] for i in stream.generator(label).permutation(len(items))[:n]]
        return items
    train, test = cap(train, cfg.ft_max_train, "train"), cap(test, cfg.ft_max_eval, "eval")
    if not train or not test:
        raise DomainError(f"{task} fine-tune has empty train or eval items")
    return train, test


def weather_states(model: FrameworkModel, samples: list[Sample], idxs, cfg: Config
                   ) -> dict[int, np.ndarray] | None:
    """Frozen weather states (L, D) of each listed sample's whole series, the
    LSTM run once per sample in ft_batch chunks; None for kinds without
    weather. A window's rows of these are bitwise the states of a run over
    the windows themselves, because the recurrence is causal and, at the
    geometries tests/test_numerics.py pins, row-invariant."""
    if model.weather is None:
        return None
    idxs = sorted(set(idxs))
    out = {}
    for lo in range(0, len(idxs), cfg.ft_batch):
        chunk = idxs[lo:lo + cfg.ft_batch]
        spans = sorted({samples[si].weather.shape[0] for si in chunk})
        if len(spans) != 1:
            raise ShapeError(f"mixed weather lengths in one batch: {spans}")
        out.update(zip(chunk, model.frozen_weather(np.stack([samples[si].weather
                                                             for si in chunk]))))
    return out


def _chunked(n: int, cfg: Config, fn) -> tuple[np.ndarray, ...]:
    """Run fn on each ft_batch slice of n items; each array of the tuple it
    returns is concatenated across slices."""
    outs = [fn(slice(lo, lo + cfg.ft_batch)) for lo in range(0, n, cfg.ft_batch)]
    return tuple(np.concatenate(parts) for parts in zip(*outs))


def _frozen_pass(samples: list[Sample], states: dict[int, np.ndarray] | None, rows,
                 length: int, cfg: Config, fn) -> tuple[np.ndarray, ...]:
    """Run fn on each ft_batch chunk of (sample, start) rows.

    fn(images, doys, states, start) gets the chunk's stacked windows of the
    given length, the weather_states of each row's sample (B, L, D) or None,
    and the start DOY they share; it returns a tuple of arrays, and each is
    concatenated across chunks.
    """
    def chunk(take):
        imgs, doys, _, start = stack_windows(samples, rows[take], length)
        h = None if states is None else np.stack([states[si] for si, _ in rows[take]])
        return fn(imgs, doys, h, start)
    return _chunked(len(rows), cfg, chunk)


def _embed_windows(model: FrameworkModel, samples, states, windows, length, cfg,
                   keep=lambda emb: emb) -> np.ndarray:
    """Frozen encode of windows -> keep(Emb_STW) of each chunk, concatenated;
    by default Emb_STW itself (N, T, G, D)."""
    def embed(imgs, doys, h, start):
        return (keep(model.frozen_encode(imgs, doys, h, start).data),)
    return _frozen_pass(samples, states, windows, length, cfg, embed)[0]


def _encode_once(model: FrameworkModel, samples, states, windows, length, cfg,
                 keep) -> tuple[np.ndarray, dict[tuple[int, int], int]]:
    """_embed_windows of each distinct window of the list once, in the order
    first listed, keeping only keep(Emb_STW) per window. Returns that cache
    and each window's row in it. frozen_encode is row-invariant, so a
    window's row is bitwise what any chunk that holds it would give."""
    row: dict[tuple[int, int], int] = {}
    for w in windows:
        row.setdefault(w, len(row))
    return _embed_windows(model, samples, states, list(row), length, cfg, keep), row


def _fit(opt, n: int, epochs: int, cfg: Config, stream: RngStream, label: str,
         task: str, loss_fn: Callable[[np.ndarray], Tensor]) -> list[float]:
    """Train a head on n cached items: each epoch draws its order from
    '<label>/epoch<e>/order' and steps once per ft_batch slice, loss_fn
    mapping the slice's item indices to the batch loss. Returns the mean
    loss of each epoch."""
    losses = []
    for epoch in range(epochs):
        perm = stream.generator(f"{label}/epoch{epoch}/order").permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.ft_batch):
            take = perm[lo:lo + cfg.ft_batch]
            loss = loss_fn(take)
            opt.minimize(loss, f"{task} fine-tuning at epoch {epoch}")
            total += float(loss.data) * len(take)
        losses.append(total / n)
    return losses


def _decoder_mse(decoder, emb: np.ndarray, truth: np.ndarray):
    """Batch loss for _fit: decoded patches of the items' cached embeddings
    against their truth patches."""
    return lambda take: ((decoder(Tensor(emb[take])) - truth[take]) ** 2).mean()


# -- missing-image reconstruction ------------------------------------------------

def corrupt_series(imgs: np.ndarray, patch: int, pct: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blacken patch-aligned blocks covering pct of 2 images per series.

    imgs (B, C, 6, H, H). The corrupted patch set is a contiguous row-major
    run of round(pct * G) patches (at most two rectangles), drawn per image.
    Returns (corrupted copy, corrupted timestamp indices (B, 2), run starts
    (B, 2)). The first timestamp is never corrupted.
    """
    b, c = imgs.shape[:2]
    if c < 3:
        raise DomainError(f"missing-image series needs >= 3 timestamps, got {c}")
    side = imgs.shape[-1]
    g = (side // patch) ** 2
    n_corrupt = round(pct * g)
    if not 0 < n_corrupt <= g:
        raise DomainError(f"corruption fraction {pct} covers {n_corrupt} of {g} patches")
    out = imgs.copy()
    t_hit = np.empty((b, 2), dtype=np.int64)
    runs = np.empty((b, 2), dtype=np.int64)
    for i in range(b):
        t_hit[i] = np.sort(rng.choice(np.arange(1, c), size=2, replace=False))
        for j, t in enumerate(t_hit[i]):
            start = int(rng.integers(0, g - n_corrupt + 1))
            runs[i, j] = start
            patches = patchify(out[i, t], patch)
            patches[start:start + n_corrupt] = 0.0
            out[i, t] = unpatchify(patches, side, patch)
    return out, t_hit, runs


def finetune_missing(model: FrameworkModel, samples: list[Sample], cfg: Config,
                     seed: int) -> FinetuneResult:
    stream = RngStream(seed)
    c = cfg.context_len
    train_s, test_s = _split_idx(samples, cfg)
    tr_windows, te_windows = _capped(windows_of(samples, train_s, c),
                                     windows_of(samples, test_s, c), cfg, stream, "missing")
    states = weather_states(model, samples, [si for si, _ in tr_windows + te_windows], cfg)

    def prepare(windows, label):
        """Embeddings of the corrupted series and clean truth patches at the
        two hit steps of each window, (N, 2, G, D) and (N, 2, G, P)."""
        rng = stream.generator(f"ft/missing/corrupt/{label}")

        def hit(imgs, doys, h, start):
            corrupted, t_hit, _ = corrupt_series(imgs, model.enc.patch, cfg.missing_pct, rng)
            emb = model.frozen_encode(corrupted, doys, h, start).data
            rows = np.arange(len(imgs))[:, None]
            return emb[rows, t_hit], patchify(imgs, model.enc.patch)[rows, t_hit]
        return _frozen_pass(samples, states, windows, c, cfg, hit)

    hit_tr, truth_tr = prepare(tr_windows, "train")
    hit_te, truth_te = prepare(te_windows, "eval")

    model.decoder.reinit(stream.generator("ft/missing/reinit"))
    opt = optim.Adam(model.decoder.named_parameters(), lr=cfg.ft_lr)
    losses = _fit(opt, len(tr_windows), cfg.ft_epochs_missing, cfg, stream, "ft/missing",
                  "missing-image", _decoder_mse(model.decoder, hit_tr, truth_tr))
    with no_grad():
        pred = model.decoder(Tensor(hit_te))
    return FinetuneResult("missing-image", {"mse": mse(pred.data, truth_te)}, losses,
                          model.decoder.state_arrays())


# -- future-image forecasting -----------------------------------------------------

def instance_pools(samples, cfg, stream, task) -> tuple[list[Instance], list[Instance]]:
    """Forecast instances of the train and test splits, capped per split
    with draws labeled by task."""
    train, test = (instances_of(samples, idxs, cfg.context_len, cfg.gap_min, cfg.gap_max)
                   for idxs in _split_idx(samples, cfg))
    return _capped(train, test, cfg, stream, task)


def _windows(insts: list[Instance]) -> list[tuple[int, int]]:
    return [(i.sample_idx, i.start) for i in insts]


def _targets(samples, insts: list[Instance]) -> tuple[np.ndarray, np.ndarray]:
    """Target DOYs and horizons (target DOY minus last context DOY) of instances."""
    return (np.array([int(samples[i.sample_idx].doys[i.target]) for i in insts]),
            np.array([i.delta for i in insts]))


def _instance_pass(model: FrameworkModel, samples, states, insts: list[Instance],
                   cfg: Config, keep, fn) -> tuple[np.ndarray, ...]:
    """Per-instance frozen work over windows encoded once.

    Encodes each distinct window the instances start from once, keeping
    keep(Emb_STW) of each (_encode_once), then runs fn(chunk, kept,
    target_doys, deltas, weather_t) on each ft_batch chunk of instances:
    kept holds the chunk's rows of that cache and weather_t the weather
    state at each target, read from weather_states (None for kinds without
    weather). Each array fn returns is concatenated across chunks.
    """
    cache, row = _encode_once(model, samples, states, _windows(insts), cfg.context_len,
                              cfg, keep)

    def chunk(take):
        part = insts[take]
        tgt_doy, deltas = _targets(samples, part)
        w_t = None
        if states is not None:
            starts = np.array([int(samples[i.sample_idx].start_doy) for i in part])
            w_t = weather_at([states[i.sample_idx] for i in part], tgt_doy - starts)
        kept = cache[[row[(i.sample_idx, i.start)] for i in part]]
        return fn(part, kept, tgt_doy, deltas, w_t)
    return _chunked(len(insts), cfg, chunk)


def forecast_cache(model: FrameworkModel, samples, states, insts: list[Instance],
                   cfg: Config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frozen forecast embeddings for each instance's final (K-step) target,
    given the weather_states of the instances' samples; each window is
    encoded once, and only its last timestep is kept.

    Returns (femb (N, G, D), truth patches (N, G, P), deltas (N,)).
    """
    def forecast(chunk, last, tgt_doy, deltas, w_t):
        tgt_img = np.stack([samples[i.sample_idx].images[i.target] for i in chunk])
        return (model.frozen_forecast(last, w_t, tgt_doy, deltas),
                patchify(tgt_img, model.enc.patch), deltas)
    return _instance_pass(model, samples, states, insts, cfg, lambda emb: emb[:, -1], forecast)


def forecast_mse(decoder, femb: np.ndarray, truth: np.ndarray,
                 deltas: np.ndarray) -> dict[str, float]:
    """Decoded forecast MSE per instance, averaged within gap buckets."""
    with no_grad():
        pred = decoder(Tensor(femb)).data
    return bucket_means(((pred - truth) ** 2).mean(axis=(1, 2)), deltas)


def finetune_future_image(model: FrameworkModel, samples: list[Sample], cfg: Config,
                          seed: int) -> FinetuneResult:
    _require_vsf(model, "future-image")
    stream = RngStream(seed)
    tr, te = instance_pools(samples, cfg, stream, "future")
    states = weather_states(model, samples, [i.sample_idx for i in tr + te], cfg)
    femb_tr, truth_tr, _ = forecast_cache(model, samples, states, tr, cfg)
    femb_te, truth_te, delta_te = forecast_cache(model, samples, states, te, cfg)

    model.decoder.reinit(stream.generator("ft/future/reinit"))
    opt = optim.Adam(model.decoder.named_parameters(), lr=cfg.ft_lr)
    losses = _fit(opt, len(tr), cfg.ft_epochs_future, cfg, stream, "ft/future", "future-image",
                  _decoder_mse(model.decoder, femb_tr, truth_tr))
    buckets = forecast_mse(model.decoder, femb_te, truth_te, delta_te)
    return FinetuneResult("future-image", {f"mse/{k}": v for k, v in buckets.items()},
                          losses, model.decoder.state_arrays())


# -- soil-moisture forecasting ------------------------------------------------------

def _soil_cache(model: FrameworkModel, samples, states, insts: list[Instance], cfg: Config):
    """Frozen constants for the soil head: z_const (N, D), soil context
    series (N, C), targets (N,), deltas (N,). Each window is encoded once,
    and only the patch mean of its last timestep is kept."""
    if any(samples[i.sample_idx].soil is None for i in insts):
        raise DomainError("soil fine-tune needs samples with a soil series")
    c = cfg.context_len

    def constants(chunk, pooled, tgt_doy, deltas, w_t):
        with no_grad():
            z = Tensor(pooled) + model.doy(tgt_doy) + model.delta(deltas)
            if w_t is not None:
                z = z + Tensor(w_t)
        return (z.data,
                np.stack([samples[i.sample_idx].soil[i.start:i.start + c] for i in chunk]),
                np.array([float(samples[i.sample_idx].soil[i.target]) for i in chunk],
                         dtype=np.float32),
                deltas)
    return _instance_pass(model, samples, states, insts, cfg,
                          lambda emb: emb[:, -1].mean(axis=1), constants)


def finetune_soil_forecast(model: FrameworkModel, samples: list[Sample], cfg: Config,
                           seed: int) -> FinetuneResult:
    _require_vsf(model, "soil forecast")
    stream = RngStream(seed)
    tr, te = instance_pools(samples, cfg, stream, "soil")
    states = weather_states(model, samples, [i.sample_idx for i in tr + te], cfg)
    z_tr, soil_tr, y_tr, _ = _soil_cache(model, samples, states, tr, cfg)
    z_te, soil_te, y_te, delta_te = _soil_cache(model, samples, states, te, cfg)

    head = SoilForecastHead(model.enc.hidden, stream.generator("ft/soil/init"))
    opt = optim.adamw(head.named_parameters(), lr=cfg.ft_lr)
    losses = _fit(opt, len(tr), cfg.ft_epochs_soil, cfg, stream, "ft/soil", "soil forecast",
                  lambda take: (head(soil_tr[take], z_tr[take]) - y_tr[take]).abs().mean())
    with no_grad():
        pred = head(soil_te, z_te).data
    buckets = bucket_means(np.abs(pred - y_te), delta_te)
    return FinetuneResult("soil-forecast", {f"mae/{k}": v for k, v in buckets.items()},
                          losses, head.state_arrays())


# -- per-timestamp estimation -----------------------------------------------------

def region_of(sample_idx: int, n_regions: int) -> int:
    """Datasets assign climate regions round-robin by sample index."""
    return sample_idx % n_regions


def finetune_estimate(model: FrameworkModel, samples: list[Sample], cfg: Config,
                      seed: int, protocol: str = "in-region") -> FinetuneResult:
    """In-region: train on the train split, score the test split overall and
    per region. Cross-region: hold each region out in turn, train on the
    rest, and average the held-out scores."""
    if protocol not in ("in-region", "cross-region"):
        raise DomainError(f"unknown estimation protocol '{protocol}'")
    stream = RngStream(seed)
    regions = [region_of(i, cfg.world_regions) for i in range(len(samples))]
    if protocol == "in-region":
        splits = [("in", "", *_split_idx(samples, cfg))]
    else:
        splits = [(f"x{r}", str(r), [i for i, g in enumerate(regions) if g != r],
                   [i for i, g in enumerate(regions) if g == r])
                  for r in range(cfg.world_regions) if r in regions]
        if not splits:
            raise DomainError("cross-region estimation found no populated regions")
    c = cfg.context_len
    folds = []
    for tag, suffix, tr_idx, te_idx in splits:
        folds.append((tag, suffix, *_capped(windows_of(samples, tr_idx, c),
                                            windows_of(samples, te_idx, c),
                                            cfg, stream, "estimate", suffix)))
    windows = [w for *_, tr_w, te_w in folds for w in tr_w + te_w]
    if any(samples[si].soil is None for si, _ in windows):
        raise DomainError("estimation fine-tune needs samples with a soil series")
    states = weather_states(model, samples, [si for si, _ in windows], cfg)
    # every fold's windows encoded once, pooled over patches: (W, C, D)
    pooled, row = _encode_once(model, samples, states, windows, c, cfg,
                               lambda emb: emb.mean(axis=2))

    def gather(ws):
        """Pooled embeddings (N, C, D) and soil truth (N, C) of windows."""
        return (pooled[[row[w] for w in ws]],
                np.stack([samples[si].soil[s:s + c] for si, s in ws]).astype(np.float32))

    metrics: dict[str, float] = {}
    losses: list[float] = []
    for tag, suffix, tr_w, te_w in folds:
        pooled_tr, y_tr = gather(tr_w)
        pooled_te, y_te = gather(te_w)
        head = EstimateHead(model.enc.hidden, stream.generator(f"ft/estimate/{tag}/init"))
        opt = optim.adamw(head.named_parameters(), lr=cfg.ft_lr)
        losses += _fit(opt, len(tr_w), cfg.ft_epochs_estimate, cfg, stream,
                       f"ft/estimate/{tag}", "estimation",
                       lambda take: (head(pooled_tr[take]) - y_tr[take]).abs().mean())
        with no_grad():
            err = np.abs(head(pooled_te).data - y_te)
        if protocol == "cross-region":
            metrics[f"mae/region{suffix}"] = float(err.mean())
            continue
        metrics["mae/all"] = float(err.mean())
        te_regions = np.array([regions[si] for si, _ in te_w])
        for r in sorted(set(te_regions.tolist())):
            metrics[f"mae/region{r}"] = float(err[te_regions == r].mean())
    if protocol == "in-region":
        return FinetuneResult("estimate", metrics, losses, head.state_arrays())
    metrics["mae/all"] = float(np.mean([metrics[f"mae/region{r}"] for _, r, _, _ in folds]))
    return FinetuneResult("estimate-cross", metrics, losses, head.state_arrays())


# -- crop-type mapping ---------------------------------------------------------------

def finetune_crop(model: FrameworkModel, samples: list[Sample], cfg: Config,
                  seed: int) -> FinetuneResult:
    if model.enc.patch != 8:
        raise CompatibilityError(
            f"crop mapping needs patch 8, got patch {model.enc.patch}: the head would "
            f"emit {8 * model.enc.side // model.enc.patch}-pixel maps for "
            f"{model.enc.side}-pixel crop grids")
    stream = RngStream(seed)
    t_ft = cfg.crop_timestamps
    train_s, test_s = _split_idx(samples, cfg)
    for si in train_s + test_s:
        if samples[si].crops is None:
            raise DomainError("crop fine-tune needs samples with crop grids")
    tr_w, te_w = _capped(windows_of(samples, train_s, t_ft), windows_of(samples, test_s, t_ft),
                         cfg, stream, "crop")

    states = weather_states(model, samples, [si for si, _ in tr_w + te_w], cfg)
    emb_tr = _embed_windows(model, samples, states, tr_w, t_ft, cfg)
    emb_te = _embed_windows(model, samples, states, te_w, t_ft, cfg)
    y_tr = np.stack([samples[si].crops for si, _ in tr_w])
    y_te = np.stack([samples[si].crops for si, _ in te_w])

    n_side = model.enc.side // model.enc.patch
    head = CropHead(model.enc.hidden, cfg.crop_classes, n_side,
                    stream.generator("ft/crop/init"))
    opt = optim.Adam(head.named_parameters(), lr=cfg.ft_lr)
    losses = _fit(opt, len(tr_w), cfg.ft_epochs_crop, cfg, stream, "ft/crop", "crop mapping",
                  lambda take: cross_entropy(head(emb_tr[take], emb_tr[take].mean(axis=2)),
                                             y_tr[take]))
    preds = []
    with no_grad():
        for lo in range(0, len(te_w), cfg.ft_batch):
            logits = head(emb_te[lo:lo + cfg.ft_batch],
                          emb_te[lo:lo + cfg.ft_batch].mean(axis=2))
            preds.append(np.argmax(logits.data, axis=1))
    pred = np.concatenate(preds)
    score = macro_f1(pred, y_te, cfg.crop_classes)
    return FinetuneResult("crop-map", {"macro_f1": score}, losses, head.state_arrays())
