"""Synthetic weather-driven world generator.

Each location gets a climate (seasonal temperature sinusoid plus AR(1) noise,
AR(1) rectified precipitation, AR(1) winds), a latent surface state
(vegetation, soil bucket, snowpack) stepped daily by that weather, and a crop
layout on patch-aligned 8x8 fields. Images are linear mixtures of fixed
spectral signatures weighted by the state, so with zero sensor noise the
image at DOY d is a deterministic function of weather up to d: the causal
structure the training frameworks are meant to exploit.

Dynamics are intentionally first order and per-pixel independent so a scalar
re-implementation can serve as an exact oracle. Realism is a non-goal.

State arrays are (..., H, W): every location of a dataset steps together as
one (n, H, W) stack, one `step_state` call per day, and each location's
arrays are byte-identical to stepping it alone. Every location still draws
its own streams (climate, weather, crops, image DOYs, initial state, sensor
noise) from its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from civsf.datamodel import Sample, save_container
from civsf.errors import DomainError
from civsf.fileio import write_atomic
from civsf.numerics.rng import RngStream

# band order: B2, B3, B4, B8, B9, B12
SOIL_SIG = np.array([0.16, 0.22, 0.28, 0.34, 0.30, 0.36], dtype=np.float32)
VEG_SIG = np.array([0.04, 0.09, 0.06, 0.52, 0.28, 0.16], dtype=np.float32)
SNOW_SIG = np.array([0.88, 0.84, 0.80, 0.62, 0.40, 0.12], dtype=np.float32)
SNOW_FULL_MM = 20.0

# per crop class: (planting DOY, harvest DOY, growth rate); class 0 is natural
# vegetation, active all year. Planting < harvest is asserted at import time.
PHENOLOGY = np.array([
    (0, 366, 0.005),
    (60, 180, 0.010),
    (90, 230, 0.012),
    (120, 270, 0.008),
    (150, 300, 0.015),
], dtype=np.float64)
assert np.all(PHENOLOGY[:, 0] < PHENOLOGY[:, 1])

# region base climates: (t_mean, t_amp, t_phase, precip rate, wind_u, wind_v)
REGIONS = np.array([
    (8.0, 12.0, 100.0, 4.0, 2.0, 0.5),
    (-2.0, 15.0, 105.0, 3.0, 4.0, -1.0),
    (16.0, 8.0, 95.0, 1.5, 1.0, 0.2),
    (18.0, 6.0, 110.0, 5.0, -1.5, 1.0),
    (5.0, 18.0, 100.0, 2.5, 3.0, -2.0),
    (11.0, 7.0, 90.0, 4.5, -2.0, 0.8),
], dtype=np.float64)


@dataclass
class WorldConfig:
    side: int = 32
    field_px: int = 8
    n_regions: int = 6
    crop_classes: int = 5
    days: int = 365
    gap_min: int = 3
    gap_max: int = 15
    k_s: float = 0.05          # bucket leak per day
    k_p: float = 0.02          # bucket fill per mm precipitation
    t_base: float = 5.0        # growing-degree base, deg C
    melt: float = 0.1          # snow melt per degree-day, mm
    frost_kill: float = 0.2    # vegetation fraction lost per frost day
    dormancy: float = 0.01     # vegetation decay per cold day
    sigma: float = 0.01        # sensor noise, fraction of dynamic range

    def describe(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines)


@dataclass
class ClimateParams:
    t_mean: float
    t_amp: float
    t_phase: float
    t_spread: float        # half-gap between tmin and tmax
    t_ar: float
    t_noise: float
    p_rate: float          # mm scale of rectified precipitation
    p_ar: float
    p_noise: float
    wind_u: float
    wind_v: float
    w_ar: float
    w_noise: float


@dataclass
class LatentState:
    veg: np.ndarray     # (..., H, W) in [0, 1]
    soil: np.ndarray    # (..., H, W) in [0, 1]
    snow: np.ndarray    # (..., H, W) mm, >= 0


@dataclass
class CropField:
    classes: np.ndarray         # (..., H, W) uint8 class map, constant per field
    plant: np.ndarray           # (..., H, W) planting DOY per pixel
    harvest: np.ndarray         # (..., H, W) harvest DOY per pixel
    rate: np.ndarray            # (..., H, W) growth rate per pixel


def _stack(parts: list):
    """One dataclass of (n, ...) arrays from n dataclasses of arrays."""
    cls = type(parts[0])
    return cls(*(np.stack([getattr(p, f.name) for p in parts]) for f in fields(cls)))


def draw_climate(region: int, rng: np.random.Generator) -> ClimateParams:
    """Region base plus per-location jitter; the jitter is what makes weather
    informative beyond DOY alone."""
    base = REGIONS[region % len(REGIONS)]
    return ClimateParams(
        t_mean=float(base[0] + rng.uniform(-3.0, 3.0)),
        t_amp=float(max(0.0, base[1] + rng.uniform(-2.0, 2.0))),
        t_phase=float(base[2] + rng.uniform(-15.0, 15.0)),
        t_spread=float(rng.uniform(2.0, 5.0)),
        t_ar=0.8,
        t_noise=2.5,
        p_rate=float(base[3] * rng.uniform(0.5, 1.5)),
        p_ar=0.92,
        p_noise=0.5,
        wind_u=float(base[4] + rng.uniform(-1.0, 1.0)),
        wind_v=float(base[5] + rng.uniform(-1.0, 1.0)),
        w_ar=0.7,
        w_noise=1.2,
    )


def gen_weather(params: ClimateParams, days: int, rng: np.random.Generator) -> np.ndarray:
    """Daily (tmin, tmax, precip, wind_u, wind_v) for DOYs 1..days."""
    return _gen_weathers([params], days, [rng])[0]


def _gen_weathers(params: list[ClimateParams], days: int,
                  rngs: list[np.random.Generator]) -> np.ndarray:
    """(n, days, 5) weather of n locations, each from its own generator; the
    AR recursions of all locations advance together."""
    if days < 1:
        raise DomainError(f"weather series needs days >= 1, got {days}")
    if not all(-1.0 < p.t_ar < 1.0 and -1.0 < p.p_ar < 1.0 for p in params):
        raise DomainError("AR coefficients must lie in (-1, 1)")

    def column(name: str) -> np.ndarray:
        return np.array([getattr(p, name) for p in params], dtype=np.float64)[:, None]

    doy = np.arange(1, days + 1, dtype=np.float64)
    seasonal = column("t_mean") + column("t_amp") * np.sin(
        2.0 * np.pi * (doy - column("t_phase")) / 365.0)

    # per location: days draws each of e_t, e_p, e_u, e_v, in that order
    shocks = np.stack([np.stack([rng.normal(0.0, p.t_noise, size=days),
                                 rng.normal(0.0, p.p_noise, size=days),
                                 rng.normal(0.0, p.w_noise, size=days),
                                 rng.normal(0.0, p.w_noise, size=days)], axis=1)
                       for p, rng in zip(params, rngs)])          # (n, days, 4)
    ar = np.array([(p.t_ar, p.p_ar, p.w_ar, p.w_ar) for p in params])  # (n, 4)
    latent = np.empty_like(shocks)
    prev = np.zeros_like(ar)
    for d in range(days):
        prev = ar * prev + shocks[:, d]
        latent[:, d] = prev
    t_noise, p_latent, wu, wv = np.moveaxis(latent, 2, 0)

    tavg = seasonal + t_noise
    tmin = tavg - column("t_spread")
    tmax = tavg + column("t_spread")
    precip = column("p_rate") * np.maximum(0.0, p_latent)
    out = np.stack([tmin, tmax, precip,
                    column("wind_u") + wu, column("wind_v") + wv], axis=2)
    return out.astype(np.float32)


def init_state(side: int, rng: np.random.Generator) -> LatentState:
    veg = rng.uniform(0.02, 0.10, size=(side, side))
    return LatentState(veg=veg,
                       soil=np.full((side, side), 0.3, dtype=np.float64),
                       snow=np.zeros((side, side), dtype=np.float64))


def _pos(x: np.ndarray) -> np.ndarray:
    """Python's max(0.0, x) elementwise: x where x > 0, else +0.0."""
    return np.where(x > 0.0, x, 0.0)


def step_state(state: LatentState, wx_day: np.ndarray, doy: int,
               world: WorldConfig, crops: CropField) -> LatentState:
    """One day of dynamics for states (..., H, W) under weather (..., 5).
    Updates apply in order: the soil bucket first, then vegetation reads the
    updated soil, then snow. Each pixel takes the same float64 operations in
    the same order whatever the leading shape, so a stack of locations steps
    to the bytes each would reach alone."""
    tmin, tmax, precip = (np.asarray(wx_day[..., k], dtype=np.float64)[..., None, None]
                          for k in range(3))
    tavg = 0.5 * (tmin + tmax)

    soil = np.clip((1.0 - world.k_s) * state.soil + world.k_p * precip, 0.0, 1.0)

    gdd = _pos(tavg - world.t_base)
    active = (crops.plant <= doy) & (doy < crops.harvest)
    growth = crops.rate * gdd * soil * (1.0 - state.veg) * active
    frost = np.where(tavg < -2.0, world.frost_kill * state.veg, 0.0)
    dormancy = np.where(gdd == 0.0, world.dormancy * state.veg, 0.0)
    harvest_drop = 0.95 * state.veg * (doy == crops.harvest)
    veg = np.clip(state.veg + growth - frost - dormancy - harvest_drop, 0.0, 1.0)

    snow = np.maximum(0.0, state.snow + precip * (tavg < 0.0) - world.melt * _pos(tavg))
    return LatentState(veg=veg, soil=soil, snow=snow)


def render_image(state: LatentState, sigma: float,
                 rngs: list[np.random.Generator] | None) -> np.ndarray:
    """Images (..., 6, H, W) of states (..., H, W): linear spectral mixing
    weighted by (1 - v - w_n, v, w_n), then sensor noise and a clip to
    [0, 1]. With sigma > 0, rngs holds one generator per image, in the order
    of the state's leading axes, and each image draws its noise from its own."""
    w_snow = np.minimum(1.0, state.snow / SNOW_FULL_MM)
    w_soil = 1.0 - state.veg - w_snow
    img = (w_soil[..., None, :, :] * SOIL_SIG[:, None, None]
           + state.veg[..., None, :, :] * VEG_SIG[:, None, None]
           + w_snow[..., None, :, :] * SNOW_SIG[:, None, None])
    if sigma > 0.0 and rngs is not None:
        noise = [rng.normal(0.0, sigma, size=img.shape[-3:]) for rng in rngs]
        img = img + np.reshape(noise, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def draw_crops(world: WorldConfig, rng: np.random.Generator) -> CropField:
    n_fields = world.side // world.field_px
    cells = rng.integers(0, world.crop_classes, size=(n_fields, n_fields))
    classes = np.repeat(np.repeat(cells, world.field_px, axis=0), world.field_px, axis=1)
    phen = PHENOLOGY[classes]
    return CropField(classes=classes.astype(np.uint8),
                     plant=phen[..., 0], harvest=phen[..., 1], rate=phen[..., 2])


def draw_image_doys(world: WorldConfig, rng: np.random.Generator) -> np.ndarray:
    if world.gap_min < 1 or world.gap_max < world.gap_min:
        raise DomainError(f"image gaps need 1 <= gap_min <= gap_max, "
                          f"got gap_min {world.gap_min}, gap_max {world.gap_max}")
    doys = []
    d = int(rng.integers(world.gap_min, world.gap_max + 1))
    while d <= world.days:
        doys.append(d)
        d += int(rng.integers(world.gap_min, world.gap_max + 1))
    return np.array(doys, dtype=np.int64)


def _simulate(world: WorldConfig, seeds: list[int], regions: list[int]) -> list[Sample]:
    """Simulate one location per seed for a year, all stepped together as one
    (n, H, W) state, and sample each one's image series on its own DOYs."""
    streams = [RngStream(seed) for seed in seeds]
    climates = [draw_climate(region, s.generator("climate"))
                for s, region in zip(streams, regions)]
    weather = _gen_weathers(climates, world.days, [s.generator("weather") for s in streams])
    crops = _stack([draw_crops(world, s.generator("crops")) for s in streams])
    doys = [draw_image_doys(world, s.generator("doys")) for s in streams]
    state = _stack([init_state(world.side, s.generator("init")) for s in streams])
    sensors = [s.generator("sensor") for s in streams]

    images = [np.empty((len(d), 6, world.side, world.side), dtype=np.float32) for d in doys]
    soil = [np.empty(len(d), dtype=np.float32) for d in doys]
    shoots: dict[int, list[tuple[int, int]]] = {}     # day -> [(location, image index)]
    for loc, loc_doys in enumerate(doys):
        for i, day in enumerate(loc_doys):
            shoots.setdefault(int(day), []).append((loc, i))
    for day in range(1, world.days + 1):
        state = step_state(state, weather[:, day - 1], day, world, crops)
        today = shoots.get(day)
        if today:
            locs = [loc for loc, _ in today]
            frames = render_image(LatentState(state.veg[locs], state.soil[locs], state.snow[locs]),
                                  world.sigma, [sensors[loc] for loc in locs])
            for (loc, i), frame in zip(today, frames):
                images[loc][i] = frame
                # one (H, W) mean per location sums in the order a lone location's does
                soil[loc][i] = np.float32(state.soil[loc].mean())
    return [Sample(images=images[k], doys=doys[k], weather=weather[k], start_doy=1,
                   soil=soil[k], crops=crops.classes[k], region=regions[k])
            for k in range(len(seeds))]


def gen_location(world: WorldConfig, seed: int, region: int) -> Sample:
    """Simulate one location for a year and sample its image series."""
    return _simulate(world, [seed], [region])[0]


def gen_dataset(n: int, world: WorldConfig, seed: int,
                path: str | None = None, config_note: str = "") -> list[Sample]:
    """Generate n locations (region = index mod n_regions), stepped together.
    When path is set, writes the container plus a plain-text sidecar listing
    world constants."""
    if n < 1:
        raise DomainError(f"dataset needs n >= 1, got {n}")
    if world.n_regions < 1:
        raise DomainError(f"dataset needs n_regions >= 1, got {world.n_regions}")
    stream = RngStream(seed)
    samples = _simulate(world, [stream.child_seed(f"location/{i}") for i in range(n)],
                        [i % world.n_regions for i in range(n)])
    if path is not None:
        save_container(path, samples)
        note = f"{config_note}\n" if config_note else ""
        write_atomic(path + ".world.txt",
                     (f"samples = {n}\nseed = {seed}\nregion_rule = index mod n_regions\n"
                      f"{world.describe()}\n{note}").encode("utf-8"))
    return samples
