"""World generator tests.

The centerpiece is an independently written scalar simulator: the package
steps (..., H, W) state arrays, the oracle steps plain floats for a single
pixel. Agreement to float64 tolerance over a full year is strong evidence the
vectorized dynamics are what the scalar laws say they are. Byte-level tests
then pin that a stack of locations steps exactly as each location alone, and
that generated worlds keep their bytes.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from civsf.datamodel import validate
from civsf.errors import DomainError
from civsf.numerics.rng import RngStream
from civsf.synthworld import (
    PHENOLOGY,
    SNOW_FULL_MM,
    SOIL_SIG,
    SNOW_SIG,
    VEG_SIG,
    CropField,
    LatentState,
    WorldConfig,
    draw_climate,
    draw_crops,
    draw_image_doys,
    gen_dataset,
    gen_location,
    gen_weather,
    init_state,
    render_image,
    step_state,
)


def scalar_year(world, weather, veg0, crop_class):
    """Plain-float re-implementation of the daily dynamics for one pixel."""
    plant, harvest, rate = PHENOLOGY[crop_class]
    veg, soil, snow = veg0, 0.3, 0.0
    trajectory = []
    for day in range(1, world.days + 1):
        tmin, tmax, precip = (float(weather[day - 1, 0]), float(weather[day - 1, 1]),
                              float(weather[day - 1, 2]))
        tavg = 0.5 * (tmin + tmax)
        soil = min(1.0, max(0.0, (1.0 - world.k_s) * soil + world.k_p * precip))
        gdd = max(0.0, tavg - world.t_base)
        active = 1.0 if (plant <= day < harvest) else 0.0
        growth = rate * gdd * soil * (1.0 - veg) * active
        frost = world.frost_kill * veg if tavg < -2.0 else 0.0
        dorm = world.dormancy * veg if gdd == 0.0 else 0.0
        drop = 0.95 * veg if day == harvest else 0.0
        veg = min(1.0, max(0.0, veg + growth - frost - dorm - drop))
        snow = max(0.0, snow + (precip if tavg < 0.0 else 0.0) - world.melt * max(0.0, tavg))
        trajectory.append((veg, soil, snow))
    return trajectory


def test_dynamics_match_scalar_oracle():
    world = WorldConfig(side=8, sigma=0.0)
    stream = RngStream(42)
    climate = draw_climate(1, stream.generator("climate"))
    weather = gen_weather(climate, world.days, stream.generator("weather"))
    crops = draw_crops(world, stream.generator("crops"))
    state = init_state(world.side, stream.generator("init"))

    px = (3, 5)
    want = scalar_year(world, weather, float(state.veg[px]), int(crops.classes[px]))
    for day in range(1, world.days + 1):
        state = step_state(state, weather[day - 1], day, world, crops)
        veg, soil, snow = want[day - 1]
        assert abs(float(state.veg[px]) - veg) < 1e-6, f"veg day {day}"
        assert abs(float(state.soil[px]) - soil) < 1e-6, f"soil day {day}"
        assert abs(float(state.snow[px]) - snow) < 1e-6, f"snow day {day}"


def test_weather_invariants():
    stream = RngStream(7)
    for region in range(6):
        climate = draw_climate(region, stream.generator(f"c{region}"))
        wx = gen_weather(climate, 365, stream.generator(f"w{region}"))
        assert wx.shape == (365, 5)
        assert wx.dtype == np.float32
        assert np.all(wx[:, 0] <= wx[:, 1])   # tmin <= tmax every day
        assert np.all(wx[:, 2] >= 0)          # nonnegative precipitation
        assert np.all(np.isfinite(wx))


def test_weather_rejects_bad_args():
    climate = draw_climate(0, np.random.default_rng(0))
    with pytest.raises(DomainError):
        gen_weather(climate, 0, np.random.default_rng(0))
    climate.t_ar = 1.5
    with pytest.raises(DomainError):
        gen_weather(climate, 10, np.random.default_rng(0))


def test_render_image_is_exact_mixture_at_sigma_zero():
    world = WorldConfig(side=4, sigma=0.0)
    state = init_state(4, np.random.default_rng(1))
    state.snow[:] = 10.0  # half snow cover weight
    img = render_image(state, 0.0, None)
    w_snow = min(1.0, 10.0 / SNOW_FULL_MM)
    px = (2, 2)
    veg = float(state.veg[px])
    want = ((1.0 - veg - w_snow) * SOIL_SIG + veg * VEG_SIG + w_snow * SNOW_SIG)
    assert np.allclose(img[:, 2, 2], np.clip(want, 0, 1), atol=1e-6)
    assert img.dtype == np.float32
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_causal_faithfulness_at_sigma_zero():
    """With no sensor noise, images are a pure function of weather history:
    same weather (and same deterministic crops/init) => identical images;
    a drought before a shoot date changes that image, days before it do not."""
    world = WorldConfig(side=8, sigma=0.0)
    s1 = gen_location(world, seed=11, region=0)
    s2 = gen_location(world, seed=11, region=0)
    assert np.array_equal(s1.images, s2.images)

    stream = RngStream(11)
    climate = draw_climate(0, stream.generator("climate"))
    weather = gen_weather(climate, world.days, stream.generator("weather"))
    crops = draw_crops(world, stream.generator("crops"))

    def run(wx):
        state = init_state(world.side, RngStream(11).generator("init"))
        frames = {}
        for day in range(1, world.days + 1):
            state = step_state(state, wx[day - 1], day, world, crops)
            frames[day] = render_image(state, 0.0, None)
        return frames

    base = run(weather)
    mid = int(s1.doys[len(s1.doys) // 2])  # a mid-season shoot date
    dry = weather.copy()
    dry[mid - 15:mid - 1, 2] = 0.0  # two rainless weeks drain the soil bucket
    after = run(dry)
    assert np.array_equal(base[mid - 16], after[mid - 16])     # pre-drought unchanged
    assert not np.array_equal(base[mid], after[mid])           # post-drought responds


def test_image_doys_respect_gap_bounds():
    world = WorldConfig(gap_min=3, gap_max=15)
    for seed in range(5):
        doys = draw_image_doys(world, np.random.default_rng(seed))
        assert doys[0] >= world.gap_min
        gaps = np.diff(doys)
        assert np.all(gaps >= world.gap_min) and np.all(gaps <= world.gap_max)
        assert doys[-1] <= world.days


def test_gen_location_is_valid_and_soil_matches_state_mean():
    world = WorldConfig(side=16, sigma=0.01)
    s = gen_location(world, seed=3, region=2)
    assert validate(s) == []
    assert s.region == 2
    assert s.soil is not None and s.crops is not None
    assert s.start_doy == 1
    # soil series equals the bucket value at shoot dates (uniform state):
    # re-simulate and compare
    stream = RngStream(3)
    climate = draw_climate(2, stream.generator("climate"))
    weather = gen_weather(climate, world.days, stream.generator("weather"))
    crops = draw_crops(world, stream.generator("crops"))
    state = init_state(world.side, stream.generator("init"))
    shoot = {int(d): i for i, d in enumerate(s.doys)}
    for day in range(1, world.days + 1):
        state = step_state(state, weather[day - 1], day, world, crops)
        i = shoot.get(day)
        if i is not None:
            assert s.soil[i] == np.float32(state.soil.mean())


def test_soil_is_spatially_uniform():
    world = WorldConfig(side=8, sigma=0.0)
    stream = RngStream(9)
    crops = draw_crops(world, stream.generator("crops"))
    climate = draw_climate(0, stream.generator("climate"))
    weather = gen_weather(climate, 60, stream.generator("weather"))
    state = init_state(8, stream.generator("init"))
    for day in range(1, 61):
        state = step_state(state, weather[day - 1], day, world, crops)
        assert float(state.soil.max() - state.soil.min()) == 0.0


def test_crops_are_field_aligned():
    world = WorldConfig(side=32, field_px=8)
    crops = draw_crops(world, np.random.default_rng(4))
    assert crops.classes.shape == (32, 32)
    for fi in range(4):
        for fj in range(4):
            block = crops.classes[fi * 8:(fi + 1) * 8, fj * 8:(fj + 1) * 8]
            assert block.min() == block.max()


def test_gen_dataset_regions_and_sidecar(tmp_path):
    world = WorldConfig(side=8, n_regions=3)
    path = str(tmp_path / "w.civ")
    samples = gen_dataset(7, world, seed=1, path=path, config_note="note = 1")
    assert [s.region for s in samples] == [0, 1, 2, 0, 1, 2, 0]
    sidecar = open(path + ".world.txt").read()
    assert "region_rule = index mod n_regions" in sidecar
    assert "note = 1" in sidecar
    from civsf.datamodel import load_container
    assert len(load_container(path)) == 7


def test_gen_dataset_deterministic():
    world = WorldConfig(side=8)
    a = gen_dataset(3, world, seed=5)
    b = gen_dataset(3, world, seed=5)
    for s, t in zip(a, b):
        assert np.array_equal(s.images, t.images)
        assert np.array_equal(s.weather, t.weather)
    with pytest.raises(DomainError):
        gen_dataset(0, world, seed=5)


def test_sigma_zero_and_nonzero_differ_only_by_noise():
    world0 = WorldConfig(side=8, sigma=0.0)
    world1 = WorldConfig(side=8, sigma=0.05)
    a = gen_location(world0, seed=6, region=0)
    b = gen_location(world1, seed=6, region=0)
    assert np.array_equal(a.doys, b.doys)
    assert np.array_equal(a.weather, b.weather)
    diff = np.abs(a.images.astype(np.float64) - b.images.astype(np.float64))
    assert diff.max() > 0
    assert diff.mean() < 0.1  # noise-scale, not structural


def world_digest(samples):
    """sha256 over every array of every sample, with dtypes and shapes."""
    h = hashlib.sha256()
    for s in samples:
        for a in (s.images, s.doys, s.weather, s.soil, s.crops):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(f"{s.start_doy},{s.region}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("n, world, seed, digest", [
    (5, WorldConfig(side=8, sigma=0.0, n_regions=3), 17,
     "bb77897f1276b9ab66f4a12024b12a536f47b7f2902ccce3d675eba485e618c7"),
    (4, WorldConfig(side=16, sigma=0.01, gap_min=8, gap_max=25), 23,
     "07f98e92e359f3cd083d5073fe276f27695cf6b61c29d1c3bd127f9d6369e863"),
])
def test_gen_dataset_bytes_are_pinned(n, world, seed, digest):
    """Digests taken when every location was stepped on its own, one
    step_state call per location per day; stepping them together keeps them."""
    assert world_digest(gen_dataset(n, world, seed)) == digest


def test_gen_dataset_rows_equal_gen_location():
    world = WorldConfig(side=16, sigma=0.01, gap_min=8, gap_max=25, n_regions=3)
    samples = gen_dataset(5, world, seed=23)
    stream = RngStream(23)
    for i, s in enumerate(samples):
        alone = gen_location(world, stream.child_seed(f"location/{i}"), i % world.n_regions)
        assert world_digest([s]) == world_digest([alone]), f"location {i}"


def stack_of(parts):
    cls = type(parts[0])
    return cls(*(np.stack([getattr(p, f.name) for p in parts]) for f in fields(cls)))


def test_stacked_stepping_equals_one_at_a_time():
    """A year of one step_state call on an (n, H, W) stack gives, every day,
    the bytes of n calls on (H, W) states, through frost, dormancy, snow and
    harvest days (regions 1 and 4 are the cold ones)."""
    world = WorldConfig(side=16, sigma=0.0)
    stream = RngStream(12)
    regions = [0, 1, 2, 3, 4, 5, 1, 4]
    weathers = [gen_weather(draw_climate(r, stream.generator(f"climate/{k}")), world.days,
                            stream.generator(f"weather/{k}")) for k, r in enumerate(regions)]
    crop_fields = [draw_crops(world, stream.generator(f"crops/{k}")) for k in range(len(regions))]
    alone = [init_state(world.side, stream.generator(f"init/{k}")) for k in range(len(regions))]
    weather, crops, stacked = np.stack(weathers), stack_of(crop_fields), stack_of(alone)
    assert isinstance(crops, CropField) and isinstance(stacked, LatentState)

    seen = dict(frost=0, dormancy=0, snow=0, harvest=0)
    for day in range(1, world.days + 1):
        stacked = step_state(stacked, weather[:, day - 1], day, world, crops)
        for k in range(len(regions)):
            alone[k] = step_state(alone[k], weathers[k][day - 1], day, world, crop_fields[k])
            for f in fields(LatentState):
                got, want = getattr(stacked, f.name)[k], getattr(alone[k], f.name)
                assert got.tobytes() == want.tobytes(), f"{f.name}, day {day}, location {k}"
        tavg = 0.5 * (weather[:, day - 1, 0].astype(np.float64) + weather[:, day - 1, 1])
        seen["frost"] += int(np.sum(tavg < -2.0))
        seen["dormancy"] += int(np.sum(tavg <= world.t_base))
        seen["snow"] += int(np.sum(stacked.snow > 0.0))
        seen["harvest"] += int(np.sum(crops.harvest == day))
    assert all(count > 0 for count in seen.values()), seen


def test_bad_world_settings_raise_domain_error():
    rng = np.random.default_rng(0)
    # (0, 0) comes last: without the check it would never return
    for gap_min, gap_max in ((5, 3), (0, 5), (0, 0)):
        with pytest.raises(DomainError, match="gap_min"):
            draw_image_doys(WorldConfig(gap_min=gap_min, gap_max=gap_max), rng)
    assert draw_image_doys(WorldConfig(gap_min=7, gap_max=7), rng).tolist() == \
        list(range(7, 366, 7))
    with pytest.raises(DomainError, match="n_regions"):
        gen_dataset(2, WorldConfig(side=8, n_regions=0), seed=5)
