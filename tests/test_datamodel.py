"""Container roundtrips, instance enumeration, and split properties."""

import numpy as np
import pytest

from civsf.datamodel import (
    Instance,
    Sample,
    build_instances,
    context_windows,
    load_container,
    save_container,
    split,
    stack_windows,
    validate,
)
from civsf.errors import ConfigError, DataFormatError, DomainError, ShapeError


def make_sample(t=4, side=16, length=120, start_doy=1, soil=True, crops=True,
                seed=0) -> Sample:
    rng = np.random.default_rng(seed)
    doys = np.sort(rng.choice(np.arange(start_doy, start_doy + length), size=t,
                              replace=False)).astype(np.int64)
    tmin = rng.uniform(-5, 10, length)
    wx = np.stack([tmin, tmin + rng.uniform(1, 8, length),
                   rng.uniform(0, 5, length), rng.normal(0, 2, length),
                   rng.normal(0, 2, length)], axis=1).astype(np.float32)
    return Sample(
        images=rng.uniform(0, 1, (t, 6, side, side)).astype(np.float32),
        doys=doys,
        weather=wx,
        start_doy=start_doy,
        soil=rng.uniform(0, 1, t).astype(np.float32) if soil else None,
        crops=rng.integers(0, 5, (side, side)).astype(np.uint8) if crops else None,
    )


# -- validation -------------------------------------------------------------------


def test_generated_sample_is_valid():
    assert validate(make_sample()) == []


def test_validate_flags_unsorted_doys():
    s = make_sample()
    s.doys = s.doys[::-1].copy()
    assert any("increasing" in p for p in validate(s))


def test_validate_flags_out_of_range_pixels():
    s = make_sample()
    s.images[0, 0, 0, 0] = 1.5
    assert any("outside [0, 1]" in p for p in validate(s))


def test_validate_flags_tmin_above_tmax():
    s = make_sample()
    s.weather[3, 0] = s.weather[3, 1] + 1.0
    assert any("tmin" in p for p in validate(s))


def test_validate_flags_uncovered_doys():
    s = make_sample(length=30)
    s.doys[-1] = 200
    assert any("covered" in p for p in validate(s))


# -- container I/O ----------------------------------------------------------------


def test_container_roundtrip_exact(tmp_path):
    samples = [make_sample(seed=i, t=3 + i, soil=(i % 2 == 0), crops=(i < 2))
               for i in range(3)]
    path = str(tmp_path / "d.civ")
    n = save_container(path, samples)
    assert n == (tmp_path / "d.civ").stat().st_size
    back = load_container(path)
    assert len(back) == 3
    for a, b in zip(samples, back):
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.doys, b.doys)
        assert np.array_equal(a.weather, b.weather)
        assert a.start_doy == b.start_doy
        if a.soil is None:
            assert b.soil is None
        else:
            assert np.array_equal(a.soil, b.soil)
        if a.crops is None:
            assert b.crops is None
        else:
            assert np.array_equal(a.crops, b.crops)


def test_save_load_save_is_byte_identical(tmp_path):
    samples = [make_sample(seed=5)]
    p1, p2 = str(tmp_path / "a.civ"), str(tmp_path / "b.civ")
    save_container(p1, samples)
    save_container(p2, load_container(p1))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_container_starts_with_magic(tmp_path):
    path = str(tmp_path / "d.civ")
    save_container(path, [make_sample()])
    assert open(path, "rb").read(8) == b"CIVSFDS1"


def test_bad_magic_reports_offset_zero(tmp_path):
    path = str(tmp_path / "bad.civ")
    with open(path, "wb") as fh:
        fh.write(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(DataFormatError) as err:
        load_container(path)
    assert err.value.offset == 0


def test_truncation_reports_offset(tmp_path):
    path = str(tmp_path / "d.civ")
    save_container(path, [make_sample()])
    blob = open(path, "rb").read()
    cut = len(blob) // 2
    with open(path, "wb") as fh:
        fh.write(blob[:cut])
    with pytest.raises(DataFormatError) as err:
        load_container(path)
    assert err.value.offset is not None
    assert err.value.offset <= cut


def test_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "d.civ")
    save_container(path, [make_sample()])
    with open(path, "ab") as fh:
        fh.write(b"xx")
    with pytest.raises(DataFormatError, match="trailing"):
        load_container(path)


def test_unknown_flag_bits_rejected(tmp_path):
    path = str(tmp_path / "d.civ")
    save_container(path, [make_sample(soil=False, crops=False)])
    blob = bytearray(open(path, "rb").read())
    blob[12 + 8] |= 0b100  # flags byte of sample 0: magic(8) + count(4) + HHHH(8)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(DataFormatError, match="flag"):
        load_container(path)


def test_save_rejects_invalid_sample(tmp_path):
    s = make_sample()
    s.images[0, 0, 0, 0] = np.nan
    with pytest.raises(DomainError, match="sample 0"):
        save_container(str(tmp_path / "d.civ"), [s])


# -- instances ---------------------------------------------------------------------


def test_build_instances_matches_brute_force():
    s = make_sample(t=9, length=200, seed=3)
    c, lo, hi = 3, 5, 60
    got = build_instances(s, 7, c, lo, hi)
    want = []
    for start in range(s.t_steps - c + 1):
        last = start + c - 1
        for j in range(s.t_steps):
            gap = int(s.doys[j] - s.doys[last])
            if j > last and lo <= gap <= hi:
                want.append((7, start, c, j, gap))
    assert [(i.sample_idx, i.start, i.length, i.target, i.delta) for i in got] == want


def test_instances_delta_is_doy_arithmetic():
    s = make_sample(t=6, length=300, seed=4)
    for inst in build_instances(s, 0, 2, 1, 365):
        last = inst.start + inst.length - 1
        assert inst.delta == int(s.doys[inst.target] - s.doys[last])
        assert inst.target > last


def test_instances_respect_gap_bounds():
    s = make_sample(t=8, length=250, seed=5)
    for inst in build_instances(s, 0, 3, 10, 40):
        assert 10 <= inst.delta <= 40


def test_build_instances_rejects_bad_args():
    s = make_sample()
    with pytest.raises(DomainError):
        build_instances(s, 0, 0, 1, 10)
    with pytest.raises(DomainError):
        build_instances(s, 0, 2, 5, 4)
    with pytest.raises(DomainError):
        build_instances(s, 0, 2, 0, 10)


def test_context_windows_counts():
    s = make_sample(t=5)
    assert context_windows(s, 3) == [0, 1, 2]
    assert context_windows(s, 5) == [0]
    assert context_windows(s, 6) == []


def test_stack_windows_gathers_rows_in_order():
    a, b = make_sample(t=5, seed=1), make_sample(t=5, seed=2)
    imgs, doys, wx, start = stack_windows([a, b], [(1, 2), (0, 0), (1, 0)], 3)
    assert imgs.shape == (3, 3, 6, 16, 16) and doys.shape == (3, 3)
    assert wx.shape == (3, 120, 5) and start == 1
    for row, (s, t) in enumerate([(b, 2), (a, 0), (b, 0)]):
        assert np.array_equal(imgs[row], s.images[t:t + 3])
        assert np.array_equal(doys[row], s.doys[t:t + 3])
        assert np.array_equal(wx[row], s.weather)


def test_stack_windows_rejects_mixed_start_and_weather_length():
    with pytest.raises(ShapeError, match="start_doy"):
        stack_windows([make_sample(), make_sample(start_doy=5)], [(0, 0), (1, 0)], 2)
    with pytest.raises(ShapeError, match="weather lengths"):
        stack_windows([make_sample(), make_sample(length=130)], [(0, 0), (1, 0)], 2)


# -- split -------------------------------------------------------------------------


def test_split_partitions_everything():
    train, val, test = split(100, (0.6, 0.2, 0.2), seed=1)
    assert sorted(train + val + test) == list(range(100))
    assert (len(train), len(val), len(test)) == (60, 20, 20)


def test_split_largest_remainder_sizes():
    train, val, test = split(7, (0.6, 0.2, 0.2), seed=2)
    # quotas 4.2/1.4/1.4 -> floor 4/1/1, one leftover goes to the largest remainder
    assert len(train) + len(val) + len(test) == 7
    assert len(train) in (4, 5)


def test_split_is_deterministic_and_seed_sensitive():
    a = split(50, (0.5, 0.25, 0.25), seed=3)
    b = split(50, (0.5, 0.25, 0.25), seed=3)
    c = split(50, (0.5, 0.25, 0.25), seed=4)
    assert a == b
    assert a != c


def test_split_rejects_bad_fractions():
    with pytest.raises(ConfigError):
        split(10, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError):
        split(10, (1.2, -0.1, -0.1), seed=0)


# -- sample accessors ---------------------------------------------------------------


def test_instance_is_hashable_and_frozen():
    i = Instance(0, 1, 3, 5, 20)
    assert hash(i) == hash(Instance(0, 1, 3, 5, 20))
    with pytest.raises(AttributeError):
        i.start = 2
