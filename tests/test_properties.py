"""Property tests: mask lattices, window and instance enumeration, and the
fine-tune cap, each against a brute-force statement of what it must hold.

Every property runs derandomized with a bounded number of examples, so the
suite stays deterministic and fast."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from civsf.datamodel import Instance, Sample, instances_of, windows_of
from civsf.errors import DomainError
from civsf.harness.config import Config
from civsf.masking import build_mask, verify_mask
from civsf.numerics import RngStream
from civsf.training.finetune import _capped

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def lattices(draw):
    """(T, G, ratio, seed) with ratio*T and ratio*G both integers."""
    t = draw(st.integers(1, 12))
    a = draw(st.integers(0, t - 1))                  # masked timestamps per patch
    g = draw(st.integers(1, 6)) * (t // gcd(a, t))   # so that a*G/T is whole
    return t, g, a / t, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(lattices())
def test_mask_lattice_margins_and_companions(case):
    t, g, ratio, seed = case
    plan = build_mask(t, g, ratio, np.random.default_rng(seed))
    verify_mask(plan)
    assert plan.masked.shape == (t, g)
    assert (plan.masked.sum(axis=1) == round(ratio * g)).all()
    assert (plan.masked.sum(axis=0) == round(ratio * t)).all()
    for row in range(t):
        assert plan.unmasked_patches[row].tolist() == np.flatnonzero(~plan.masked[row]).tolist()
    for col in range(g):
        times = plan.series_times[col]
        assert times.tolist() == np.flatnonzero(~plan.masked[:, col]).tolist()
        # each series slot points back at this patch in its timestamp's row
        assert (plan.unmasked_patches[times, plan.series_slots[col]] == col).all()


def fake_samples(doy_lists) -> list[Sample]:
    """Samples carrying only what enumeration reads: a step count and DOYs."""
    return [Sample(images=np.zeros((len(d), 6, 1, 1), dtype=np.float32),
                   doys=np.array(d, dtype=np.int64),
                   weather=np.zeros((365, 5), dtype=np.float32), start_doy=1)
            for d in doy_lists]


doy_series = st.lists(st.integers(1, 365), max_size=9, unique=True).map(sorted)
worlds = st.lists(doy_series, min_size=1, max_size=5)


@PROPERTY
@given(worlds, st.data(), st.integers(1, 6))
def test_windows_of_lists_every_full_window(doy_lists, data, length):
    samples = fake_samples(doy_lists)
    idxs = data.draw(st.lists(st.integers(0, len(samples) - 1), max_size=6))
    want = [(si, start) for si in idxs for start in range(len(doy_lists[si]))
            if start + length <= len(doy_lists[si])]
    assert windows_of(samples, idxs, length) == want


@PROPERTY
@given(worlds, st.data(), st.integers(1, 5), st.integers(1, 60), st.integers(0, 120))
def test_instances_of_lists_every_in_range_target(doy_lists, data, c, gap_min, spread):
    samples = fake_samples(doy_lists)
    idxs = data.draw(st.lists(st.integers(0, len(samples) - 1), max_size=6))
    gap_max = gap_min + spread
    want = []
    for si in idxs:
        d = doy_lists[si]
        for start in range(len(d)):
            for target in range(len(d)):
                last = start + c - 1
                if last < len(d) and target > last and gap_min <= d[target] - d[last] <= gap_max:
                    want.append(Instance(si, start, c, target, d[target] - d[last]))
    assert instances_of(samples, idxs, c, gap_min, gap_max) == want


@PROPERTY
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 30), st.integers(0, 30),
       st.sampled_from(["", "0", "3"]), st.integers(0, 1000))
def test_capped_keeps_min_cap_len_in_draw_order(n_tr, n_te, cap_tr, cap_te, suffix, seed):
    cfg = Config(ft_max_train=cap_tr, ft_max_eval=cap_te)
    train, test = [f"tr{i}" for i in range(n_tr)], [f"te{i}" for i in range(n_te)]
    if not n_tr or not n_te:
        with pytest.raises(DomainError, match="empty"):
            _capped(train, test, cfg, RngStream(seed), "soil", suffix)
        return
    tr, te = _capped(train, test, cfg, RngStream(seed), "soil", suffix)
    for items, got, cap, split in ((train, tr, cap_tr, "train"), (test, te, cap_te, "eval")):
        if cap and len(items) > cap:
            order = RngStream(seed).generator(f"ft/soil/cap/{split}{suffix}")
            assert got == [items[i] for i in order.permutation(len(items))[:cap]]
        else:
            assert got == items
        assert len(got) == (min(cap, len(items)) if cap else len(items))
    # the same label draws the same cut
    assert _capped(train, test, cfg, RngStream(seed), "soil", suffix) == (tr, te)
