"""Mask lattice invariants, brute-forced over every admissible (T, G, ratio)."""

import numpy as np
import pytest

from civsf.errors import DomainError
from civsf.masking import MaskPlan, build_mask, build_weather_mask, render_mask, verify_mask


def admissible_cases(limit: int = 32):
    """Every (T, G, r) with T, G <= limit where r*T and r*G are integers,
    r drawn from the grid k/lcm-style candidates below 1."""
    cases = []
    for t in range(1, limit + 1):
        for g in range(1, limit + 1):
            seen = set()
            # candidate ratios: multiples of 1/T that also divide G evenly
            for k in range(t):
                r = k / t
                if r in seen:
                    continue
                per_row = r * g
                if abs(per_row - round(per_row)) < 1e-9:
                    seen.add(r)
                    cases.append((t, g, r))
    return cases


def test_margins_exact_over_full_lattice():
    rng = np.random.default_rng(0)
    cases = admissible_cases()
    assert len(cases) > 2000  # the sweep is genuinely dense
    for t, g, r in cases:
        plan = build_mask(t, g, r, rng)
        rows = plan.masked.sum(axis=1)
        cols = plan.masked.sum(axis=0)
        assert np.all(rows == round(r * g)), (t, g, r)
        assert np.all(cols == round(r * t)), (t, g, r)
        verify_mask(plan)  # must not raise


def test_fig3_case_counts():
    rng = np.random.default_rng(1)
    plan = build_mask(4, 16, 0.5, rng)
    assert plan.masked.shape == (4, 16)
    assert np.all(plan.masked.sum(axis=1) == 8)   # 8 masked per timestamp
    assert np.all(plan.masked.sum(axis=0) == 2)   # each location loses 2 of 4
    assert plan.unmasked_patches.shape[1] == 8
    assert plan.series_len == 2                    # unmasked series per location


def test_plans_differ_across_draws_but_not_across_reseeds():
    a = build_mask(4, 16, 0.5, np.random.default_rng(7))
    b = build_mask(4, 16, 0.5, np.random.default_rng(7))
    c = build_mask(4, 16, 0.5, np.random.default_rng(8))
    assert np.array_equal(a.masked, b.masked)
    assert not np.array_equal(a.masked, c.masked)


def test_zero_ratio_masks_nothing():
    plan = build_mask(5, 9, 0.0, np.random.default_rng(2))
    assert not plan.masked.any()
    assert plan.series_len == 5
    assert plan.unmasked_patches.shape[1] == 9


@pytest.mark.parametrize("t,g,r", [(3, 4, 0.5), (4, 16, 0.3), (5, 10, 0.25), (7, 8, 0.5)])
def test_indivisible_ratios_rejected(t, g, r):
    with pytest.raises(DomainError):
        build_mask(t, g, r, np.random.default_rng(0))


@pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
def test_ratio_domain_rejected(r):
    with pytest.raises(DomainError):
        build_mask(4, 16, r, np.random.default_rng(0))


def test_degenerate_lattice_rejected():
    with pytest.raises(DomainError):
        build_mask(0, 16, 0.5, np.random.default_rng(0))
    with pytest.raises(DomainError):
        build_mask(4, 0, 0.5, np.random.default_rng(0))


def test_verify_mask_catches_bad_row():
    plan = build_mask(4, 16, 0.5, np.random.default_rng(3))
    plan.masked[0, :] = False  # break a row
    with pytest.raises(DomainError, match="row 0"):
        verify_mask(plan)


def test_verify_mask_catches_bad_column():
    plan = build_mask(4, 16, 0.5, np.random.default_rng(4))
    # swap one cell within a row: row sums survive, one column breaks
    row = plan.masked[0]
    on = int(np.flatnonzero(row)[0])
    off = int(np.flatnonzero(~row)[0])
    plan.masked[0, on] = False
    plan.masked[0, off] = True
    with pytest.raises(DomainError, match="column"):
        verify_mask(plan)


def test_gather_companions_consistent():
    plan = build_mask(6, 9, 1.0 / 3.0, np.random.default_rng(5))
    t, g = plan.masked.shape
    for row in range(t):
        ids = plan.unmasked_patches[row]
        assert np.all(np.diff(ids) > 0)
        assert not plan.masked[row, ids].any()
        for slot, pid in enumerate(ids):
            assert plan.slot_of[row, pid] == slot
    for col in range(g):
        ts = plan.series_times[col]
        assert np.all(np.diff(ts) > 0)  # ascending timestamps per location
        assert not plan.masked[ts, col].any()
        assert np.all(plan.slot_of[ts, col] == plan.series_slots[col])


def test_render_mask_ascii():
    plan = build_mask(4, 16, 0.5, np.random.default_rng(6))
    text = render_mask(plan)
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == 16 for line in lines)
    assert all(line.count("#") == 8 for line in lines)
    assert set(text) <= {"#", ".", "\n"}


def test_mask_plan_constructor_derives_from_masked():
    masked = np.array([[True, False], [False, True]])
    plan = MaskPlan(2, 2, 0.5, masked)
    assert np.array_equal(plan.unmasked_patches, [[1], [0]])
    assert np.array_equal(plan.series_times, [[1], [0]])


def test_weather_mask_counts_and_determinism():
    for length, r in [(365, 0.5), (100, 0.3), (10, 0.25)]:
        m1 = build_weather_mask(length, r, np.random.default_rng(11))
        m2 = build_weather_mask(length, r, np.random.default_rng(11))
        assert m1.sum() == round(r * length)
        assert np.array_equal(m1, m2)
    assert build_weather_mask(50, 0.0, np.random.default_rng(0)).sum() == 0
    with pytest.raises(DomainError):
        build_weather_mask(50, 1.0, np.random.default_rng(0))
