"""Output checks that follow from the method, never from timings or stored
results. Each returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import math

import numpy as np

GRADCHECK_TOL = 1e-4


def losses_fall(records) -> list[str]:
    """Every epoch loss is finite and each phase ends below where it began.

    records: (phase, loss) pairs of one training run, in epoch order.
    """
    problems = []
    by_phase: dict[str, list[float]] = {}
    for phase, loss in records:
        if not math.isfinite(loss):
            problems.append(f"phase {phase}: non-finite loss {loss}")
        by_phase.setdefault(phase, []).append(loss)
    for phase, losses in by_phase.items():
        if len(losses) < 2:
            problems.append(f"phase {phase}: {len(losses)} epoch, cannot see the loss fall")
        elif not losses[-1] < losses[0]:
            problems.append(f"phase {phase}: loss {losses[0]:.6g} -> {losses[-1]:.6g} did not fall")
    return problems


def all_finite(name: str, values) -> list[str]:
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        return [f"{name}: no values"]
    if not np.all(np.isfinite(values)):
        return [f"{name}: non-finite value"]
    return []


def causal(base: np.ndarray, moved: np.ndarray, t: int, expect_move: bool,
           what: str) -> list[str]:
    """Embeddings (B, T, ...) after a perturbation of inputs later than
    timestamp t: entries at timestamps <= t must be bitwise equal; entries
    after t must all change when expect_move, else stay bitwise equal."""
    if base.shape != moved.shape:
        return [f"{what}: shape {moved.shape} != {base.shape}"]
    problems = []
    if not np.array_equal(base[:, :t + 1], moved[:, :t + 1]):
        problems.append(f"{what}: embeddings at timestamps <= {t} changed")
    for s in range(t + 1, base.shape[1]):
        same = np.array_equal(base[:, s], moved[:, s])
        if expect_move and same:
            problems.append(f"{what}: embedding at timestamp {s} did not change")
        if not expect_move and not same:
            problems.append(f"{what}: embedding at timestamp {s} changed")
    return problems


def same_arrays(a: dict[str, np.ndarray], b: dict[str, np.ndarray], what: str) -> list[str]:
    """Bitwise equality of two named array sets, dtype and shape included."""
    if sorted(a) != sorted(b):
        return [f"{what}: names differ ({len(a)} vs {len(b)})"]
    bad = [k for k in sorted(a)
           if a[k].dtype != b[k].dtype or a[k].shape != b[k].shape
           or a[k].tobytes() != b[k].tobytes()]
    return [f"{what}: {len(bad)} arrays differ, first '{bad[0]}'"] if bad else []


def ppm_image(blob: bytes, side: int) -> tuple[np.ndarray | None, list[str]]:
    """Parse a binary P6 file of a side x side composite, independently of
    the program's reader: magic, optional comment lines, width, height,
    maxval 255, then exactly side*side*3 payload bytes."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos >= len(blob):
            return None, ["PPM header is truncated"]
        if blob[pos:pos + 1] == b"#":
            end = blob.find(b"\n", pos)
            if end < 0:
                return None, ["PPM comment is not terminated"]
            pos = end + 1
            continue
        end = pos
        while end < len(blob) and not blob[end:end + 1].isspace():
            end += 1
        tokens.append(blob[pos:end])
        pos = end
    pos += 1                                     # one whitespace byte ends the header
    want = [b"P6", str(side).encode(), str(side).encode(), b"255"]
    if tokens != want:
        return None, [f"PPM header {tokens} != {want}"]
    payload = blob[pos:]
    if len(payload) != side * side * 3:
        return None, [f"PPM payload has {len(payload)} bytes, not {side * side * 3}"]
    return np.frombuffer(payload, dtype=np.uint8).reshape(side, side, 3), []


def forecast_blind(base: bytes, other_target: bytes, truth_base: bytes,
                   truth_other: bytes) -> list[str]:
    """Changing the target image changes the written truth composite but not
    one byte of the forecast."""
    problems = []
    if base != other_target:
        problems.append("forecast changed with the target image")
    if truth_base == truth_other:
        problems.append("truth composite did not change with the target image")
    return problems


def forecast_weather(base: bytes, other_weather: bytes, expect_move: bool) -> list[str]:
    """Changing the weather between context end and target changes the
    forecast when the model reads weather, and not one byte when it does not."""
    if expect_move and base == other_weather:
        return ["forecast did not change with the weather between context end and target"]
    if not expect_move and base != other_weather:
        return ["forecast of a model without weather changed with the weather"]
    return []


def beats(name: str, model_err: float, baseline_err: float) -> list[str]:
    """model_err must be below baseline_err."""
    if not (math.isfinite(model_err) and math.isfinite(baseline_err)):
        return [f"{name}: non-finite error {model_err} vs {baseline_err}"]
    if not model_err < baseline_err:
        return [f"{name}: {model_err:.4g} does not beat the baseline {baseline_err:.4g}"]
    return []


def gradcheck_within(seed: int, err: float) -> list[str]:
    if not (math.isfinite(err) and err <= GRADCHECK_TOL):
        return [f"gradcheck seed {seed}: relative error {err:.3e} > {GRADCHECK_TOL:.0e}"]
    return []


def equals(name: str, measured: float, expected: float) -> list[str]:
    if measured != expected:
        return [f"{name}: traced {measured!r}, expected {expected!r}"]
    return []
