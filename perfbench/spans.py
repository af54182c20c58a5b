"""Spans and counters recorded from outside the program.

The tracer wraps public functions and methods of the civsf modules. A
function that callers import by name (``from civsf.fusion import
causal_temporal_encode``) is replaced in every loaded civsf module that holds
it, so each call site sees the wrapper; methods are replaced on their class.
Nothing inside ``src/`` changes, and ``uninstall`` restores every original.

Spans are kept in memory as [name, start, end, parent, stage] and turned into
per-layer figures when the run ends. Stage ``setup`` covers the one set-up of
a run and stage ``round`` its timed rounds; nothing is recorded while the
checks run. A per-layer figure is the cost of one set-up plus one average
round, so runs that fit a different number of rounds stay comparable.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from civsf.datamodel import load_container, save_container
from civsf.encoders import VitEncoder, WeatherEncoder
from civsf.forecast_decode import PatchDecoder, forecast_embed
from civsf.fusion import causal_temporal_encode
from civsf.harness.checkpoint import load_checkpoint, save_checkpoint
from civsf.harness.ppm import write_ppm
from civsf.masking import build_mask
from civsf.numerics.gradcheck import grad_check
from civsf.numerics.optim import Adam
from civsf.numerics.tensor import Tensor
from civsf.synthworld import gen_dataset
from civsf.training.model import FrameworkModel

PHASES = ("1a", "1b", "1c", "2")
FT_TASKS = ("future", "soil", "missing", "estimate", "estimate_cross")
ENCODE_SPANS = ("training.model.encode_weather", "training.model.encode_series")


def _count_tokens(tracer, args, kwargs) -> None:
    b, t, u = args[1].shape[:3]                  # args[0] is the encoder
    tracer.count("encoders.vit.tokens", b * t * u)
    if tracer.phase is not None:
        tracer.count("encoders.vit.pretrain_tokens", b * t * u)


def _count_day_steps(tracer, args, kwargs) -> None:
    weather = args[1]
    steps = kwargs.get("steps")
    days = weather.shape[1] if steps is None else min(steps, weather.shape[1])
    tracer.count("encoders.weather.day_steps", weather.shape[0] * days)


def _count_step(tracer, args, kwargs) -> None:
    if tracer.recording:
        tracer.steps[tracer.phase] += 1


# (function, span name, counter or None); replaced at every lookup site
FUNCTIONS = [
    (grad_check, "numerics.gradcheck", None),
    (causal_temporal_encode, "fusion.temporal", None),
    (forecast_embed, "forecast_decode.forecaster", None),
    (build_mask, "masking.build_mask", None),
    (load_container, "datamodel.load_container", None),
    (save_container, "datamodel.save_container", None),
    (load_checkpoint, "harness.checkpoint.load", None),
    (save_checkpoint, "harness.checkpoint.save", None),
    (write_ppm, "harness.ppm.write", None),
    (gen_dataset, "synthworld.gen_dataset", None),
]
# (class, method, span name, counter or None)
METHODS = [
    (Tensor, "backward", "numerics.tensor.backward", None),
    (Adam, "step", "numerics.optim.step", _count_step),
    (WeatherEncoder, "__call__", "encoders.weather", _count_day_steps),
    (VitEncoder, "__call__", "encoders.vit", _count_tokens),
    (PatchDecoder, "__call__", "forecast_decode.decoder", None),
    (FrameworkModel, "encode_weather", "training.model.encode_weather", None),
    (FrameworkModel, "encode_series", "training.model.encode_series", None),
]
# per-layer metric -> span whose inclusive time it reports
TOTALS = {
    "numerics.tensor.backward_s": "numerics.tensor.backward",
    "numerics.optim.step_s": "numerics.optim.step",
    "encoders.weather.forward_s": "encoders.weather",
    "encoders.vit.forward_s": "encoders.vit",
    "fusion.temporal.forward_s": "fusion.temporal",
    "forecast_decode.forecaster.forward_s": "forecast_decode.forecaster",
    "forecast_decode.decoder.forward_s": "forecast_decode.decoder",
    "masking.build_mask_s": "masking.build_mask",
    "training.model.encode_weather_s": "training.model.encode_weather",
    "datamodel.load_container_s": "datamodel.load_container",
    "datamodel.save_container_s": "datamodel.save_container",
    "harness.checkpoint.load_s": "harness.checkpoint.load",
    "harness.checkpoint.save_s": "harness.checkpoint.save",
    "harness.ppm.write_s": "harness.ppm.write",
    "synthworld.gen_dataset_s": "synthworld.gen_dataset",
}


def replace_everywhere(orig, new) -> list[tuple[object, str, object]]:
    """Point every loaded civsf module attribute that is ``orig`` at ``new``.

    Returns the (module, attribute, old value) triples that undo it.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "civsf" or name.startswith("civsf.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                undo.append((mod, attr, orig))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


class Tracer:
    """Records spans and counts while ``recording`` is true.

    ``phase`` names the pretraining phase whose epoch is running (the
    workload's epoch clock sets it), so that ``Tensor`` constructions and
    optimizer steps are counted per phase.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.recording = False
        self.stage = "setup"
        self.phase: str | None = None
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.constructed: dict[str | None, int] = defaultdict(int)   # per phase
        self.steps: dict[str | None, int] = defaultdict(int)         # per phase
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn, under a span when recording; return (result, seconds)."""
        if not self.recording:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - t0
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1,
               self.stage]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            self.counts[(name + ".calls", self.stage)] += 1
        return out, rec[2] - rec[1]

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.recording:
            self.counts[(name, self.stage)] += amount

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(tracer, args, kwargs)
            return tracer.call(name, fn, *args, **kwargs)[0]

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; call after all civsf modules are imported."""
        if not self.enabled:
            return
        for fn, name, counter in FUNCTIONS:
            self._undo += replace_everywhere(fn, self._wrap(name, fn, counter))
        for cls, attr, name, counter in METHODS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, orig, counter))
            self._undo.append((cls, attr, orig))
        orig_init = Tensor.__init__
        tracer = self
        constructed = self.constructed

        def init(obj, *args, **kwargs):
            if tracer.recording:
                constructed[tracer.phase] += 1
            orig_init(obj, *args, **kwargs)

        Tensor.__init__ = init
        self._undo.append((Tensor, "__init__", orig_init))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- figures -------------------------------------------------------------------

    def pretrain_tokens(self) -> float:
        """ViT tokens fed inside pretraining epochs of the timed rounds."""
        return self.counts[("encoders.vit.pretrain_tokens", "round")]

    def calls(self, name: str) -> float:
        """Calls of span ``name`` recorded in any stage."""
        return sum(v for (n, _), v in self.counts.items() if n == name + ".calls")

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def _self(self, name: str, minus: tuple[str, ...] | None) -> dict[str, float]:
        """Time in spans ``name`` less their direct children (only children
        named in ``minus``, when given), per stage."""
        out: dict[str, float] = defaultdict(float)
        for n, t0, t1, parent, stage in self.spans:
            if n == name:
                out[stage] += t1 - t0
            elif parent >= 0 and self.spans[parent][0] == name \
                    and (minus is None or n in minus):
                out[stage] -= t1 - t0
        return out

    def metrics(self, rounds: int, epochs: dict[str, list[float]] | None = None
                ) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit) for one set-up plus one
        average round; ``epochs`` gives the seconds of each pretraining
        epoch by phase, reported as the median per phase."""
        def per_run(per_stage) -> float:
            return per_stage.get("setup", 0.0) + per_stage.get("round", 0.0) / max(rounds, 1)

        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        evals: dict[str, float] = defaultdict(float)
        for n, t0, t1, parent, stage in self.spans:
            totals[n][stage] += t1 - t0
            if n == "training.model.encode_series" and self._inside(parent, "numerics.gradcheck"):
                evals[stage] += 1
        m: dict[str, tuple[float, str]] = {
            metric: (per_run(totals[span]), "s") for metric, span in TOTALS.items()}
        for phase in PHASES:
            steps = self.steps[phase]
            per_step = self.constructed[phase] / steps if steps else 0.0
            m[f"numerics.tensor.tensors_per_step.{phase}"] = (per_step, "count")
        m["numerics.gradcheck.loss_evals"] = (per_run(evals), "count")
        m["numerics.gradcheck.forward_s"] = (
            per_run(self._self("numerics.gradcheck", ("numerics.tensor.backward",))), "s")
        for counter in ("encoders.weather.day_steps", "encoders.vit.tokens"):
            m[counter] = (per_run({s: v for (n, s), v in self.counts.items() if n == counter}),
                          "count")
        m["training.model.encode_series_s"] = (
            per_run(self._self("training.model.encode_series", None)), "s")
        for phase in PHASES:
            secs = (epochs or {}).get(phase)
            m[f"training.pretrain.epoch_s.{phase}"] = (
                float(np.median(secs)) if secs else 0.0, "s")
        for task in FT_TASKS:
            m[f"training.finetune.{task}.self_s"] = (
                per_run(self._self(f"training.finetune.{task}", ENCODE_SPANS)), "s")
        return m
