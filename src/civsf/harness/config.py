"""Flat run configuration: defaults, file parsing, overrides, hashing.

Config files are plain "key = value" lines ('#' starts a comment). Unknown
keys are rejected. Every run artifact embeds the canonical config text hash
so outputs are traceable to their exact settings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from civsf.errors import ConfigError

FRAMEWORKS = ("sm-mr", "mm-mr", "sm-vsf", "ci-vsf")


@dataclass
class Config:
    # run identity
    framework: str = "ci-vsf"
    seed: int = 0

    # geometry and model size
    side: int = 32
    patch: int = 8
    hidden: int = 64
    vit_depth: int = 2
    vit_heads: int = 4
    temporal_depth: int = 2
    temporal_heads: int = 4
    ff_expansion: int = 2

    # masking
    mask_ratio: float = 0.5
    weather_mask_ratio: float = 0.5

    # instance construction
    context_len: int = 6
    gap_min: int = 1
    gap_max: int = 150
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    # pretraining
    lr: float = 0.0001
    batch_size: int = 128
    seq_batch_size: int = 64
    epochs_1a: int = 20
    epochs_1b: int = 10
    epochs_1c: int = 20
    epochs_2: int = 30
    images_per_epoch: int = 4096
    instances_per_epoch: int = 256
    ckpt_every: int = 0                 # extra checkpoint every N epochs; 0 = phase ends only

    # fine-tuning
    ft_lr: float = 0.0001
    ft_batch: int = 64
    ft_epochs_soil: int = 50
    ft_epochs_estimate: int = 70
    ft_epochs_crop: int = 40
    ft_epochs_missing: int = 30
    ft_epochs_future: int = 10
    ft_max_train: int = 512
    ft_max_eval: int = 256
    missing_pct: float = 0.5
    crop_timestamps: int = 10

    # synthetic world
    world_samples: int = 200
    world_sigma: float = 0.01
    world_gap_min: int = 3
    world_gap_max: int = 15
    world_regions: int = 6
    crop_classes: int = 5

    def __post_init__(self):
        if self.framework not in FRAMEWORKS:
            raise ConfigError(f"unknown framework '{self.framework}', expected one of {FRAMEWORKS}")
        for name in ("batch_size", "seq_batch_size", "ft_batch",
                     "world_samples", "world_regions", "world_gap_min"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.world_gap_max < self.world_gap_min:
            raise ConfigError(f"world_gap_max {self.world_gap_max} is below "
                              f"world_gap_min {self.world_gap_min}")
        if not (0.0 <= self.mask_ratio < 1.0):
            raise ConfigError(f"mask_ratio must lie in [0, 1), got {self.mask_ratio}")
        if self.context_len < 2:
            raise ConfigError(f"context_len must be >= 2, got {self.context_len}")

    def to_text(self) -> str:
        """Canonical sorted key = value rendering."""
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in sorted(fields(self), key=lambda f: f.name)]
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:12]


def _coerce(name: str, text: str, kind: type):
    text = text.strip()
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text
    except ValueError as e:
        raise ConfigError(f"bad value for '{name}': {text!r} is not {kind.__name__}") from e


def _field_types() -> dict[str, type]:
    return {f.name: f.type if isinstance(f.type, type) else {"int": int, "float": float, "str": str}[f.type]
            for f in fields(Config)}


def parse_pairs(pairs: dict[str, str]) -> dict:
    """Coerce raw string pairs to typed values; unknown keys rejected."""
    types = _field_types()
    out = {}
    for name, raw in pairs.items():
        if name not in types:
            raise ConfigError(f"unknown config key '{name}'")
        out[name] = _coerce(name, raw, types[name])
    return out


def from_file(path: str, overrides: dict[str, str] | None = None) -> Config:
    pairs: dict[str, str] = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line.rstrip()!r}")
                key, value = body.split("=", 1)
                pairs[key.strip()] = value
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if overrides:
        pairs.update({k: str(v) for k, v in overrides.items()})
    return Config(**parse_pairs(pairs))


def from_overrides(overrides: dict[str, str] | None = None) -> Config:
    return Config(**parse_pairs({k: str(v) for k, v in (overrides or {}).items()}))
