"""Run configuration: one flat, documented key set shared by all commands.

A config file is a JSON object using any subset of the keys below; unknown
keys are rejected so typos fail loudly instead of silently training with a
default. Every command echoes the effective config into its output
directory, so a run can be reproduced from its artifacts alone.

Keys and defaults:

  model     emb_size 64, hidden_size 64, n_layers 3, head_hidden 50,
            tie_last true, dtype "f32",
            p_emb 0.05, p_input 0.3, p_hidden 0.3, p_weight 0.5, p_head 0.1
  corpus    min_freq 1, max_len null,
            train_ratio 0.70, valid_ratio 0.15, test_ratio 0.15
  training  batch_size 16, bptt 70, epochs 10, max_lr 0.03,
            lr_lo 0.0044, lr_hi 0.04, weight_decay 0.0,
            epochs_per_stage 1, warmup_frac 0.3
  misc      seed 0
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .artifacts import write_atomic
from .model import DTYPES, Dropouts


class ConfigError(ValueError):
    pass


# Python types a JSON value may take for each annotated field type; a bool
# is an int to Python, so it is refused wherever a number is expected.
_ACCEPTED = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


@dataclass(frozen=True)
class RunConfig:
    emb_size: int = 64
    hidden_size: int = 64
    n_layers: int = 3
    head_hidden: int = 50
    tie_last: bool = True
    dtype: str = "f32"
    p_emb: float = 0.05
    p_input: float = 0.3
    p_hidden: float = 0.3
    p_weight: float = 0.5
    p_head: float = 0.1

    min_freq: int = 1
    max_len: int | None = None
    train_ratio: float = 0.70
    valid_ratio: float = 0.15
    test_ratio: float = 0.15

    batch_size: int = 16
    bptt: int = 70
    epochs: int = 10
    max_lr: float = 0.03
    lr_lo: float = 0.0044
    lr_hi: float = 0.04
    weight_decay: float = 0.0
    epochs_per_stage: int = 1
    warmup_frac: float = 0.3

    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("| None"):
                continue
            accepted = _ACCEPTED[f.type.split(" |")[0]]
            if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(DTYPES)}, got {self.dtype!r}")
        for key in ("emb_size", "hidden_size", "n_layers", "head_hidden",
                    "min_freq", "batch_size", "bptt", "epochs_per_stage"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("epochs", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        if self.max_len is not None and self.max_len < 1:
            raise ConfigError("max_len must be >= 1 or null")
        for key in ("p_emb", "p_input", "p_hidden", "p_weight", "p_head"):
            if not 0 <= getattr(self, key) < 1:
                raise ConfigError(f"{key} must lie in [0, 1)")
        if not 0 < self.warmup_frac < 1:
            raise ConfigError("warmup_frac must lie in (0, 1)")
        for key in ("max_lr", "lr_lo", "lr_hi"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be a finite number > 0")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be a finite number >= 0")
        if self.lr_lo > self.lr_hi:
            raise ConfigError("lr_lo must be <= lr_hi")
        if not all(0 <= r <= 1 for r in self.ratios()) or abs(sum(self.ratios()) - 1) > 1e-9:
            raise ConfigError("train_ratio, valid_ratio and test_ratio must lie in [0, 1] "
                              "and sum to 1")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Defaults, updated by the JSON file."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)

    def replaced(self, **overrides) -> "RunConfig":
        """New config with non-None overrides applied (for CLI flags)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def with_shapes_of(self, encoder) -> "RunConfig":
        """This config with the shapes and dtype ``encoder`` was built with,
        e.g. the ones a classifier takes from a pretrained LM."""
        shape = encoder.shape()
        del shape["vocab_size"]  # the vocabulary's, not a config key
        return dataclasses.replace(self, **shape)

    def dropouts(self) -> Dropouts:
        return Dropouts(self.p_emb, self.p_input, self.p_hidden,
                        self.p_weight, self.p_head)

    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.valid_ratio, self.test_ratio)

    def write(self, out_dir: str | Path) -> None:
        write_atomic(Path(out_dir) / "config.json",
                     json.dumps(dataclasses.asdict(self), indent=1, sort_keys=True,
                                allow_nan=False) + "\n")
