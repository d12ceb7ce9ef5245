"""Experiment configuration: one JSON document with per-module blocks.

The configuration hash covers every semantic field (output_dir excluded) and
is embedded into every artifact together with the master seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field, fields

from eshopsim.channel import BeamGridConfig, ChannelParams
from eshopsim.controller import SignalingConfig
from eshopsim.dataset import DatasetConfig
from eshopsim.events import HcpConfig
from eshopsim.scenario import ScenarioConfig
from eshopsim.tcn import TcnModelConfig, TrainConfig


class ConfigError(ValueError):
    """Raised for malformed configuration documents."""


def _coerce(value, hint):
    """A JSON value as its declared type, so that 16 and 16.0 configure and hash alike."""
    args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        hints = typing.get_type_hints(hint)
        return {k: _coerce(v, hints.get(k)) for k, v in value.items()}
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        elems = args[:1] * len(value) if args[-1] is ... else args
        return tuple(map(_coerce, value, elems)) if len(elems) == len(value) else value
    if type(value) is int and (hint is float or float in args):
        return float(value)
    if type(value) is float and (hint is int or int in args):
        if not value.is_integer():
            raise ValueError(f"{value} is not an integer")
        return int(value)
    return value


def _block_from_dict(cls, d: dict, block: str):
    if not isinstance(d, dict):
        raise ConfigError(f"config block '{block}' must be an object")
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown keys in config block '{block}': {sorted(unknown)}")
    try:
        return cls(**_coerce(d, cls))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config block '{block}': {exc}") from exc


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    hcp: HcpConfig = field(default_factory=HcpConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: TcnModelConfig = field(default_factory=TcnModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    signaling: SignalingConfig = field(default_factory=SignalingConfig)
    output_dir: str = "runs/default"
    master_seed: int = 1

    _BLOCKS = {
        "scenario": ScenarioConfig,
        "channel": ChannelParams,
        "hcp": HcpConfig,
        "dataset": DatasetConfig,
        "model": TcnModelConfig,
        "train": TrainConfig,
        "signaling": SignalingConfig,
    }

    def __post_init__(self) -> None:
        ttt = self.hcp.ttt_ms  # the one TTT: preparation fits inside it, the guard outlasts it
        if not self.signaling.d_prep_max_ms <= ttt < self.signaling.guard_ms:
            raise ConfigError(f"need signaling d_prep_max_ms <= hcp.ttt_ms {ttt} < guard_ms")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("configuration root must be an object")
        unknown = set(d) - set(cls._BLOCKS) - {"output_dir", "master_seed"}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        kwargs = {}
        for name, block_cls in cls._BLOCKS.items():
            if name in d:
                kwargs[name] = _block_from_dict(block_cls, d[name], name)
        if "output_dir" in d:
            kwargs["output_dir"] = str(d["output_dir"])
        if "master_seed" in d:
            if not isinstance(d["master_seed"], int):
                raise ConfigError("master_seed must be an integer")
            kwargs["master_seed"] = d["master_seed"]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        def clean(obj):
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                return {f.name: clean(getattr(obj, f.name)) for f in fields(obj)}
            if isinstance(obj, tuple):
                return [clean(x) for x in obj]
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            return obj

        out = {name: clean(getattr(self, name)) for name in self._BLOCKS}
        out["output_dir"] = self.output_dir
        out["master_seed"] = self.master_seed
        return out


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantic configuration; the output directory is excluded."""
    doc = cfg.to_dict()
    doc.pop("output_dir", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def save_config(path, cfg: ExperimentConfig) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
