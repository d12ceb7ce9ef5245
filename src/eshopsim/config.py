"""Experiment configuration: one JSON document with per-module blocks.

The configuration hash covers every semantic field (output_dir excluded) and
is embedded into every artifact together with the master seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from eshopsim.artifacts import from_json
from eshopsim.channel import ChannelParams
from eshopsim.dataset import DatasetConfig
from eshopsim.scenario import ScenarioConfig
from eshopsim.tcn import TrainConfig


class ConfigError(ValueError):
    """Raised for malformed configuration documents."""


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    channel: ChannelParams = field(default_factory=ChannelParams)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "runs/default"
    master_seed: int = 1

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        try:
            return from_json(cls, d, "config")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return asdict(self)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantic configuration; the output directory is excluded."""
    doc = cfg.to_dict()
    doc.pop("output_dir", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is unreadable: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(doc)
