"""Flat dotted-key experiment configuration.

A config document is plain text, one `key = value` per line, `#` comments
allowed. Every key can also be set on the command line as `--key=value`.
The fully resolved configuration is echoed to `<outdir>/config.resolved`
once every setting has passed its check, and rerunning from that file
reproduces the outputs byte for byte.

`SCHEMA` is the only place a preset value is written: it holds the
desk-scale toy preset (5 gated-conv layers of 16 channels over an
alphabet of 6 letters plus separator, 12 speakers, 600 training
utterances). The config records it fills (`GenConfig`, `ModelConfig`,
`TrainConfig`) have no defaults of their own, and `config.resolved`
spells out every value a run used.
"""

from __future__ import annotations

import math
from pathlib import Path

from gradflip.data import GenConfig
from gradflip.layers import PoolingConfig
from gradflip.model import ModelConfig, resolve_fork
from gradflip.trainer import LambdaSchedule, TrainConfig

__all__ = [
    "SCHEMA", "load_config_file", "resolve", "gen_config", "model_config", "train_config",
]

# key -> default; the default's type drives coercion
SCHEMA: dict[str, object] = {
    "seed": 1234,
    "data.name": "synth",
    "gen.n_speakers": 12,
    "gen.utterances_per_speaker": 63,
    "gen.alphabet_size": 6,
    "gen.dim": 10,
    "gen.frames_per_token_min": 2,
    "gen.frames_per_token_max": 4,
    "gen.noise_sigma": 0.25,
    "gen.words_per_utterance_min": 2,
    "gen.words_per_utterance_max": 3,
    "gen.letters_per_word_min": 2,
    "gen.letters_per_word_max": 4,
    "gen.semi_speakers": 0,
    "gen.offset_scale": 0.5,
    "gen.gain_min": 0.7,
    "gen.gain_max": 1.3,
    "gen.train_frac": 0.8,
    "gen.dev_frac": 0.1,
    "model.n_layers": 5,
    "model.channels": 16,
    "model.kernel_width": 5,
    "model.dropout": 0.25,
    "model.pooling": "logsumexp",
    "model.tau": 1.0,
    "model.branch_channels": 32,
    "model.branch_kernel": 5,
    "train.mode": "baseline",
    "train.fork": "mid",
    # 1.4 (the full-scale value) diverges at desk scale; 0.03 is the
    # calibrated toy-preset rate
    "train.lr_main": 0.03,
    "train.lr_speaker": 0.1,
    "train.batch_size": 8,
    "train.epochs_a": 5,
    "train.epochs_b": 2,
    "train.epochs_c": 15,
    # mt runs lambda_value as given, sign included; al and semi ramp
    # from 0 toward lambda_max, which, like lambda_gamma, must be >= 0
    "train.lambda_value": 0.5,
    "train.lambda_max": 0.2,
    "train.lambda_gamma": 10.0,
    "probe.epochs": 10,
}


def _coerce(key: str, raw: str):
    default = SCHEMA[key]
    text = raw.strip()
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            value = float(text)
        else:
            return text
    except ValueError:
        raise ValueError(f"config key {key}: cannot parse {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"config key {key}: {raw!r} is not a finite number")
    return value


def load_config_file(path) -> dict[str, object]:
    """Parse a key = value document; unknown keys are errors."""
    out: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def resolve(
    file_values: dict[str, object] | None = None,
    overrides: dict[str, str] | None = None,
    seed_flag: int | None = None,
) -> dict[str, object]:
    """Defaults < config file < --key overrides < --seed flag."""
    cfg = dict(SCHEMA)
    for key, val in (file_values or {}).items():
        cfg[key] = val
    for key, raw in (overrides or {}).items():
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, raw)
    if seed_flag is not None:
        cfg["seed"] = int(seed_flag)
    return cfg


def gen_config(cfg: dict[str, object]) -> GenConfig:
    return GenConfig(
        n_speakers=cfg["gen.n_speakers"],
        utterances_per_speaker=cfg["gen.utterances_per_speaker"],
        alphabet_size=cfg["gen.alphabet_size"],
        dim=cfg["gen.dim"],
        frames_per_token=(cfg["gen.frames_per_token_min"], cfg["gen.frames_per_token_max"]),
        noise_sigma=cfg["gen.noise_sigma"],
        words_per_utterance=(cfg["gen.words_per_utterance_min"], cfg["gen.words_per_utterance_max"]),
        letters_per_word=(cfg["gen.letters_per_word_min"], cfg["gen.letters_per_word_max"]),
        semi_speakers=cfg["gen.semi_speakers"],
        offset_scale=cfg["gen.offset_scale"],
        gain_range=(cfg["gen.gain_min"], cfg["gen.gain_max"]),
        seed=cfg["seed"],
    )


def model_config(cfg: dict[str, object], in_dim: int, vocab_size: int, n_speakers: int) -> ModelConfig:
    return ModelConfig(
        in_dim=in_dim,
        n_layers=cfg["model.n_layers"],
        channels=cfg["model.channels"],
        vocab_size=vocab_size,
        n_speakers=n_speakers,
        fork_layer=resolve_fork(cfg["model.n_layers"], cfg["train.fork"]),
        kernel_width=cfg["model.kernel_width"],
        dropout_rate=cfg["model.dropout"],
        pooling=PoolingConfig(cfg["model.pooling"], cfg["model.tau"]),
        branch_channels=cfg["model.branch_channels"],
        branch_kernel=cfg["model.branch_kernel"],
    )


def train_config(cfg: dict[str, object]) -> TrainConfig:
    lam = LambdaSchedule(cfg["train.lambda_value"], cfg["train.lambda_max"], cfg["train.lambda_gamma"])
    return TrainConfig(
        mode=cfg["train.mode"],
        lr_main=cfg["train.lr_main"],
        lr_speaker=cfg["train.lr_speaker"],
        batch_size=cfg["train.batch_size"],
        epochs_a=cfg["train.epochs_a"],
        epochs_b=cfg["train.epochs_b"],
        epochs_c=cfg["train.epochs_c"],
        lam=lam,
        seed=cfg["seed"],
    )
