"""Model assembly: encoder, transcription decoder, speaker branch.

A stack of gated convolutional layers feeds two heads. Layers up to the
fork are the encoder; the layers above it plus a final per-frame linear
projection to the vocabulary form the transcription decoder. The speaker
branch taps the fork representation through a gradient-scaling junction,
applies one gated conv, pools over time, and projects to speaker logits.
Encoder, decoder and the ASG transition matrix carry parameter group
`main`; everything in the branch carries group `speaker`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from gradflip import tensor as tz
from gradflip.data import check_keys
from gradflip.layers import GatedConv, Linear, PoolingConfig, grad_scale, pool
from gradflip.rng import RngStream
from gradflip.tensor import ParamStore, Tensor

__all__ = [
    "ModelConfig", "ModelGraph", "FORK_PRESETS", "resolve_fork", "build_model",
    "forward_acoustic", "forward_speaker", "forward_joint", "extract_representation",
    "speaker_nll", "save_checkpoint", "load_checkpoint",
]

CHECKPOINT_VERSION = 1

# named fork depths per stack size; the 17-layer entry follows the
# IN/MID/OUT convention of the full-scale setup, the 5-layer one is the
# desk-scale preset
FORK_PRESETS: dict[int, dict[str, int]] = {
    17: {"in": 2, "mid": 8, "out": 15},
    5: {"in": 1, "mid": 3, "out": 4},
}


def resolve_fork(n_layers: int, label: str) -> int:
    """Map an in/mid/out label to a layer index for the given stack size."""
    if label not in ("in", "mid", "out"):
        raise ValueError(f"fork label must be in/mid/out, got {label!r}")
    preset = FORK_PRESETS.get(n_layers)
    if preset is not None:
        return preset[label]
    frac = {"in": 2 / 17, "mid": 8 / 17, "out": 15 / 17}[label]
    return min(n_layers - 1, max(1, round(frac * n_layers)))


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    n_layers: int
    channels: int
    vocab_size: int
    n_speakers: int
    fork_layer: int
    kernel_width: int
    dropout_rate: float
    pooling: PoolingConfig
    branch_channels: int
    branch_kernel: int

    def __post_init__(self):
        if self.n_layers < 2:
            raise ValueError("need at least two layers to place a fork")
        if not (1 <= self.fork_layer < self.n_layers):
            raise ValueError(
                f"fork_layer {self.fork_layer} outside [1, {self.n_layers - 1}]"
            )
        if self.vocab_size < 2:
            raise ValueError("vocabulary must hold letters plus a separator")
        if self.n_speakers < 1:
            raise ValueError("need at least one speaker")


class ModelGraph:
    """Built model: layer stack, output head, speaker branch, transitions."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.seed = int(seed)
        self.params = ParamStore()
        rng = RngStream(seed, "init")
        self.stack: list[GatedConv] = []
        ch_in = cfg.in_dim
        for i in range(cfg.n_layers):
            self.stack.append(
                GatedConv(
                    self.params,
                    f"stack.{i + 1:02d}",
                    "main",
                    ch_in,
                    cfg.channels,
                    cfg.kernel_width,
                    cfg.dropout_rate,
                    rng.child(f"stack{i + 1}"),
                )
            )
            ch_in = cfg.channels
        self.out = Linear(self.params, "out", "main", cfg.channels, cfg.vocab_size, rng.child("out"))
        self.branch_conv = GatedConv(
            self.params,
            "spk.conv",
            "speaker",
            cfg.channels,
            cfg.branch_channels,
            cfg.branch_kernel,
            cfg.dropout_rate,
            rng.child("spk.conv"),
        )
        self.branch_out = Linear(
            self.params, "spk.out", "speaker", cfg.branch_channels, cfg.n_speakers, rng.child("spk.out")
        )
        # transition scores start at zero and train with the main group
        self.transitions = self.params.add(
            "asg.trans", Tensor(np.zeros((cfg.vocab_size, cfg.vocab_size))), "main"
        )


def build_model(cfg: ModelConfig, seed: int) -> ModelGraph:
    """Deterministically initialize a model from (config, seed)."""
    return ModelGraph(cfg, seed)


def _check_input(m: ModelGraph, x) -> Tensor:
    xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if xt.data.ndim != 2 or xt.shape[1] != m.cfg.in_dim:
        raise tz.ShapeMismatch(
            f"input must be T x {m.cfg.in_dim}, got {xt.shape}"
        )
    if xt.shape[0] < 1:
        raise tz.ShapeMismatch("input must contain at least one frame")
    return xt


def _layer_rng(rng: RngStream | None, mode: str, label: str) -> RngStream | None:
    # per-layer streams keep a layer's dropout mask independent of whether
    # the speaker branch is evaluated in the same pass
    if rng is None or mode != "train":
        return None
    return rng.child(label)


def _run_stack(
    m: ModelGraph, x: Tensor, upto: int, mode: str, rng: RngStream | None, start: int = 0
) -> Tensor:
    h = x
    for i in range(start, upto):
        h = m.stack[i].forward(h, mode, _layer_rng(rng, mode, f"stack{i + 1}"))
    return h


def forward_acoustic(m: ModelGraph, x, mode: str = "eval", rng: RngStream | None = None) -> Tensor:
    """Per-frame vocabulary scores (T x K); the speaker branch stays untouched."""
    xt = _check_input(m, x)
    h = _run_stack(m, xt, m.cfg.n_layers, mode, rng)
    return m.out.forward(h)


def forward_speaker(
    m: ModelGraph, x, factor: float, mode: str = "eval", rng: RngStream | None = None
) -> Tensor:
    """Speaker logits (S,). Gradients entering the encoder are scaled by factor."""
    xt = _check_input(m, x)
    r_fork = _run_stack(m, xt, m.cfg.fork_layer, mode, rng)
    return _branch_head(m, r_fork, factor, mode, rng)


def _branch_head(m: ModelGraph, r_fork: Tensor, factor: float, mode: str, rng) -> Tensor:
    h = grad_scale(r_fork, factor)
    h = m.branch_conv.forward(h, mode, _layer_rng(rng, mode, "spk"))
    pooled = pool(h, m.cfg.pooling)
    return m.branch_out.forward(pooled)


def forward_joint(
    m: ModelGraph, x, factor: float, mode: str = "eval", rng: RngStream | None = None
) -> tuple[Tensor, Tensor]:
    """One shared pass returning (emissions, speaker logits).

    The encoder below the fork is evaluated once, so gradients from both
    heads accumulate on the same nodes.
    """
    xt = _check_input(m, x)
    r_fork = _run_stack(m, xt, m.cfg.fork_layer, mode, rng)
    h = _run_stack(m, r_fork, m.cfg.n_layers, mode, rng, start=m.cfg.fork_layer)
    emissions = m.out.forward(h)
    logits = _branch_head(m, r_fork, factor, mode, rng)
    return emissions, logits


def extract_representation(m: ModelGraph, x, layer: int) -> np.ndarray:
    """Eval-mode activations after the given gated-conv block (layer 0 = input)."""
    if not (0 <= layer <= m.cfg.n_layers):
        raise ValueError(f"layer {layer} outside [0, {m.cfg.n_layers}]")
    xt = _check_input(m, x)
    with tz.no_grad():
        return _run_stack(m, xt, layer, "eval", None).data.copy()


def speaker_nll(logits: Tensor, speaker: int) -> Tensor:
    """Negative log likelihood of the target speaker under log-softmax logits."""
    s = int(speaker)
    if not (0 <= s < logits.shape[0]):
        raise ValueError(f"speaker {s} outside logits of size {logits.shape[0]}")
    lse = tz.logsumexp(tz.reshape(logits, (1, logits.shape[0])), axis=1, keepdims=True)
    picked = tz.slice_axis(tz.reshape(logits, (1, logits.shape[0])), 1, s, s + 1)
    return tz.sub(lse, picked)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(m: ModelGraph, path) -> None:
    """Single JSON document: format version, config, name -> {shape, values}."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(m.cfg),  # pooling nests as {kind, tau}
        "params": {
            name: {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
            for name, t, _ in m.params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=None) + "\n")


# JSON value types of the config fields, by annotation; a float field takes an integer too
_FIELD_TYPES = {"int": int, "float": (float, int), "str": str, "PoolingConfig": dict}


def _config_keys(cls) -> dict:
    return {f.name: _FIELD_TYPES[f.type] for f in fields(cls)}


def load_checkpoint(path) -> ModelGraph:
    doc = json.loads(Path(path).read_text())
    check_keys(f"{path}: checkpoint", doc, {"format_version": int, "config": dict, "params": dict})
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version: {doc['format_version']}")
    d = doc["config"]
    check_keys(f"{path}: checkpoint config", d, _config_keys(ModelConfig))
    check_keys(f"{path}: checkpoint config pooling", d["pooling"], _config_keys(PoolingConfig))
    m = build_model(ModelConfig(**{**d, "pooling": PoolingConfig(**d["pooling"])}), seed=0)
    saved = doc["params"]
    check_keys(
        f"{path}: checkpoint parameter names do not match the config", saved,
        dict.fromkeys(m.params.names(), dict),
    )
    for name, t, _ in m.params.items():
        entry = saved[name]
        check_keys(f"{path}: checkpoint parameter {name}", entry, {"shape": list, "values": list})
        if tuple(entry["shape"]) != t.shape:
            raise ValueError(f"{path}: checkpoint shape mismatch for {name}")
        try:
            values = np.asarray(entry["values"], dtype=np.float64).reshape(t.shape)
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}: checkpoint parameter {name}: 'values' must hold {t.size} numbers"
            ) from None
        np.copyto(t.data, values)
    return m
