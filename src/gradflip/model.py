"""Model assembly: encoder, transcription decoder, speaker branch.

A stack of gated convolutional layers feeds two heads. Layers up to the
fork are the encoder; the layers above it plus a final per-frame linear
projection to the vocabulary form the transcription decoder. The speaker
branch taps the fork representation through a gradient-scaling junction,
applies one gated conv, pools over time, and projects to speaker logits.
Encoder, decoder and the ASG transition matrix carry parameter group
`main`; everything in the branch carries group `speaker`. One forward
pass over a packed batch (`forward`) serves training, evaluation and
probing; the per-utterance functions are its batch of one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from gradflip import tensor as tz
from gradflip.data import check_keys, write_lines
from gradflip.layers import GatedConv, Linear, Packing, PoolingConfig, pool
from gradflip.rng import RngStream
from gradflip.tensor import ParamStore, Tensor

__all__ = [
    "ModelConfig", "ModelGraph", "SpeakerBranch", "FORK_PRESETS", "resolve_fork", "build_model",
    "forward", "represent", "chunks", "speaker_nlls",
    "forward_acoustic", "forward_speaker", "forward_joint", "extract_representation",
    "speaker_nll", "save_checkpoint", "load_checkpoint",
]

CHECKPOINT_VERSION = 1

# named fork depths of stack sizes that depart from the fractional rule
# in resolve_fork; the 5-layer desk-scale preset puts `mid` at 3, where
# the rule gives 2
FORK_PRESETS: dict[int, dict[str, int]] = {
    5: {"in": 1, "mid": 3, "out": 4},
}


def resolve_fork(n_layers: int, label: str) -> int:
    """Map an in/mid/out label to a layer index for the given stack size:
    the IN/MID/OUT depths 2/8/15 of the 17-layer full-scale setup, scaled."""
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


class SpeakerBranch:
    """Gated conv -> pooling over time -> linear projection to speaker
    logits, all in parameter group `speaker`. The model taps its fork with
    one; each probe is another, trained on frozen representations.
    rngs holds the init streams of the conv and of the projection."""

    def __init__(
        self, params: ParamStore, prefix: str, in_channels: int, channels: int, kernel_width: int,
        dropout_rate: float, pooling: PoolingConfig, n_speakers: int, rngs: tuple[RngStream, RngStream],
    ):
        conv_rng, out_rng = rngs
        self.conv = GatedConv(
            params, f"{prefix}.conv", "speaker", in_channels, channels, kernel_width, dropout_rate, conv_rng
        )
        self.out = Linear(params, f"{prefix}.out", "speaker", channels, n_speakers, out_rng)
        self.pooling = pooling

    def forward(self, h: Tensor, rngs, packing: Packing) -> Tensor:
        """B x S logits of a packed batch; rngs as for `layers.dropout`."""
        return self.out.forward(pool(self.conv.forward(h, rngs, packing), self.pooling, packing))


class ModelGraph:
    """Built model: layer stack, output head, speaker branch, transitions."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
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
        self.branch = SpeakerBranch(
            self.params, "spk", cfg.channels, cfg.branch_channels, cfg.branch_kernel, cfg.dropout_rate,
            cfg.pooling, cfg.n_speakers, (rng.child("spk.conv"), rng.child("spk.out")),
        )
        # transition scores start at zero and train with the main group
        self.transitions = self.params.add(
            "asg.trans", Tensor(np.zeros((cfg.vocab_size, cfg.vocab_size))), "main"
        )


def build_model(cfg: ModelConfig, seed: int) -> ModelGraph:
    """Deterministically initialize a model from (config, seed)."""
    return ModelGraph(cfg, seed)


def _pack(m: ModelGraph, xs) -> tuple[Tensor, Packing]:
    """Stack utterances' frames (arrays) along time. Shapes are checked per
    utterance, finiteness once, on the packed frames."""
    arrs = [np.asarray(x, dtype=np.float64) for x in xs]
    for x in arrs:
        if x.ndim != 2 or x.shape[1] != m.cfg.in_dim:
            raise tz.ShapeMismatch(f"input must be T x {m.cfg.in_dim}, got {x.shape}")
        if x.shape[0] < 1:
            raise tz.ShapeMismatch("input must contain at least one frame")
    return Tensor(np.concatenate(arrs)), Packing([len(x) for x in arrs])


def _layer_rngs(rngs, label: str):
    # per-layer streams keep a layer's dropout mask independent of whether
    # the speaker branch is evaluated in the same pass
    return None if rngs is None else [r.child(label) for r in rngs]


def _run_stack(m: ModelGraph, x: Tensor, packing: Packing, upto: int, rngs, start: int = 0) -> Tensor:
    h = x
    for i in range(start, upto):
        h = m.stack[i].forward(h, _layer_rngs(rngs, f"stack{i + 1}"), packing)
    return h


def forward(m: ModelGraph, xs, factor: float = 0.0, rngs=None, acoustic: bool = True, speaker: bool = True):
    """The model's one forward pass: the inputs packed into one batch, then
    (packing, emissions, speaker logits), emissions (sum T_b) x K and logits
    B x S, each None unless asked for.

    rngs selects train mode: one dropout stream per utterance; None is eval
    mode. The encoder below the fork runs once, so gradients from both heads
    accumulate on the same nodes. Inside `m.params.frozen(("speaker",))`
    the encoder and head record no tape.
    """
    x, packing = _pack(m, xs)
    r_fork = _run_stack(m, x, packing, m.cfg.fork_layer, rngs)
    emissions = None
    if acoustic:
        h = _run_stack(m, r_fork, packing, m.cfg.n_layers, rngs, m.cfg.fork_layer)
        emissions = m.out.forward(h)
    logits = None
    if speaker:
        logits = m.branch.forward(tz.grad_scale(r_fork, factor), _layer_rngs(rngs, "spk"), packing)
    return packing, emissions, logits


def _streams(mode: str, rng: RngStream | None):
    """The dropout streams of a lone utterance: [rng] in train mode, None in eval."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval":
        return None
    if rng is None:
        raise ValueError("train mode needs an RngStream for dropout")
    return [rng]


def forward_acoustic(m: ModelGraph, x, mode: str = "eval", rng: RngStream | None = None) -> Tensor:
    """Per-frame vocabulary scores (T x K); the speaker branch stays untouched."""
    return forward(m, [x], 0.0, _streams(mode, rng), speaker=False)[1]


def forward_speaker(
    m: ModelGraph, x, factor: float, mode: str = "eval", rng: RngStream | None = None
) -> Tensor:
    """Speaker logits (S,). Gradients entering the encoder are scaled by factor."""
    logits = forward(m, [x], factor, _streams(mode, rng), acoustic=False)[2]
    return tz.reshape(logits, (m.cfg.n_speakers,))


def forward_joint(
    m: ModelGraph, x, factor: float, mode: str = "eval", rng: RngStream | None = None
) -> tuple[Tensor, Tensor]:
    """One shared pass returning (emissions, speaker logits).

    The encoder below the fork is evaluated once, so gradients from both
    heads accumulate on the same nodes.
    """
    _, emissions, logits = forward(m, [x], factor, _streams(mode, rng))
    return emissions, tz.reshape(logits, (m.cfg.n_speakers,))


# the most frames (rows) one eval-mode forward packs; a budget in frames
# bounds the activations held together whatever the utterance lengths
EVAL_FRAMES = 4096


def chunks(items: list, frames: list[int]) -> list[list]:
    """Consecutive runs of items, in order, each holding at least one item
    and at most EVAL_FRAMES frames in all; frames[i] is item i's frame
    count, and an item over the budget gets a run of its own."""
    runs: list[list] = []
    total = 0
    for item, n in zip(items, frames, strict=True):
        if not runs or total + n > EVAL_FRAMES:
            runs.append([])
            total = 0
        runs[-1].append(item)
        total += n
    return runs


def represent(m: ModelGraph, xs, layer: int) -> list[np.ndarray]:
    """Eval-mode activations of each input after the given gated-conv block
    (layer 0 = input)."""
    if not (0 <= layer <= m.cfg.n_layers):
        raise ValueError(f"layer {layer} outside [0, {m.cfg.n_layers}]")
    x, packing = _pack(m, xs)
    with tz.no_grad():
        h = _run_stack(m, x, packing, layer, None)
    return [a.copy() for a in packing.split(h.data)]


def extract_representation(m: ModelGraph, x, layer: int) -> np.ndarray:
    """Eval-mode activations after the given gated-conv block (layer 0 = input)."""
    return represent(m, [x], layer)[0]


def speaker_nlls(logits: Tensor, speakers) -> Tensor:
    """(B,) negative log likelihoods of each row's speaker under log-softmax logits."""
    one_hot = np.zeros(logits.shape)
    for b, s in enumerate(speakers):
        s = int(s)
        if not (0 <= s < logits.shape[1]):
            raise ValueError(f"speaker {s} outside logits of size {logits.shape[1]}")
        one_hot[b, s] = 1.0
    return tz.sub(tz.logsumexp(logits, axis=1), tz.sum_reduce(tz.mul(logits, Tensor(one_hot)), axis=1))


def speaker_nll(logits: Tensor, speaker: int) -> Tensor:
    """Negative log likelihood of the target speaker under log-softmax logits."""
    return tz.reshape(speaker_nlls(tz.reshape(logits, (1, logits.shape[0])), [speaker]), (1, 1))


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
    write_lines(path, [json.dumps(doc, sort_keys=True, indent=None)])


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
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: checkpoint parameter {name}: 'values' must be finite numbers")
        np.copyto(t.data, values)
    return m
