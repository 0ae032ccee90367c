"""Neural layers for the gated convolutional stack.

1D convolution (stride 1, same-length zero padding), gated linear units,
weight normalization, inverted dropout, temporal pooling (sum / max /
LogSumExp) and the gradient-scaling junction that couples the speaker
branch to the encoder. Everything is a pure function over tensors; the
two small layer classes just own weight-normalized parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gradflip import tensor as tz
from gradflip.rng import RngStream
from gradflip.tensor import Tensor, grad_scale  # re-export: grad_scale lives on the tape

__all__ = [
    "PoolingConfig", "conv1d", "glu", "weight_norm", "dropout",
    "pool", "grad_scale", "GatedConv", "Linear",
]

POOL_KINDS = ("sum", "max", "logsumexp")
MODES = ("train", "eval")


@dataclass(frozen=True)
class PoolingConfig:
    kind: str
    tau: float

    def __post_init__(self):
        if self.kind not in POOL_KINDS:
            raise ValueError(f"pooling kind must be one of {POOL_KINDS}, got {self.kind!r}")
        if self.tau <= 0:
            raise ValueError("pooling tau must be positive")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, kernel_width: int) -> Tensor:
    """Stride-1 1D convolution over a T x C_in input, zero padded so the
    output keeps length T.

    weight has shape (kernel_width * C_in, C_out), rows ordered tap-major:
    row w * C_in + c is tap w (leftmost first) of input channel c.
    """
    if x.data.ndim != 2 or x.shape[0] < 1:
        raise tz.ShapeMismatch(f"conv1d: input must be T x C with T >= 1, got {x.shape}")
    t_len, c_in = x.shape
    if weight.shape[0] != kernel_width * c_in:
        raise tz.ShapeMismatch(
            f"conv1d: weight rows {weight.shape[0]} != kernel_width*C_in {kernel_width * c_in}"
        )
    pad = (kernel_width - 1) // 2
    if pad:
        zeros = Tensor(np.zeros((pad, c_in)))
        xp = tz.concat([zeros, x, zeros], axis=0)
    else:
        xp = x
    if kernel_width == 1:
        unfolded = xp
    else:
        taps = [tz.slice_axis(xp, 0, w, w + t_len) for w in range(kernel_width)]
        unfolded = tz.concat(taps, axis=1)
    return tz.matmul(unfolded, weight) + bias


def glu(x: Tensor) -> Tensor:
    """Gated linear unit: split channels into halves A, B; output A * sigmoid(B)."""
    if x.data.ndim != 2 or x.shape[1] % 2 != 0:
        raise tz.ShapeMismatch(f"glu: needs an even channel count, got {x.shape}")
    half = x.shape[1] // 2
    a = tz.slice_axis(x, 1, 0, half)
    b = tz.slice_axis(x, 1, half, 2 * half)
    return tz.mul(a, tz.sigmoid(b))


def weight_norm(v: Tensor, g: Tensor) -> Tensor:
    """w = g * v / ||v||, norm taken per output unit (per column of v).

    Both g and v stay trainable; the gradient flows through the norm.
    """
    if v.data.ndim != 2 or g.shape != (v.shape[1],):
        raise tz.ShapeMismatch(f"weight_norm: v {v.shape} needs g of shape ({v.shape[1]},)")
    sumsq = tz.sum_reduce(tz.mul(v, v), axis=0)
    return tz.mul(v, tz.mul(g, tz.pow_scalar(sumsq, -0.5)))


def dropout(x: Tensor, rate: float, mode: str, rng: RngStream | None = None) -> Tensor:
    """Inverted dropout: surviving units scaled by 1/(1-rate). Identity in eval mode."""
    _check_mode(mode)
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an RngStream")
    mask = (rng.uniform(size=x.shape) >= rate) / (1.0 - rate)
    return tz.mul(x, Tensor(mask))


def pool(r: Tensor, cfg: PoolingConfig) -> Tensor:
    """Aggregate an L x C representation over time into a C-vector.

    LogSumExp pooling computes (1/tau) * log((1/L) * sum_t exp(tau * r_t));
    the max is factored out before exponentiation, which keeps it exact on
    constant sequences and overflow-free everywhere.
    """
    if r.data.ndim != 2 or r.shape[0] < 1:
        raise tz.ShapeMismatch(f"pool: input must be L x C with L >= 1, got {r.shape}")
    if cfg.kind == "sum":
        return tz.sum_reduce(r, axis=0)
    if cfg.kind == "max":
        return tz.max_reduce(r, axis=0)
    length = r.shape[0]
    m = tz.max_reduce(r, axis=0, keepdims=True)
    z = tz.smul(tz.sub(r, m), cfg.tau)
    mean_exp = tz.smul(tz.sum_reduce(tz.exp(z), axis=0), 1.0 / length)
    return tz.add(tz.reshape(m, (r.shape[1],)), tz.smul(tz.log(mean_exp), 1.0 / cfg.tau))


def _init_uniform(rng: RngStream, fan_in: int, kernel_width: int, shape) -> np.ndarray:
    # Uniform weights of variance 4/fan, fan = fan_in * kernel_width (bound
    # sqrt(12/fan)). The GLU gate halves the signal, so 4/fan preserves
    # variance through a gate; a plain 1/sqrt(fan) bound attenuates
    # activations ~3.5x per layer and starts deep stacks near-dead. Linear
    # uses this bound as is; GatedConv scales it by its dropout keep
    # probability (see GatedConv).
    bound = math.sqrt(12.0 / (fan_in * kernel_width))
    return rng.uniform(-bound, bound, shape)


class GatedConv:
    """Weight-normalized conv1d -> GLU -> inverted dropout block.

    The convolution produces 2*out_channels maps; the GLU gates them down
    to out_channels.

    Initial weights have variance 4 * (1 - rate) / fan, fan = in_channels *
    kernel_width (uniform bound sqrt(12 * (1 - rate) / fan)). Inverted
    dropout scales survivors by 1/(1 - rate), which raises the train-mode
    second moment by the same factor; scaling the weight variance by the
    keep probability cancels it, as for ConvS2S (Gehring et al. 2017,
    arXiv:1705.03122, section 3.5). Without dropout this is the 4/fan
    bound that Linear keeps.
    """

    def __init__(
        self,
        store: tz.ParamStore,
        prefix: str,
        group: str,
        in_channels: int,
        out_channels: int,
        kernel_width: int,
        dropout_rate: float,
        rng: RngStream,
    ):
        if kernel_width % 2 == 0:
            # odd widths keep same-length padding symmetric
            raise ValueError(f"kernel_width must be odd, got {kernel_width}")
        if not (0.0 <= dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be positive")
        self.out_channels = out_channels
        self.kernel_width = kernel_width
        self.dropout_rate = dropout_rate
        v = math.sqrt(1.0 - dropout_rate) * _init_uniform(
            rng, in_channels, kernel_width, (kernel_width * in_channels, 2 * out_channels)
        )
        norms = np.sqrt((v * v).sum(axis=0))
        if np.any(norms == 0.0):
            raise ValueError(f"{prefix}: zero-norm weight column at initialization")
        self.v = store.add(f"{prefix}.v", Tensor(v), group)
        # g starts at ||v|| so the normalized weight initially equals v
        self.g = store.add(f"{prefix}.g", Tensor(norms), group)
        self.b = store.add(f"{prefix}.b", Tensor(np.zeros(2 * out_channels)), group)

    def forward(self, x: Tensor, mode: str = "eval", rng: RngStream | None = None) -> Tensor:
        w = weight_norm(self.v, self.g)
        h = glu(conv1d(x, w, self.b, self.kernel_width))
        return dropout(h, self.dropout_rate, mode, rng)


class Linear:
    """Weight-normalized affine map applied along the channel axis."""

    def __init__(
        self,
        store: tz.ParamStore,
        prefix: str,
        group: str,
        in_features: int,
        out_features: int,
        rng: RngStream,
    ):
        v = _init_uniform(rng, in_features, 1, (in_features, out_features))
        norms = np.sqrt((v * v).sum(axis=0))
        if np.any(norms == 0.0):
            raise ValueError(f"{prefix}: zero-norm weight column at initialization")
        self.v = store.add(f"{prefix}.v", Tensor(v), group)
        self.g = store.add(f"{prefix}.g", Tensor(norms), group)
        self.b = store.add(f"{prefix}.b", Tensor(np.zeros(out_features)), group)

    def forward(self, x: Tensor) -> Tensor:
        w = weight_norm(self.v, self.g)
        if x.data.ndim == 1:
            return tz.reshape(tz.matmul(tz.reshape(x, (1, x.shape[0])), w), (w.shape[1],)) + self.b
        return tz.matmul(x, w) + self.b
