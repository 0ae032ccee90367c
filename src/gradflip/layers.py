"""Neural layers for the gated convolutional stack.

1D convolution (stride 1, same-length zero padding), gated linear units,
weight normalization, inverted dropout, temporal pooling (sum / max /
LogSumExp) and the gradient-scaling junction that couples the speaker
branch to the encoder. Everything is a pure function over tensors; the
two small layer classes just own weight-normalized parameters. Layers
take a packed batch (`Packing`): utterances stacked along time, with no
tap, mask or pooled value crossing from one utterance into another.
conv1d, glu, weight_norm and pool each record one tape node whose numpy
backward runs the float operations of the primitive ops it replaces, in
the tape's order, so values and gradients keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gradflip import tensor as tz
from gradflip.rng import RngStream
from gradflip.tensor import Tensor

__all__ = [
    "PoolingConfig", "Packing", "conv1d", "glu", "weight_norm", "dropout",
    "pool", "GatedConv", "Linear",
]

POOL_KINDS = ("sum", "max", "logsumexp")


@dataclass(frozen=True)
class PoolingConfig:
    kind: str
    tau: float

    def __post_init__(self):
        if self.kind not in POOL_KINDS:
            raise ValueError(f"pooling kind must be one of {POOL_KINDS}, got {self.kind!r}")
        if self.tau <= 0:
            raise ValueError("pooling tau must be positive")


class Packing:
    """Row layout of a packed batch: B utterances stacked along time in one
    (T_1 + ... + T_B) x C array, utterance b owning rows starts[b]:ends[b].
    A lone utterance of T frames is the batch of one, Packing((T,))."""

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.ndim != 1 or not len(self.lengths) or self.lengths.min() < 1:
            raise tz.ShapeMismatch(f"a packed batch needs lengths >= 1, got {list(self.lengths)}")
        self.ends = np.cumsum(self.lengths)
        self.starts = self.ends - self.lengths
        self.rows = int(self.ends[-1])
        self.segment = np.repeat(np.arange(len(self.lengths)), self.lengths)  # row -> utterance
        self.offset = np.arange(self.rows) - self.starts[self.segment]  # row -> frame in it
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.lengths)

    def taps(self, width: int) -> np.ndarray:
        """(rows, width) source row of each tap of a centred width-`width`
        kernel; a tap outside its own utterance reads row `rows` (zeros)."""
        key = ("taps", width)
        if key not in self._cache:
            shift = np.arange(width) - (width - 1) // 2
            frame = self.offset[:, None] + shift
            inside = (frame >= 0) & (frame < self.lengths[self.segment][:, None])
            self._cache[key] = np.where(inside, np.arange(self.rows)[:, None] + shift, self.rows)
        return self._cache[key]

    def grid(self) -> np.ndarray:
        """(B, T_max) row of frame t of utterance b; slots past an
        utterance's end read row `rows`."""
        idx = np.full((len(self), int(self.lengths.max())), self.rows)
        idx[self.segment, self.offset] = np.arange(self.rows)
        return idx

    def sums(self, arr: np.ndarray) -> np.ndarray:
        """(B, ...) sum over each utterance's rows, added in row order."""
        out = np.empty((len(self),) + arr.shape[1:])
        for b, (i, j) in enumerate(zip(self.starts.tolist(), self.ends.tolist())):
            arr[i:j].sum(axis=0, out=out[b])
        return out

    def split(self, arr: np.ndarray) -> list[np.ndarray]:
        """Per-utterance row blocks of a packed array."""
        return np.split(arr, self.ends[:-1])


def _check_rows(x: Tensor, packing: Packing) -> Packing:
    if packing.rows != x.shape[0]:
        raise tz.ShapeMismatch(f"packed batch of {packing.rows} rows, input has {x.shape[0]}")
    return packing


def _scatter_rows(index: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """(n, C) sums of the rows of g, row k landing on row index[k]; an index
    of n is dropped. Flattened for bincount, element c of a row lands in bin
    index * C + c, and each bin adds in row order, as np.add.at would."""
    width = g.shape[-1]
    bins = (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    return np.bincount(bins, weights=g.reshape(-1), minlength=(n + 1) * width)[: n * width].reshape(n, width)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, kernel_width: int, packing: Packing) -> Tensor:
    """Stride-1 1D convolution over a packed T x C_in input, zero padded so
    the output keeps length T. Each utterance is convolved on its own: a
    tap that leaves its utterance reads zeros. One tape node.

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
    taps = _check_rows(x, packing).taps(kernel_width)
    padded = np.concatenate([x.data, np.zeros((1, c_in))])  # row t_len: the zeros a tap outside reads
    unfolded = padded.take(taps.reshape(-1), axis=0).reshape(t_len, kernel_width * c_in)

    def bw(g, grads):
        if x.grad_tracked:  # the frozen input of a probe, or the features, take no gradient
            tz._acc(grads, x, _scatter_rows(taps, (g @ weight.data.T).reshape(-1, c_in), t_len))
        tz._acc(grads, weight, unfolded.T @ g)
        tz._acc(grads, bias, g.sum(axis=0))

    with np.errstate(all="ignore"):
        out = tz._row_blocked_product(unfolded, weight.data)
        out += bias.data
    return tz._node(out, "conv1d", (x, weight, bias), bw)


def glu(x: Tensor) -> Tensor:
    """Gated linear unit: split channels into halves A, B; output A * sigmoid(B).
    One tape node."""
    if x.data.ndim != 2 or x.shape[1] % 2 != 0:
        raise tz.ShapeMismatch(f"glu: needs an even channel count, got {x.shape}")
    half = x.shape[1] // 2
    a, b = x.data[:, :half], x.data[:, half:]
    with np.errstate(all="ignore"):
        gate = np.tanh(0.5 * b)  # 0.5 * (1 + tanh(0.5 * b)) in one buffer: no overflow for large negative b
        gate += 1.0
        gate *= 0.5
        out = a * gate

    def bw(g, grads):
        tz._acc(grads, x, np.concatenate([g * gate, g * a * gate * (1.0 - gate)], axis=1))

    return tz._node(out, "glu", (x,), bw)


def weight_norm(v: Tensor, g: Tensor) -> Tensor:
    """w = g * v / ||v||, norm taken per output unit (per column of v).
    One tape node.

    Both g and v stay trainable; the gradient flows through the norm.
    """
    if v.data.ndim != 2 or g.shape != (v.shape[1],):
        raise tz.ShapeMismatch(f"weight_norm: v {v.shape} needs g of shape ({v.shape[1]},)")
    with np.errstate(all="ignore"):
        sumsq = (v.data * v.data).sum(axis=0)
        # an infinite norm would zero w rather than make it non-finite; a
        # zero norm makes w NaN, which the node's check rejects
        tz._check_finite("weight_norm", sumsq)
        inv_norm = sumsq**-0.5
        scale = g.data * inv_norm
        out = v.data * scale

    def bw(gw, grads):
        g_scale = (gw * v.data).sum(axis=0)
        g_sumsq = g_scale * g.data * -0.5 * sumsq**-1.5
        tz._acc(grads, g, g_scale * inv_norm)
        # the direct path, then both operands of v * v, summed in that order
        tz._acc(grads, v, gw * scale + g_sumsq * v.data + g_sumsq * v.data)

    return tz._node(out, "weight_norm", (v, g), bw)


def dropout(x: Tensor, rate: float, rngs, packing: Packing) -> Tensor:
    """Inverted dropout: surviving units scaled by 1/(1-rate).

    rngs selects train mode: one RngStream per utterance of the batch, each
    drawing that utterance's T_b x C mask; a stream may repeat. Without
    streams (rngs=None, eval mode) this is the identity.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rngs is None or rate == 0.0:
        return x
    draws = np.concatenate([r.uniform(size=(n,) + x.shape[1:]) for r, n in zip(rngs, packing.lengths)])
    return tz.mul(x, Tensor((draws >= rate) / (1.0 - rate)))


def pool(r: Tensor, cfg: PoolingConfig, packing: Packing) -> Tensor:
    """Aggregate each utterance of a packed L x C representation over time
    into a row of a B x C matrix. One tape node.

    LogSumExp pooling computes (1/tau) * log((1/L) * sum_t exp(tau * r_t));
    the max is factored out before exponentiation, which keeps it exact on
    constant sequences and overflow-free everywhere. The gradient of a max
    goes to the first frame that holds it.
    """
    if r.data.ndim != 2 or r.shape[0] < 1:
        raise tz.ShapeMismatch(f"pool: input must be L x C with L >= 1, got {r.shape}")
    seg = _check_rows(r, packing)
    x, inv_len = r.data, 1.0 / seg.lengths[:, None]
    with np.errstate(all="ignore"):
        if cfg.kind == "sum":
            out = seg.sums(x)
        else:
            out = top = np.maximum.reduceat(x, seg.starts, axis=0)
        if cfg.kind == "logsumexp":
            e = np.exp((x - top[seg.segment]) * cfg.tau)
            mean_exp = seg.sums(e) * inv_len
            out = top + np.log(mean_exp) * (1.0 / cfg.tau)

    def to_top(g_top):
        # each (utterance, channel) gradient lands on the first row holding the max
        first = np.where(x == top[seg.segment], np.arange(seg.rows)[:, None], seg.rows)
        full = np.zeros_like(x)
        full[np.minimum.reduceat(first, seg.starts, axis=0), np.arange(x.shape[1])] = g_top
        return full

    def bw(g, grads):
        if cfg.kind == "sum":
            g_r = g[seg.segment]
        elif cfg.kind == "max":
            g_r = to_top(g)
        else:
            g_e = ((g * (1.0 / cfg.tau)) / mean_exp * inv_len)[seg.segment]
            g_shift = g_e * e * cfg.tau
            # the max enters directly and through every shifted frame
            g_r = g_shift + to_top(g + _scatter_rows(seg.segment, -g_shift, len(seg)))
        tz._acc(grads, r, g_r)

    return tz._node(out, "pool", (r,), bw)


def _init_uniform(rng: RngStream, fan_in: int, kernel_width: int, shape) -> np.ndarray:
    # Uniform weights of variance 4/fan, fan = fan_in * kernel_width (bound
    # sqrt(12/fan)). The GLU gate halves the signal, so 4/fan preserves
    # variance through a gate; a plain 1/sqrt(fan) bound attenuates
    # activations ~3.5x per layer and starts deep stacks near-dead. Linear
    # uses this bound as is; GatedConv scales it by its dropout keep
    # probability (see GatedConv).
    bound = math.sqrt(12.0 / (fan_in * kernel_width))
    return rng.uniform(-bound, bound, shape)


def _weight_normed(store: tz.ParamStore, prefix: str, group: str, v: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    """Register `prefix`.v, .g and .b in `group`: the direction v, the
    column norms g (so the normalized weight initially equals v) and a
    zero bias, one per column of v."""
    norms = np.sqrt((v * v).sum(axis=0))
    if np.any(norms == 0.0):
        raise ValueError(f"{prefix}: zero-norm weight column at initialization")
    return (
        store.add(f"{prefix}.v", Tensor(v), group),
        store.add(f"{prefix}.g", Tensor(norms), group),
        store.add(f"{prefix}.b", Tensor(np.zeros(v.shape[1])), group),
    )


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
        self.v, self.g, self.b = _weight_normed(store, prefix, group, v)

    def forward(self, x: Tensor, rngs, packing: Packing) -> Tensor:
        """rngs as for `dropout`: one stream per utterance in train mode,
        None in eval mode."""
        w = weight_norm(self.v, self.g)
        h = glu(conv1d(x, w, self.b, self.kernel_width, packing))
        return dropout(h, self.dropout_rate, rngs, packing)


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
        self.v, self.g, self.b = _weight_normed(store, prefix, group, v)

    def forward(self, x: Tensor) -> Tensor:
        """Rows of x (N x in_features) mapped to N x out_features."""
        return tz.add(tz.matmul(x, weight_norm(self.v, self.g)), self.b)
