"""AutoSeg sequence criterion.

Blank-free sequence loss over a T x K emission matrix and a trainable
K x K transition score matrix:

    loss = logadd over all K^T frame paths
         - logadd over the monotone alignments of the target

Each score is the log-add over the paths of a state graph, taken by one
numpy forward-backward recursion recorded on the tape as one node: the
alpha pass gives the score, the beta pass the state and edge posteriors
that are its gradients. The full graph's states are the K tokens, the
constrained graph's the N target positions joined by stay and move edges.
Targets have no adjacent duplicates (no repetition tokens are used).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from gradflip import tensor as tz
from gradflip.tensor import Tensor

__all__ = [
    "validate_target", "asg_loss", "full_logadd", "constrained_logadd",
    "viterbi_decode", "path_score", "collapse",
]


def validate_target(target: Sequence[int], vocab_size: int, n_frames: int) -> tuple[int, ...]:
    """Check target invariants: in-range tokens, no adjacent duplicates, N <= T."""
    y = tuple(int(t) for t in target)
    if len(y) < 1:
        raise ValueError("target must contain at least one token")
    if len(y) > n_frames:
        raise ValueError(f"target length {len(y)} exceeds frame count {n_frames}")
    for tok in y:
        if not (0 <= tok < vocab_size):
            raise ValueError(f"target token {tok} outside vocabulary of size {vocab_size}")
    for a, b in zip(y, y[1:]):
        if a == b:
            raise ValueError(f"target has adjacent duplicate token {a}")
    return y


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    # a slice that is all -inf (an unreachable state) stays -inf, not NaN
    m = a.max(axis=axis, keepdims=True)
    m = np.where(m == -np.inf, 0.0, m)
    return np.squeeze(m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True)), axis=axis)


def _graph_logadd(op, emissions, transitions, em, tr, start, end, scatter) -> Tensor:
    """One tape node: the log-add score of all paths through a state graph.

    em (T, S) scores state s at frame t, tr (S, S) the edge i -> j, start
    and end (S,) the first and last state (0 or -inf). `scatter` maps state
    posteriors (T, S) and frame-summed edge posteriors (S, S) to gradients
    of `emissions` and `transitions`. numpy stays quiet: the node's check
    rejects the non-finite score of a diverging input.
    """
    with np.errstate(all="ignore"):
        alpha = np.empty_like(em)
        alpha[0] = em[0] + start
        for t in range(1, len(em)):
            alpha[t] = em[t] + _logsumexp(alpha[t - 1][:, None] + tr, axis=0)
        log_z = _logsumexp(alpha[-1] + end, axis=0)

    def bw(g, grads):
        with np.errstate(all="ignore"):
            beta = np.empty_like(em)
            beta[-1] = end
            for t in range(len(em) - 1, 0, -1):
                beta[t - 1] = _logsumexp(tr + em[t] + beta[t], axis=1)
            states = np.exp(alpha + beta - log_z)
            edges = np.exp(alpha[:-1, :, None] + tr + (em[1:] + beta[1:])[:, None, :] - log_z).sum(axis=0)
            em_grad, tr_grad = scatter(states, edges)
        tz._acc(grads, emissions, g * em_grad)
        tz._acc(grads, transitions, g * tr_grad)

    return tz._node(np.reshape(log_z, (1, 1)), op, (emissions, transitions), bw)


def full_logadd(emissions: Tensor, transitions: Tensor) -> Tensor:
    """log-add score of all K^T paths: beta_t(i) = f_t(i) + logadd_j(beta_{t-1}(j) + g(j,i))."""
    t_len, k = emissions.shape
    if transitions.shape != (k, k):
        raise tz.ShapeMismatch(f"transitions {transitions.shape} do not match K={k}")
    return _graph_logadd("full_logadd", emissions, transitions, emissions.data, transitions.data,
                         np.zeros(k), np.zeros(k), lambda states, edges: (states, edges))


def constrained_logadd(emissions: Tensor, transitions: Tensor, target: Sequence[int]) -> Tensor:
    """log-add score of every monotone alignment of the target.

    alpha_t(n) = f_t(y_n) + logadd(alpha_{t-1}(n)   + g(y_n, y_n),
                                   alpha_{t-1}(n-1) + g(y_{n-1}, y_n))

    Paths start at position 1 and end at position N; every other edge
    scores -inf, so states no path reaches keep alpha = -inf.
    """
    t_len, k = emissions.shape
    y = np.array(validate_target(target, k, t_len))
    pos = np.arange(len(y))
    edge = np.isin(pos[None, :] - pos[:, None], (0, 1))  # stay (n -> n) or move (n -> n+1)
    tr = np.where(edge, transitions.data[y[:, None], y[None, :]], -np.inf)

    def scatter(states, edges):
        # tokens repeat within a target, so several positions share a column
        em_grad, tr_grad = np.zeros((t_len, k)), np.zeros((k, k))
        np.add.at(em_grad, (slice(None), y), states)
        np.add.at(tr_grad, (y[:, None], y[None, :]), edges)
        return em_grad, tr_grad

    first, last = np.where(pos == 0, 0.0, -np.inf), np.where(pos == len(y) - 1, 0.0, -np.inf)
    return _graph_logadd("constrained_logadd", emissions, transitions, emissions.data[:, y], tr,
                         first, last, scatter)


def asg_loss(emissions: Tensor, transitions: Tensor, target: Sequence[int]) -> Tensor:
    """ASG loss = full_logadd - constrained_logadd; non-negative scalar."""
    return tz.sub(full_logadd(emissions, transitions), constrained_logadd(emissions, transitions, target))


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def viterbi_decode(emissions, transitions) -> np.ndarray:
    """Best-scoring token path under the full graph (max replaces logadd).

    Ties resolve to the lowest token index at every step, so decoding is
    deterministic.
    """
    em = _as_array(emissions)
    tr = _as_array(transitions)
    t_len, k = em.shape
    if t_len < 1:
        raise ValueError("viterbi_decode: need at least one frame")
    delta = em[0].copy()
    back = np.zeros((t_len, k), dtype=np.int64)
    for t in range(1, t_len):
        cand = delta[:, None] + tr  # cand[j, i]: arrive at i from j
        best_j = np.argmax(cand, axis=0)  # first max = lowest source index
        back[t] = best_j
        delta = em[t] + cand[best_j, np.arange(k)]
    path = np.zeros(t_len, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def path_score(emissions, transitions, path: Sequence[int]) -> float:
    """Score of one frame path: emissions along it plus transition hops."""
    em = _as_array(emissions)
    tr = _as_array(transitions)
    toks = [int(p) for p in path]
    total = em[0, toks[0]]
    for t in range(1, len(toks)):
        total += em[t, toks[t]] + tr[toks[t - 1], toks[t]]
    return float(total)


def collapse(path: Sequence[int]) -> tuple[int, ...]:
    """Merge adjacent repeats of a frame path into a token sequence."""
    out: list[int] = []
    for tok in path:
        tok = int(tok)
        if not out or out[-1] != tok:
            out.append(tok)
    return tuple(out)
