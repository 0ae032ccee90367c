"""AutoSeg sequence criterion.

Blank-free sequence loss over a T x K emission matrix and a trainable
K x K transition score matrix:

    loss = logadd over all K^T frame paths
         - logadd over the monotone alignments of the target

Each score is the log-add over the paths of a state graph. The full
graph's states are the K tokens, the constrained graph's the N target
positions joined by stay and move edges. Targets have no adjacent
duplicates (no repetition tokens are used). The loss of a packed batch
(`layers.Packing`), `asg_losses`, is one tape node. Both graphs of every
utterance, padded to a common length and state count, run through one
forward-backward routine, `_forward_backward`: its alpha pass gives the
scores, and its beta pass, run only for a backward, the state and edge
posteriors that are their gradients. Viterbi decoding (`viterbi`) runs
its own max-plus loop over the same padded batch. A lone utterance is the
batch of one.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from gradflip import tensor as tz
from gradflip.layers import Packing
from gradflip.tensor import Tensor

__all__ = [
    "validate_target", "asg_losses", "viterbi", "asg_loss", "full_logadd", "constrained_logadd",
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


def _padded(frames: np.ndarray, packing: Packing) -> np.ndarray:
    """(B, T_max, X) frames of each packed utterance, -inf past its end, so
    that no path of an utterance continues into the padding."""
    return np.concatenate([frames, np.full((1,) + frames.shape[1:], -np.inf)])[packing.grid()]


def _forward_backward(f: np.ndarray, start, end, final: np.ndarray, into, out_of, edge_grads):
    """One state graph over a padded batch, f (B, T, S) the frame score of
    each state, -inf past frame final[b] so that no path runs into the
    padding. Paths start in the states where `start` holds and end at frame
    final[b] in the states whose log weight `end` is 0 rather than -inf:

        alpha_t = f_t + into(alpha_{t-1}),   beta_{t-1} = out_of(f_t + beta_t)

    with beta `end` from frame final[b] on. Returns log Z (B,) and a function
    of the per-utterance upstream gradient that runs the beta pass and hands
    the scaled state posteriors, alpha_{t-1} and f_t + beta_t - log Z to
    `edge_grads`, the graph's gradient formula.
    """
    alpha = np.empty_like(f)
    alpha[:, 0] = np.where(start, f[:, 0], -np.inf)
    for t in range(1, f.shape[1]):
        alpha[:, t] = f[:, t] + into(alpha[:, t - 1])
    log_z = _logsumexp(alpha[np.arange(len(final)), final] + end, axis=1)

    def grads(scale):
        beta = np.empty_like(f)
        beta[:, -1] = end
        for t in range(f.shape[1] - 1, 0, -1):
            beta[:, t - 1] = np.where((t - 1 >= final)[:, None], end, out_of(f[:, t] + beta[:, t]))
        z, scale = log_z[:, None, None], scale[:, None, None]
        states = np.exp(alpha + beta - z) * scale
        return edge_grads(states, alpha[:, :-1], f[:, 1:] + beta[:, 1:] - z, scale)

    return log_z, grads


def _full_graph(em: np.ndarray, tr: np.ndarray, final: np.ndarray):
    """Log-add score of all paths of each utterance, em (B, T, K) padded with
    -inf past frame final[b]; a path starts and ends at any token. Returns
    the scores (B,) and a function of the per-utterance upstream gradient
    giving the gradients of em and tr."""

    def edge_grads(states, before, ahead, scale):
        edges = np.exp(before[:, :, :, None] + tr + ahead[:, :, None, :])
        return states, (edges * scale[:, None]).sum(axis=(0, 1))

    return _forward_backward(
        em, True, 0.0, final,
        lambda a: _logsumexp(a[:, :, None] + tr, axis=1),  # [b, j, i]: arrive at i from j
        lambda ahead: _logsumexp(tr + ahead[:, None, :], axis=2),
        edge_grads,
    )


def _target_graph(em: np.ndarray, tr: np.ndarray, final: np.ndarray, targets):
    """Log-add score of the monotone alignments of each target, em (B, T, K)
    padded as for `_full_graph`, which it matches in what it returns.

    States are target positions n, with a stay edge n -> n and a move edge
    n-1 -> n, so a forward step is the log-add of two terms:

        alpha_t(n) = f_t(y_n) + logadd(alpha_{t-1}(n)   + g(y_n, y_n),
                                       alpha_{t-1}(n-1) + g(y_{n-1}, y_n))

    Paths start at position 1 and end at position N. Targets are padded
    with positions no edge reaches, whose alpha and beta stay -inf, to one
    past the longest. That last column is a wall: position 1's predecessor
    and position N_max's successor.
    """
    k = em.shape[2]
    ys = [validate_target(y, k, n + 1) for y, n in zip(targets, final)]
    n_pos = np.array([len(y) for y in ys])[:, None]
    y = np.zeros((len(ys), n_pos.max() + 1), dtype=np.int64)
    for b, yb in enumerate(ys):
        y[b, : len(yb)] = yb
    pos = np.arange(y.shape[1])
    prev, after = pos - 1, np.minimum(pos + 1, pos[-1])  # the wall is index -1 and its own successor
    stay = np.where(pos < n_pos, tr[y, y], -np.inf)
    move = np.where((pos > 0) & (pos < n_pos), tr[y[:, prev], y], -np.inf)
    f = em[np.arange(len(ys))[:, None, None], np.arange(em.shape[1])[None, :, None], y[:, None, :]]

    def edge_grads(states, before, ahead, scale):
        stays = (np.exp(before + stay[:, None] + ahead) * scale).sum(axis=1)
        moves = (np.exp(before[:, :, prev] + move[:, None] + ahead) * scale).sum(axis=1)
        # tokens repeat within a target, so several positions share a column
        rows = np.arange(f.shape[0] * f.shape[1]).reshape(f.shape[:2])
        em_grad = np.bincount((rows[:, :, None] * k + y[:, None, :]).reshape(-1), weights=states.reshape(-1),
                              minlength=em.size).reshape(em.shape)
        tr_grad = np.bincount(np.concatenate([(y * k + y).reshape(-1), (y[:, prev] * k + y).reshape(-1)]),
                              weights=np.concatenate([stays.reshape(-1), moves.reshape(-1)]), minlength=k * k)
        return em_grad, tr_grad.reshape(k, k)

    return _forward_backward(
        f, pos == 0, np.where(pos == n_pos - 1, 0.0, -np.inf), final,
        lambda a: np.logaddexp(a + stay, a[:, prev] + move),
        lambda ahead: np.logaddexp(stay + ahead, (move + ahead)[:, after]),
        edge_grads,
    )


def _scores(op, emissions: Tensor, transitions: Tensor, packing: Packing, graphs, shape) -> Tensor:
    """One tape node: per utterance of a packed batch, the signed sum of its
    graph scores. `graphs` holds (sign, graph) pairs, a graph being
    `_full_graph` or `_target_graph` with the targets bound. numpy stays
    quiet: the node's check rejects the non-finite score of a diverging
    input.
    """
    k = emissions.shape[1]
    if transitions.shape != (k, k):
        raise tz.ShapeMismatch(f"transitions {transitions.shape} do not match K={k}")
    em, tr, final = _padded(emissions.data, packing), transitions.data, packing.lengths - 1
    with np.errstate(all="ignore"):
        parts = [(sign, *graph(em, tr, final)) for sign, graph in graphs]

    def bw(g, grads):
        with np.errstate(all="ignore"):
            em_grad, tr_grad = map(sum, zip(*(graph_grads(sign * g.reshape(-1)) for sign, _, graph_grads in parts)))
        tz._acc(grads, emissions, em_grad[packing.segment, packing.offset])
        tz._acc(grads, transitions, tr_grad)

    value = sum(sign * log_z for sign, log_z, _ in parts)
    return tz._node(np.reshape(value, shape), op, (emissions, transitions), bw)


def asg_losses(emissions: Tensor, transitions: Tensor, targets, packing: Packing, shape=None) -> Tensor:
    """ASG loss of every utterance of a packed batch, (B,), as one tape node."""
    graphs = [(1.0, _full_graph), (-1.0, partial(_target_graph, targets=targets))]
    return _scores("asg_loss", emissions, transitions, packing, graphs, shape or (len(packing),))


def full_logadd(emissions: Tensor, transitions: Tensor) -> Tensor:
    """log-add score of all K^T paths (see `_full_graph`)."""
    packing = Packing((emissions.shape[0],))
    return _scores("full_logadd", emissions, transitions, packing, [(1.0, _full_graph)], (1, 1))


def constrained_logadd(emissions: Tensor, transitions: Tensor, target: Sequence[int]) -> Tensor:
    """log-add score of every monotone alignment of the target (see `_target_graph`)."""
    packing = Packing((emissions.shape[0],))
    graphs = [(1.0, partial(_target_graph, targets=[target]))]
    return _scores("constrained_logadd", emissions, transitions, packing, graphs, (1, 1))


def asg_loss(emissions: Tensor, transitions: Tensor, target: Sequence[int]) -> Tensor:
    """ASG loss = full_logadd - constrained_logadd; non-negative scalar."""
    return asg_losses(emissions, transitions, [target], Packing((emissions.shape[0],)), (1, 1))


def _max_sweep(em: np.ndarray, tr: np.ndarray):
    """The max-plus form of the full graph's alpha pass, em (B, T, K), with
    backpointers back[t, b, i], the source j of state i:

        delta_t(i) = em_t(i) + max_j(delta_{t-1}(j) + tr(j, i))

    The source axis is last, and argmax takes its first maximum: ties go to
    the lowest source token."""
    n, t_max, k = em.shape
    delta, back = np.empty_like(em), np.zeros((t_max, n, k), dtype=np.intp)
    delta[:, 0] = em[:, 0]
    cand, starts = np.empty((n, k, k)), np.arange(n * k) * k  # starts: flat index of cand[b, i, 0]
    for t in range(1, t_max):
        np.add(delta[:, t - 1, None, :], tr.T, out=cand)  # cand[b, i, j]: arrive at i from j
        cand.argmax(axis=2, out=back[t])
        np.add(em[:, t], cand.reshape(-1).take(starts + back[t].reshape(-1)).reshape(n, k), out=delta[:, t])
    return delta, back


def viterbi(em: np.ndarray, tr: np.ndarray, packing: Packing) -> list[np.ndarray]:
    """Best-scoring full-graph path of each utterance of a packed batch:
    the max-plus sweep over the padded batch, then a backtrack from each
    utterance's own last frame."""
    last = packing.lengths - 1
    rows = np.arange(len(last))
    delta, back = _max_sweep(_padded(em, packing), tr)
    final = np.argmax(delta[rows, last], axis=1)
    paths = np.zeros(delta.shape[:2], dtype=np.int64)
    state = final
    for t in range(delta.shape[1] - 1, -1, -1):
        state = np.where(last == t, final, state)  # utterances ending at t start here
        paths[:, t] = state
        state = back[t, rows, state]
    return [p[:n] for p, n in zip(paths, packing.lengths)]


def viterbi_decode(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Best-scoring token path under the full graph (max replaces logadd).

    Ties resolve to the lowest token index at every step, so decoding is
    deterministic.
    """
    em = np.asarray(emissions, dtype=np.float64)
    if em.shape[0] < 1:
        raise ValueError("viterbi_decode: need at least one frame")
    return viterbi(em, np.asarray(transitions, dtype=np.float64), Packing((em.shape[0],)))[0]


def path_score(emissions: np.ndarray, transitions: np.ndarray, path: Sequence[int]) -> float:
    """Score of one frame path: emissions along it plus transition hops."""
    em = np.asarray(emissions, dtype=np.float64)
    tr = np.asarray(transitions, dtype=np.float64)
    toks = [int(p) for p in path]
    total = em[0, toks[0]]
    for t in range(1, len(toks)):
        total += em[t, toks[t]] + tr[toks[t - 1], toks[t]]
    return float(total)


def collapse(path: Sequence[int]) -> tuple[int, ...]:
    """Merge adjacent repeats of a frame path into a token sequence."""
    p = np.asarray(path, dtype=np.int64).reshape(-1)
    keep = np.ones(len(p), dtype=bool)  # a token is kept where it differs from the one before
    np.not_equal(p[1:], p[:-1], out=keep[1:])
    return tuple(p[keep].tolist())
