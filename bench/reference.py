"""Reference computations the benchmark checks the program against.

Plain numpy and Python, written apart from gradflip and sharing no code
with it: the ASG forward score, the best path score under max-plus, and
the Levenshtein distance, with the collapse and word split that LER and
WER apply before it. test_reference.py checks each against brute-force
enumeration on tiny inputs.
"""

from __future__ import annotations

import numpy as np


def _logadd(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(a - m).sum(axis=axis))


def asg_forward(emissions: np.ndarray, transitions: np.ndarray, target) -> float:
    """ASG loss: log-add over all frame paths minus log-add over the
    frame paths that align to the target (each frame emits one token, a
    token may repeat over frames, and the path visits the target's tokens
    in order)."""
    em = np.asarray(emissions, dtype=np.float64)
    tr = np.asarray(transitions, dtype=np.float64)
    y = np.asarray(target, dtype=np.int64)
    full = em[0].copy()
    for t in range(1, len(em)):
        full = em[t] + _logadd(full[:, None] + tr, axis=0)
    stay = tr[y, y]
    move = tr[y[:-1], y[1:]]
    align = np.full(len(y), -np.inf)
    align[0] = em[0, y[0]]
    for t in range(1, len(em)):
        nxt = align + stay
        with np.errstate(invalid="ignore"):  # -inf + -inf before any path arrives
            nxt[1:] = np.logaddexp(nxt[1:], align[:-1] + move)
        align = nxt + em[t, y]
    return float(_logadd(full, axis=0) - align[-1])


def best_path_score(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """Highest score of any frame path (max replaces log-add)."""
    em = np.asarray(emissions, dtype=np.float64)
    tr = np.asarray(transitions, dtype=np.float64)
    best = em[0].copy()
    for t in range(1, len(em)):
        best = em[t] + (best[:, None] + tr).max(axis=0)
    return float(best.max())


def collapse(path) -> tuple:
    return tuple(int(p) for i, p in enumerate(path) if i == 0 or p != path[i - 1])


def words(tokens, separator: int) -> list[tuple]:
    out, cur = [], []
    for tok in list(tokens) + [separator]:
        if tok == separator:
            if cur:
                out.append(tuple(cur))
            cur = []
        else:
            cur.append(tok)
    return out


def levenshtein(a, b) -> int:
    """Fewest insertions, deletions and substitutions turning a into b."""
    a, b = list(a), list(b)
    dist = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    dist[:, 0] = np.arange(len(a) + 1)
    dist[0, :] = np.arange(len(b) + 1)
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dist[i, j] = min(
                dist[i - 1, j] + 1, dist[i, j - 1] + 1, dist[i - 1, j - 1] + (a[i - 1] != b[j - 1])
            )
    return int(dist[-1, -1])
