"""Shared test utilities: finite-difference gradient oracle and friends."""

from __future__ import annotations

import numpy as np

from gradflip import model as gm, tensor as tz

EPS = 1e-5


def finite_diff(f, arrays, eps=EPS):
    """Central finite differences of scalar f(*arrays) wrt each array.

    f receives plain numpy arrays (copies) and must return a float. The
    oracle never touches the autodiff tape.
    """
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        flat = g.reshape(-1)
        for i in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[k].reshape(-1)[i] += eps
            hi = f(*bumped)
            bumped = [a.copy() for a in arrays]
            bumped[k].reshape(-1)[i] -= eps
            lo = f(*bumped)
            flat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def grad_error(analytic, numeric):
    """Scaled gradient discrepancy: |a - n| / max(1, |a|, |n|), elementwise max."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def check_gradients(build_loss, arrays, tol=1e-6, eps=EPS):
    """Assert tape gradients of build_loss match finite differences.

    build_loss(*tensors) -> scalar Tensor; arrays are the leaf values.
    Returns the worst scaled error over all inputs.
    """
    leaves = [tz.Tensor(a.copy(), grad_tracked=True) for a in arrays]
    loss = build_loss(*leaves)
    analytic = tz.backward(loss, leaves)

    def eval_loss(*vals):
        with tz.no_grad():
            ts = [tz.Tensor(v) for v in vals]
            return build_loss(*ts).item()

    numeric = finite_diff(eval_loss, [a.copy() for a in arrays], eps=eps)
    worst = max(grad_error(a, n) for a, n in zip(analytic, numeric))
    assert worst <= tol, f"gradient check failed: scaled error {worst:.3e} > {tol}"
    return worst


def count_tape_nodes(monkeypatch):
    """Spy on tz.backward: appends the number of recorded nodes of each
    tape it differentiates."""
    counts = []
    backward = tz.backward

    def spy(loss, wrt):
        counts.append(len(tz._topo_from(loss)))
        return backward(loss, wrt)

    monkeypatch.setattr(tz, "backward", spy)
    return counts


# eval frame budgets: every utterance alone, several per pack, the
# default, and a whole split in one pack
EVAL_BUDGETS = (1, 100, gm.EVAL_FRAMES, 10**9)


def under_eval_budgets(monkeypatch, run):
    """run() once under each of EVAL_BUDGETS; returns the results in order."""
    results = []
    for budget in EVAL_BUDGETS:
        monkeypatch.setattr(gm, "EVAL_FRAMES", budget)
        results.append(run())
    return results
