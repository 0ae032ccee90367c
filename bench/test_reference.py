"""The benchmark's reference computations against brute-force enumeration
of all K^T frame paths on tiny inputs. Each test runs well under a second.

    python3 -m pytest -q bench/test_reference.py
"""

import itertools
import math

import numpy as np

import reference as ref


def _path_scores(em, tr):
    t_len, k = em.shape
    for path in itertools.product(range(k), repeat=t_len):
        score = em[0, path[0]] + sum(em[t, path[t]] + tr[path[t - 1], path[t]] for t in range(1, t_len))
        yield path, score


def _logsumexp(values):
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def _instances():
    rng = np.random.default_rng(20240611)
    for t_len, k, target in ((1, 2, (1,)), (3, 3, (0, 2)), (4, 3, (2, 0, 2)), (5, 4, (3, 1)), (6, 3, (0, 1, 2, 1))):
        yield rng.normal(size=(t_len, k)) * 2.0, rng.normal(size=(k, k)), target


def test_asg_forward_matches_enumeration():
    for em, tr, target in _instances():
        scores = list(_path_scores(em, tr))
        full = _logsumexp([s for _, s in scores])
        aligned = _logsumexp([s for p, s in scores if ref.collapse(p) == tuple(target)])
        assert abs(ref.asg_forward(em, tr, target) - (full - aligned)) <= 1e-12 * max(1.0, abs(full))


def test_best_path_score_matches_enumeration():
    for em, tr, _ in _instances():
        best = max(s for _, s in _path_scores(em, tr))
        assert abs(ref.best_path_score(em, tr) - best) <= 1e-12 * max(1.0, abs(best))


def _edit_brute(a, b):
    # the recursive definition, without memoisation
    if not a or not b:
        return len(a) + len(b)
    return min(
        _edit_brute(a[1:], b) + 1,
        _edit_brute(a, b[1:]) + 1,
        _edit_brute(a[1:], b[1:]) + (a[0] != b[0]),
    )


def test_levenshtein_matches_recursion():
    for n, m in itertools.product(range(5), repeat=2):
        for a in itertools.product("ab", repeat=n):
            for b in itertools.product("ab", repeat=m):
                assert ref.levenshtein(a, b) == _edit_brute(a, b)
    assert ref.levenshtein([(0, 1), (2,)], [(0, 1)]) == 1  # words compare whole


def test_collapse_and_words():
    assert ref.collapse([2, 2, 0, 0, 0, 2, 1]) == (2, 0, 2, 1)
    assert ref.words((6, 0, 1, 6, 6, 2, 6), 6) == [(0, 1), (2,)]
