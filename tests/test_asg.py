import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflip import asg
from gradflip.layers import Packing
from gradflip import tensor as tz
from gradflip.tensor import Tensor
from helpers import check_gradients


def enum_full_logadd(em, tr):
    """Independent oracle: logadd over all K^T paths by explicit enumeration."""
    t_len, k = em.shape
    scores = [asg.path_score(em, tr, p) for p in itertools.product(range(k), repeat=t_len)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def enum_constrained_logadd(em, tr, target):
    """logadd over paths whose collapse equals the target."""
    t_len, k = em.shape
    target = tuple(target)
    scores = [
        asg.path_score(em, tr, p)
        for p in itertools.product(range(k), repeat=t_len)
        if asg.collapse(p) == target
    ]
    assert scores, "target has no alignment"
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def random_target_fixed_len(rng, k, n):
    """Duplicate-free random target of exactly n tokens from a k-vocabulary."""
    toks = [int(rng.integers(0, k))]
    while len(toks) < n:
        nxt = int(rng.integers(0, k - 1))
        toks.append(nxt if nxt < toks[-1] else nxt + 1)
    return toks


def test_uniform_single_frame_is_uniform_nll():
    em = Tensor(np.zeros((1, 3)))
    tr = Tensor(np.zeros((3, 3)))
    for tok in range(3):
        loss = asg.asg_loss(em, tr, [tok])
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_zero_scores_t3_k4_n2_ln32():
    # 2 monotone alignments vs 4^3 = 64 paths: loss = ln(64/2) = ln 32
    em = Tensor(np.zeros((3, 4)))
    tr = Tensor(np.zeros((4, 4)))
    loss = asg.asg_loss(em, tr, [0, 1])
    assert loss.item() == pytest.approx(math.log(32.0), abs=1e-9)
    assert loss.item() == pytest.approx(3.465736, abs=1e-6)


def test_alignment_count_matches_binomial():
    # sanity for the oracle itself: # alignments of an N-token target in T frames
    for t_len, n in [(3, 2), (4, 2), (4, 3)]:
        paths = [
            p
            for p in itertools.product(range(3), repeat=t_len)
            if asg.collapse(p) == tuple(range(n))
        ]
        assert len(paths) == math.comb(t_len - 1, n - 1)


def test_dp_matches_enumeration_randomized():
    rng = np.random.default_rng(2026)
    for t_len in range(1, 5):
        for k in (2, 3):
            for n in range(1, t_len + 1):
                for _ in range(20):
                    em_v = rng.normal(size=(t_len, k)) * 2.0
                    tr_v = rng.normal(size=(k, k))
                    target = random_target_fixed_len(rng, k, n)
                    em, tr = Tensor(em_v), Tensor(tr_v)
                    loss = asg.asg_loss(em, tr, target).item()
                    ref = enum_full_logadd(em_v, tr_v) - enum_constrained_logadd(em_v, tr_v, target)
                    assert abs(loss - ref) <= 1e-9


def test_loss_nonnegative_and_zero_only_when_one_path_dominates():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t_len, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        em_v = rng.normal(size=(t_len, k)) * 3.0
        tr_v = rng.normal(size=(k, k))
        target = random_target_fixed_len(rng, k, int(rng.integers(1, t_len + 1)))
        loss = asg.asg_loss(Tensor(em_v), Tensor(tr_v), target).item()
        assert loss >= 0.0
    # one path carries essentially all mass: loss tends to zero
    em_v = np.full((3, 3), -50.0)
    em_v[:, 1] = 50.0
    loss = asg.asg_loss(Tensor(em_v), Tensor(np.zeros((3, 3))), [1]).item()
    assert 0.0 <= loss < 1e-9
    # uniform scores spread mass: loss strictly positive
    loss = asg.asg_loss(Tensor(np.zeros((3, 3))), Tensor(np.zeros((3, 3))), [1]).item()
    assert loss > 0.5


def test_gradients_vs_finite_differences():
    rng = np.random.default_rng(6)
    em_v = rng.normal(size=(3, 3))
    tr_v = rng.normal(size=(3, 3))
    target = [0, 2]

    def build(em, tr):
        return asg.asg_loss(em, tr, target)

    check_gradients(build, [em_v, tr_v], tol=1e-6)


def test_gradients_longer_instance():
    rng = np.random.default_rng(7)
    em_v = rng.normal(size=(6, 4))
    tr_v = rng.normal(size=(4, 4))
    # a repeated token; a repeated move edge (0 -> 1 twice); N = T, which has
    # exactly one alignment; and N = 1
    for target in ([1, 0, 3, 0], [0, 1, 0, 1], [2, 0, 1, 3, 1, 0], [2]):
        check_gradients(lambda em, tr: asg.asg_loss(em, tr, target), [em_v, tr_v], tol=1e-6)


def test_loss_records_at_most_three_tape_nodes():
    # each score is one fused node, joined by one sub: the graph does not grow with T
    rng = np.random.default_rng(11)
    em = Tensor(rng.normal(size=(40, 7)), grad_tracked=True)
    tr = Tensor(rng.normal(size=(7, 7)), grad_tracked=True)
    loss = asg.asg_loss(em, tr, [0, 6, 1, 5, 0, 6, 2, 3])
    assert len(tz._topo_from(loss)) <= 3


def test_per_frame_shift_invariance():
    rng = np.random.default_rng(8)
    em_v = rng.normal(size=(4, 3))
    tr_v = rng.normal(size=(3, 3))
    target = [2, 1]
    base = asg.asg_loss(Tensor(em_v), Tensor(tr_v), target).item()
    shifted = em_v.copy()
    shifted[2, :] += 7.3  # constant added to every emission of frame 2
    after = asg.asg_loss(Tensor(shifted), Tensor(tr_v), target).item()
    assert after == pytest.approx(base, abs=1e-9)


def test_target_validation_errors():
    em = Tensor(np.zeros((2, 3)))
    tr = Tensor(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="exceeds frame count"):
        asg.asg_loss(em, tr, [0, 1, 2])
    with pytest.raises(ValueError, match="adjacent duplicate"):
        asg.asg_loss(em, tr, [1, 1])
    with pytest.raises(ValueError, match="outside vocabulary"):
        asg.asg_loss(em, tr, [3])
    with pytest.raises(ValueError, match="at least one"):
        asg.asg_loss(em, tr, [])


# --- viterbi ---


def test_viterbi_peaked_emissions_follow_argmax():
    em = np.zeros((4, 3))
    want = [2, 0, 1, 1]
    for t, tok in enumerate(want):
        em[t, tok] = 10.0
    path = asg.viterbi_decode(em, np.zeros((3, 3)))
    assert path.tolist() == want


def test_viterbi_all_equal_ties_to_zero():
    path = asg.viterbi_decode(np.ones((5, 3)), np.ones((3, 3)))
    assert path.tolist() == [0, 0, 0, 0, 0]


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(9)
    for t_len in range(1, 5):
        for k in (2, 3):
            for _ in range(20):
                em = rng.normal(size=(t_len, k))
                tr = rng.normal(size=(k, k))
                path = asg.viterbi_decode(em, tr)
                best = max(
                    asg.path_score(em, tr, p)
                    for p in itertools.product(range(k), repeat=t_len)
                )
                assert asg.path_score(em, tr, path) == pytest.approx(best, abs=1e-12)


def test_viterbi_tie_break_lowest_among_optima():
    # tokens 0 and 1 are exactly symmetric; path of 0s must win
    em = np.zeros((3, 2))
    tr = np.zeros((2, 2))
    path = asg.viterbi_decode(em, tr)
    assert path.tolist() == [0, 0, 0]


# --- collapse ---


def test_collapse_examples():
    assert asg.collapse([0, 0, 1, 1, 1, 0]) == (0, 1, 0)
    assert asg.collapse([0]) == (0,)
    assert asg.collapse([]) == ()


def test_collapse_of_constrained_alignment_recovers_target():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = 4
        n = int(rng.integers(1, 4))
        target = random_target_fixed_len(rng, k, n)
        t_len = n + int(rng.integers(0, 4))
        # random monotone alignment: distribute extra frames as repeats
        reps = np.ones(n, dtype=int)
        for _ in range(t_len - n):
            reps[int(rng.integers(0, n))] += 1
        path = [tok for tok, r in zip(target, reps) for _ in range(r)]
        assert asg.collapse(path) == tuple(target)


# --- packed batches ---

# (T, target): T = 1, N = T, N = 1, and a token repeated non-adjacently
RAGGED = [(1, [2]), (5, [0, 1, 0, 1, 2]), (7, [3]), (6, [1, 2, 1]), (4, [0, 3])]


def ragged_batch(seed, k=4):
    rng = np.random.default_rng(seed)
    lengths = [t for t, _ in RAGGED]
    em = rng.normal(size=(sum(lengths), k)) * 2.0
    return em, rng.normal(size=(k, k)), [y for _, y in RAGGED], Packing(lengths)


def test_batched_losses_and_emission_gradients_equal_batches_of_one_bitwise():
    # pins where a path starts and ends and what beta does past an
    # utterance's last frame: padding an utterance into a batch moves no bit
    for seed in range(20):
        em, trs, targets, packing = ragged_batch(seed)
        packed = Tensor(em, grad_tracked=True)
        losses = asg.asg_losses(packed, Tensor(trs), targets, packing)
        (em_grad,) = tz.backward(tz.sum_reduce(losses), [packed])
        for b, (block, y) in enumerate(zip(packing.split(em), targets, strict=True)):
            lone = Tensor(block, grad_tracked=True)
            loss = asg.asg_loss(lone, Tensor(trs), y)
            (lone_grad,) = tz.backward(loss, [lone])
            assert loss.data.tobytes() == losses.data[b : b + 1].tobytes()
            assert lone_grad.tobytes() == em_grad[packing.starts[b] : packing.ends[b]].tobytes()


def test_batched_loss_gradients():
    em, trs, targets, packing = ragged_batch(11)
    # distinct weights: each utterance's posteriors carry its own upstream gradient
    weights = Tensor(np.arange(1.0, len(packing) + 1.0))
    check_gradients(
        lambda e, t: tz.sum_reduce(tz.mul(asg.asg_losses(e, t, targets, packing), weights)), [em, trs], tol=1e-6
    )


def test_batched_losses_no_cross_talk():
    em, trs, targets, packing = ragged_batch(12)
    base = asg.asg_losses(Tensor(em), Tensor(trs), targets, packing).data
    changed = em.copy()
    changed[packing.starts[3] : packing.ends[3]] += 5.0
    other = asg.asg_losses(Tensor(changed), Tensor(trs), targets[:3] + [[2, 0, 2, 3]] + targets[4:], packing).data
    keep = np.arange(len(packing)) != 3
    assert np.array_equal(base[keep], other[keep]) and base[3] != other[3]


def test_batched_viterbi_matches_per_utterance_with_ties():
    rng = np.random.default_rng(13)
    packing = Packing([1, 3, 6, 2, 5, 4])
    for _ in range(20):
        # integer scores on a coarse grid make tied optima common
        em = rng.integers(0, 2, size=(packing.rows, 3)).astype(float)
        trs = rng.integers(0, 2, size=(3, 3)).astype(float)
        for path, block in zip(asg.viterbi(em, trs, packing), packing.split(em)):
            assert np.array_equal(path, asg.viterbi_decode(block, trs))
    paths = asg.viterbi(np.zeros((packing.rows, 3)), np.zeros((3, 3)), packing)
    assert all(not p.any() for p in paths)


def test_split_sized_pack_matches_per_utterance_with_ties():
    # an eval pack holds a whole split: many short utterances padded with
    # -inf to one long one
    rng = np.random.default_rng(14)
    lengths = rng.integers(1, 6, size=80)
    lengths[[0, 41]] = [60, 58]
    packing = Packing(lengths.tolist())
    for _ in range(5):
        em = rng.integers(0, 2, size=(packing.rows, 4)).astype(float)
        trs = rng.integers(0, 2, size=(4, 4)).astype(float)
        for path, block in zip(asg.viterbi(em, trs, packing), packing.split(em), strict=True):
            assert np.array_equal(path, asg.viterbi_decode(block, trs))


# --- bit-identity oracles: the earlier forms, kept here verbatim ---


def old_viterbi(em, tr, packing):
    """Viterbi as the shared forward sweep with max in place of logadd
    (candidates cand[b, j, i], source axis in the middle), then the same
    backtrack. Returns (paths, delta)."""
    padded = asg._padded(em, packing)
    delta = np.empty_like(padded)
    delta[:, 0] = padded[:, 0]
    back = np.zeros(padded.shape, dtype=np.int64)
    for t in range(1, padded.shape[1]):
        cand = delta[:, t - 1, :, None] + tr
        back[:, t] = np.argmax(cand, axis=1)
        delta[:, t] = padded[:, t] + np.take_along_axis(cand, back[:, t, None], axis=1)[:, 0]
    last = packing.lengths - 1
    rows = np.arange(len(last))
    final = np.argmax(delta[rows, last], axis=1)
    paths = np.zeros(delta.shape[:2], dtype=np.int64)
    state = final
    for t in range(delta.shape[1] - 1, -1, -1):
        state = np.where(last == t, final, state)
        paths[:, t] = state
        state = back[rows, t, state]
    return [p[:n] for p, n in zip(paths, packing.lengths)], delta


def old_collapse(path):
    out = []
    for tok in path:
        tok = int(tok)
        if not out or out[-1] != tok:
            out.append(tok)
    return tuple(out)


@st.composite
def decode_batches(draw):
    """A packed batch with length-1 utterances among others, and emissions
    and transitions that are either small integers (ties everywhere) or
    normal draws."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    packing = Packing(lengths)
    if draw(st.booleans()):
        em = rng.integers(-1, 2, size=(packing.rows, k)).astype(float)
        tr = rng.integers(-1, 2, size=(k, k)).astype(float)
    else:
        em, tr = rng.normal(size=(packing.rows, k)), rng.normal(size=(k, k))
    return em, tr, packing


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batch=decode_batches())
def test_viterbi_bitwise_matches_shared_sweep_form(batch):
    em, tr, packing = batch
    want_paths, want_delta = old_viterbi(em, tr, packing)
    delta, _ = asg._max_sweep(asg._padded(em, packing), tr)
    assert delta.tobytes() == want_delta.tobytes()
    got = asg.viterbi(em, tr, packing)
    assert len(got) == len(want_paths)
    for path, want in zip(got, want_paths):
        assert path.dtype == want.dtype and np.array_equal(path, want)


def test_viterbi_ties_and_single_frames_match_shared_sweep_form():
    # every score equal: every step is a K-way tie, and lone frames end at t = 0
    packing = Packing([1, 4, 1, 1, 6, 1])
    for k in (1, 2, 5):
        em, tr = np.ones((packing.rows, k)), np.zeros((k, k))
        want, _ = old_viterbi(em, tr, packing)
        assert all(np.array_equal(p, w) for p, w in zip(asg.viterbi(em, tr, packing), want, strict=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(path=st.lists(st.integers(0, 4), max_size=30))
def test_collapse_matches_python_loop(path):
    want = old_collapse(path)
    for form in (path, np.array(path, dtype=np.int64)):
        got = asg.collapse(form)
        assert got == want and all(type(tok) is int for tok in got)
