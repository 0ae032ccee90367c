import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflip import asg, model as gm, tensor as tz
from gradflip.layers import PoolingConfig
from gradflip.model import ModelConfig, build_model
from gradflip.rng import RngStream
from helpers import grad_error


def toy_config(**kw):
    base = dict(
        in_dim=4,
        n_layers=5,
        channels=6,
        vocab_size=4,
        n_speakers=3,
        fork_layer=3,
        kernel_width=3,
        dropout_rate=0.25,
        pooling=PoolingConfig("logsumexp", 1.0),
        branch_channels=5,
        branch_kernel=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def rand_input(t_len=6, dim=4, seed=0):
    return np.random.default_rng(seed).normal(size=(t_len, dim))


# --- construction ---


def test_fork_presets_match_convention():
    assert gm.resolve_fork(17, "in") == 2
    assert gm.resolve_fork(17, "mid") == 8
    assert gm.resolve_fork(17, "out") == 15
    assert gm.resolve_fork(5, "in") == 1
    assert gm.resolve_fork(5, "mid") == 3
    assert gm.resolve_fork(5, "out") == 4


def test_full_scale_preset_builds():
    cfg = ModelConfig(
        in_dim=8, n_layers=17, channels=10, vocab_size=5, n_speakers=4,
        fork_layer=gm.resolve_fork(17, "mid"), kernel_width=5, dropout_rate=0.25,
        pooling=PoolingConfig("logsumexp", 1.0), branch_channels=200, branch_kernel=5,
    )
    m = build_model(cfg, seed=1)
    # branch preset: width 5, 200 feature maps
    assert m.branch.conv.kernel_width == 5
    assert m.branch.conv.out_channels == 200
    assert len(m.stack) == 17
    # forward/backward smoke through the deep stack
    x = rand_input(t_len=5, dim=8, seed=40)
    em, logits = gm.forward_joint(m, x, factor=-0.1)
    assert em.shape == (5, 5) and logits.shape == (4,)
    grads = tz.backward(gm.speaker_nll(logits, 2), m.params)
    assert any(np.any(grads[n] != 0.0) for n in m.params.group_names("main"))


def test_param_count_matches_closed_form():
    cfg = toy_config(in_dim=4, n_layers=5, channels=16, kernel_width=5,
                     vocab_size=7, n_speakers=12, branch_channels=32, branch_kernel=5)
    m = build_model(cfg, seed=3)

    def gated(cin, cout, width):
        return width * cin * 2 * cout + 2 * cout + 2 * cout  # v + g + b

    def linear(cin, cout):
        return cin * cout + cout + cout

    expect = gated(4, 16, 5) + 4 * gated(16, 16, 5) + linear(16, 7)
    expect += gated(16, 32, 5) + linear(32, 12)  # speaker branch
    expect += 7 * 7  # transitions
    total = sum(t.size for _, t, _ in m.params.items())
    assert total == expect


def test_fork_out_of_range_errors():
    with pytest.raises(ValueError, match="fork_layer"):
        toy_config(fork_layer=5)
    with pytest.raises(ValueError, match="fork_layer"):
        toy_config(fork_layer=0)


def test_group_partition_covers_all_params():
    m = build_model(toy_config(), seed=4)
    main = set(m.params.group_names("main"))
    speaker = set(m.params.group_names("speaker"))
    assert main | speaker == set(m.params.names())
    assert not (main & speaker)
    assert all(n.startswith("spk.") for n in speaker)
    assert "asg.trans" in main


def test_same_seed_same_init():
    m1 = build_model(toy_config(), seed=9)
    m2 = build_model(toy_config(), seed=9)
    for (n1, t1, _), (n2, t2, _) in zip(m1.params.items(), m2.params.items()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)


# --- forward ---


def test_eval_forward_deterministic():
    m = build_model(toy_config(), seed=5)
    x = rand_input()
    a = gm.forward_acoustic(m, x, "eval").data
    b = gm.forward_acoustic(m, x, "eval").data
    assert np.array_equal(a, b)


def test_acoustic_ignores_branch_params():
    # same seed, same stack: zeroing the branch must not change emissions
    m1 = build_model(toy_config(), seed=6)
    m2 = build_model(toy_config(), seed=6)
    for name in m2.params.group_names("speaker"):
        m2.params.get(name).data[:] = 0.0
    x = rand_input(seed=1)
    assert np.array_equal(
        gm.forward_acoustic(m1, x).data, gm.forward_acoustic(m2, x).data
    )


def test_single_frame_input_shape():
    m = build_model(toy_config(), seed=7)
    out = gm.forward_acoustic(m, rand_input(t_len=1))
    assert out.shape == (1, 4)


def test_channel_mismatch_errors():
    m = build_model(toy_config(), seed=8)
    with pytest.raises(tz.ShapeMismatch):
        gm.forward_acoustic(m, np.zeros((3, 7)))


def test_pack_names_a_malformed_utterance_amid_a_batch():
    m = build_model(toy_config(), seed=8)
    xs = [rand_input(t_len=3), np.zeros((4, 7)), rand_input(t_len=2)]
    with pytest.raises(tz.ShapeMismatch, match=r"^input must be T x 4, got \(4, 7\)$"):
        gm.forward(m, xs)
    xs[1] = np.zeros((0, 4))
    with pytest.raises(tz.ShapeMismatch, match="^input must contain at least one frame$"):
        gm.forward(m, xs)


def test_pack_rejects_a_non_finite_frame_in_one_utterance():
    m = build_model(toy_config(), seed=8)
    for bad in (np.nan, np.inf):
        xs = [rand_input(t_len=3), rand_input(t_len=5, seed=1), rand_input(t_len=2, seed=2)]
        xs[1][2, 0] = bad
        with pytest.raises(tz.NumericOverflow, match="^tensor: result contains NaN or Inf$"):
            gm.forward(m, xs)
        with pytest.raises(tz.NumericOverflow, match="^tensor: result contains NaN or Inf$"):
            gm.forward(m, xs[1:2])


def test_zero_input_gives_equal_speaker_logits():
    # biases start at zero, so a zero input collapses every activation to
    # zero and all speaker logits coincide
    m = build_model(toy_config(n_speakers=4), seed=10)
    logits = gm.forward_speaker(m, np.zeros((5, 4)), factor=0.0).data
    assert np.allclose(logits, logits[0])


def test_factor_zero_blocks_all_main_gradients():
    m = build_model(toy_config(), seed=11)
    logits = gm.forward_speaker(m, rand_input(seed=2), factor=0.0, mode="eval")
    loss = gm.speaker_nll(logits, 1)
    grads = tz.backward(loss, m.params)
    for name in m.params.group_names("main"):
        assert np.all(grads[name] == 0.0), name
    # ...but the branch itself still trains
    assert any(np.any(grads[n] != 0.0) for n in m.params.group_names("speaker"))


def test_factor_sign_flip_negates_encoder_gradients():
    x = rand_input(seed=3)

    def run(factor):
        m = build_model(toy_config(), seed=12)
        logits = gm.forward_speaker(m, x, factor=factor, mode="eval")
        return tz.backward(gm.speaker_nll(logits, 0), m.params), m

    g_pos, m = run(+0.5)
    g_neg, _ = run(-0.5)
    enc = [n for n in m.params.group_names("main") if n.startswith("stack.")]
    enc = [n for n in enc if int(n.split(".")[1]) <= m.cfg.fork_layer]
    assert enc
    for name in enc:
        np.testing.assert_allclose(g_pos[name], -g_neg[name], atol=1e-12)
    for name in m.params.group_names("speaker"):
        assert np.array_equal(g_pos[name], g_neg[name]), name


def test_joint_forward_matches_separate_heads():
    m = build_model(toy_config(), seed=13)
    x = rand_input(seed=4)
    em_j, logits_j = gm.forward_joint(m, x, factor=0.3)
    em_s = gm.forward_acoustic(m, x)
    logits_s = gm.forward_speaker(m, x, factor=0.3)
    assert np.array_equal(em_j.data, em_s.data)
    assert np.array_equal(logits_j.data, logits_s.data)


# --- representations ---


def test_representation_at_fork_matches_branch_input():
    m = build_model(toy_config(), seed=14)
    x = rand_input(seed=5)
    rep = gm.extract_representation(m, x, m.cfg.fork_layer)
    xt = tz.Tensor(x)
    with tz.no_grad():
        direct = gm._run_stack(m, xt, m.cfg.fork_layer, None).data
    assert np.array_equal(rep, direct)


def test_representation_layer_zero_is_input():
    m = build_model(toy_config(), seed=15)
    x = rand_input(seed=6)
    assert np.array_equal(gm.extract_representation(m, x, 0), x)


def test_representation_keeps_time_axis():
    m = build_model(toy_config(), seed=16)
    for t_len in (1, 4, 9):
        rep = gm.extract_representation(m, rand_input(t_len=t_len), 2)
        assert rep.shape == (t_len, m.cfg.channels)


def test_representation_deterministic_and_layer_range_checked():
    m = build_model(toy_config(), seed=17)
    x = rand_input(seed=7)
    assert np.array_equal(
        gm.extract_representation(m, x, 3), gm.extract_representation(m, x, 3)
    )
    with pytest.raises(ValueError):
        gm.extract_representation(m, x, 6)


# --- speaker NLL ---


def test_speaker_nll_uniform_logits():
    logits = tz.Tensor(np.zeros(5))
    assert gm.speaker_nll(logits, 2).item() == pytest.approx(np.log(5.0), abs=1e-12)


def test_speaker_nll_gradient():
    from helpers import check_gradients

    rng = np.random.default_rng(18)
    lv = rng.normal(size=6)
    check_gradients(lambda l: gm.speaker_nll(l, 4), [lv], tol=1e-6)


# --- end-to-end gradient check ---


def test_end_to_end_gradcheck_30_sampled_params():
    from gradflip import asg

    cfg = toy_config()
    m = build_model(cfg, seed=19)
    x = rand_input(t_len=6, seed=8)
    target = [0, 2, 1]
    speaker = 1
    lam = 0.5

    def total_loss():
        # factor 1.0 keeps the junction's backward equal to the true
        # derivative, so acoustic + lam*speaker is finite-difference checkable
        em, logits = gm.forward_joint(m, x, factor=1.0, mode="eval")
        spk = tz.smul(gm.speaker_nll(logits, speaker), lam)
        return tz.add(asg.asg_loss(em, m.transitions, target), spk)

    loss = total_loss()
    grads = tz.backward(loss, m.params)

    rng = np.random.default_rng(20)
    names = m.params.names()
    eps = 1e-5
    worst = 0.0
    for _ in range(30):
        name = names[int(rng.integers(0, len(names)))]
        t = m.params.get(name)
        flat_idx = int(rng.integers(0, t.size))
        orig = t.data.reshape(-1)[flat_idx]
        t.data.reshape(-1)[flat_idx] = orig + eps
        with tz.no_grad():
            hi = total_loss().item()
        t.data.reshape(-1)[flat_idx] = orig - eps
        with tz.no_grad():
            lo = total_loss().item()
        t.data.reshape(-1)[flat_idx] = orig
        fd = (hi - lo) / (2 * eps)
        an = grads[name].reshape(-1)[flat_idx]
        worst = max(worst, grad_error(an, fd))
    assert worst <= 1e-4, worst


# --- checkpoints ---


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = build_model(toy_config(), seed=21)
    # move params off their init to make the test meaningful
    for _, t, _ in m.params.items():
        t.data += 0.01
    path = tmp_path / "model.ckpt"
    gm.save_checkpoint(m, path)
    m2 = gm.load_checkpoint(path)
    x = rand_input(seed=9)
    assert np.array_equal(gm.forward_acoustic(m, x).data, gm.forward_acoustic(m2, x).data)
    logits1 = gm.forward_speaker(m, x, 0.0).data
    logits2 = gm.forward_speaker(m2, x, 0.0).data
    assert np.array_equal(logits1, logits2)


def test_checkpoint_rejects_mismatched_config(tmp_path):
    m = build_model(toy_config(), seed=22)
    path = tmp_path / "model.ckpt"
    gm.save_checkpoint(m, path)
    import json

    doc = json.loads(path.read_text())
    doc["params"].pop("asg.trans")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="parameter names"):
        gm.load_checkpoint(path)


# --- packed batches ---

LENGTHS = (1, 7, 3, 12, 2)
TARGETS = [[1], [0, 1, 0], [2], [3, 0, 1, 2], [1, 0]]


def ragged_inputs():
    return [rand_input(t_len=t, seed=60 + i) for i, t in enumerate(LENGTHS)]


def test_packed_eval_equals_per_utterance_bit_for_bit():
    m = build_model(toy_config(), seed=61)
    xs = ragged_inputs()
    with tz.no_grad():
        packing, em, logits = gm.forward(m, xs)
        for x, em_b, logits_b in zip(xs, packing.split(em.data), logits.data):
            em1, logits1 = gm.forward_joint(m, x, 0.0)
            assert np.array_equal(em_b, em1.data) and np.array_equal(logits_b, logits1.data)
            assert np.array_equal(em_b, gm.forward_acoustic(m, x).data)
            assert np.array_equal(logits_b, gm.forward_speaker(m, x, 0.0).data)
    for layer in range(m.cfg.n_layers + 1):
        for rep, x in zip(gm.represent(m, xs, layer), xs):
            assert np.array_equal(rep, gm.extract_representation(m, x, layer))


def test_chunks_pack_by_frames_in_order(monkeypatch):
    monkeypatch.setattr(gm, "EVAL_FRAMES", 10)
    frames = [3, 4, 2, 12, 1, 9, 10, 5, 5]
    # 12 is over the budget and gets a run of its own
    assert gm.chunks(list("abcdefghi"), frames) == [["a", "b", "c"], ["d"], ["e", "f"], ["g"], ["h", "i"]]
    assert gm.chunks([], []) == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(frames=st.lists(st.integers(1, 30), max_size=40), budget=st.integers(1, 60))
def test_chunks_invariants(frames, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gm, "EVAL_FRAMES", budget)
        runs = gm.chunks(list(range(len(frames))), frames)
    assert [i for run in runs for i in run] == list(range(len(frames)))
    totals = [sum(frames[i] for i in run) for run in runs]
    for run, total in zip(runs, totals):
        assert run and (total <= budget or len(run) == 1)
    # greedy: no run could have taken the next run's first item
    for total, nxt in zip(totals, runs[1:]):
        assert total + frames[nxt[0]] > budget


def test_packed_train_forward_draws_each_utterances_own_masks():
    m = build_model(toy_config(), seed=62)
    xs = ragged_inputs()
    streams = [RngStream(5, f"u{i}") for i in range(len(xs))]
    packing, em, logits = gm.forward(m, xs, 0.3, streams)
    for b, (xb, stream) in enumerate(zip(xs, streams)):
        em1, logits1 = gm.forward_joint(m, xb, 0.3, "train", stream)
        assert np.array_equal(packing.split(em.data)[b], em1.data)
        assert np.array_equal(logits.data[b], logits1.data)


WRAPPERS = {
    "forward_acoustic": lambda m, x, mode, rng: gm.forward_acoustic(m, x, mode, rng),
    "forward_speaker": lambda m, x, mode, rng: gm.forward_speaker(m, x, 0.3, mode, rng),
    "forward_joint": lambda m, x, mode, rng: gm.forward_joint(m, x, 0.3, mode, rng),
}


@pytest.mark.parametrize("name", list(WRAPPERS))
def test_wrappers_read_the_mode_string(name):
    call = WRAPPERS[name]
    m = build_model(toy_config(), seed=63)
    x = rand_input(seed=9)
    with pytest.raises(ValueError, match="mode must be 'train' or 'eval', got 'bogus'"):
        call(m, x, "bogus", RngStream(1, "d"))
    with pytest.raises(ValueError, match="train mode needs an RngStream"):
        call(m, x, "train", None)
    # eval mode ignores a stream; train mode draws its masks from it
    leaves = lambda out: [t.data for t in (out if isinstance(out, tuple) else (out,))]
    ev, ev_rng = leaves(call(m, x, "eval", None)), leaves(call(m, x, "eval", RngStream(1, "d")))
    assert all(np.array_equal(a, b) for a, b in zip(ev, ev_rng, strict=True))
    train = leaves(call(m, x, "train", RngStream(1, "d")))
    assert not all(np.array_equal(a, b) for a, b in zip(ev, train, strict=True))


def packed_outputs(m, xs):
    with tz.no_grad():
        packing, em, logits = gm.forward(m, xs)
        ac = asg.asg_losses(em, m.transitions, TARGETS, packing).data
        sp = gm.speaker_nlls(logits, [0, 1, 2, 0, 1]).data
    return packing.split(em.data), logits.data, ac, sp


def test_packed_utterances_do_not_see_each_other():
    m = build_model(toy_config(), seed=63)
    xs = ragged_inputs()
    base = packed_outputs(m, xs)
    # new values for utterance 2, then a new length too (still not the longest)
    for changed in (xs[2] + 1.5, rand_input(t_len=9, seed=99)):
        out = packed_outputs(m, xs[:2] + [changed] + xs[3:])
        for b in (0, 1, 3, 4):
            assert np.array_equal(out[0][b], base[0][b])
            for k in (1, 2, 3):
                assert np.array_equal(out[k][b], base[k][b])
        assert out[2][2] != base[2][2]
