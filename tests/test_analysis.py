import dataclasses
import hashlib

import numpy as np
import pytest

from gradflip import analysis as an, data as gd, model as gm
from gradflip.analysis import RepDump, edit_distance
from gradflip.data import Dataset, Utterance
from gradflip.layers import PoolingConfig
from gradflip.model import ModelConfig, SpeakerBranch, build_model
from gradflip.rng import RngStream
from gradflip.tensor import ParamStore
from helpers import count_tape_nodes


def small_model(vocab=5, speakers=4, seed=60):
    cfg = ModelConfig(
        in_dim=6, n_layers=4, channels=8, vocab_size=vocab, n_speakers=speakers,
        fork_layer=2, kernel_width=3, dropout_rate=0.1, pooling=PoolingConfig("logsumexp", 1.0),
        branch_channels=6, branch_kernel=3,
    )
    return build_model(cfg, seed=seed)


def small_dataset(seed=71, utts=10):
    cfg = gd.GenConfig(
        n_speakers=4, utterances_per_speaker=utts, alphabet_size=4, dim=6,
        frames_per_token=(2, 4), noise_sigma=0.15, words_per_utterance=(2, 3),
        letters_per_word=(2, 4), semi_speakers=0, offset_scale=0.8, gain_range=(0.7, 1.3),
        seed=seed,
    )
    return gd.generate(cfg)


def fake_dump(items, n_speakers, channels=6, kernel=3):
    return RepDump(
        layer=0, items=items, n_speakers=n_speakers,
        branch_channels=channels, branch_kernel=kernel, dropout_rate=0.0,
        pooling=PoolingConfig("logsumexp", 1.0),
    )


# --- edit distance ---


def test_edit_distance_examples():
    assert edit_distance("abc", "abc") == 0
    assert edit_distance("", "ab") == 2
    assert edit_distance("kitten", "sitting") == 3


def test_edit_distance_metric_axioms():
    rng = np.random.default_rng(80)
    seqs = [
        tuple(rng.integers(0, 3, size=rng.integers(0, 6)).tolist()) for _ in range(200)
    ]
    for i in range(0, 200, 2):
        a, b = seqs[i], seqs[i + 1]
        c = seqs[(i + 7) % 200]
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, b) <= edit_distance(a, c) + edit_distance(c, b)
        if a != b:
            assert edit_distance(a, b) > 0


def test_edit_distance_brute_force_small():
    # independent oracle: recursive definition with memoization
    from functools import lru_cache

    def slow(a, b):
        @lru_cache(maxsize=None)
        def d(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(
                d(i - 1, j) + 1,
                d(i, j - 1) + 1,
                d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            )

        return d(len(a), len(b))

    rng = np.random.default_rng(81)
    for _ in range(50):
        a = tuple(rng.integers(0, 3, size=rng.integers(0, 5)).tolist())
        b = tuple(rng.integers(0, 3, size=rng.integers(0, 5)).tolist())
        assert edit_distance(a, b) == slow(a, b)


# --- LER / WER ---


def oracle_model_for(ds, seed=61):
    """A model whose emissions we can overwrite is overkill; instead build
    a dataset the real model can be scored on."""
    return small_model(vocab=len(ds.vocab), speakers=len(ds.speakers), seed=seed)


def test_ler_perfect_when_emissions_peak_on_alignment():
    # craft utterances and a model-free check through a stub: use the real
    # pipeline but replace forward by construction: transitions zero and a
    # dataset of one-frame-per-token utterances scored via a hand model is
    # brittle; instead we check on the real model that LER is in [0, inf)
    # and exactly 0 for an oracle decode of its own viterbi output.
    ds = small_dataset()
    m = oracle_model_for(ds)
    from gradflip import asg, tensor as tz

    utts = []
    for u in ds.utterances[:5]:
        with tz.no_grad():
            em = gm.forward_acoustic(m, u.features, "eval")
        hyp = asg.collapse(asg.viterbi_decode(em.data, m.transitions.data))
        if len(hyp) >= 1:
            utts.append(Utterance(u.id, u.speaker, tuple(hyp), u.features))
    self_scored = an.evaluate_ler(m, Dataset(utts, ds.vocab, ds.speakers))
    assert self_scored.value == 0.0


def test_ler_empty_hypothesis_counts_deletions():
    assert edit_distance((), (1, 2, 3)) == 3


def test_ler_hand_computed_three_utterances():
    # freeze a tiny instance: model decodes deterministically; compare
    # against per-utterance hand edit distances
    ds = small_dataset(seed=72, utts=3)
    m = oracle_model_for(ds, seed=62)
    from gradflip import asg, tensor as tz

    expected_errors = 0
    expected_total = 0
    scored = ds.utterances[:3]
    for u in scored:
        with tz.no_grad():
            em = gm.forward_acoustic(m, u.features, "eval")
        hyp = asg.collapse(asg.viterbi_decode(em.data, m.transitions.data))
        expected_errors += edit_distance(hyp, u.transcript)
        expected_total += len(u.transcript)
    got = an.evaluate_ler(m, Dataset(scored, ds.vocab, ds.speakers))
    assert got.value == pytest.approx(expected_errors / expected_total)
    assert got.n_scored == 3 and got.n_skipped == 0


def test_ler_skips_untranscribed_and_reports_count():
    ds = small_dataset(seed=73, utts=4)
    m = oracle_model_for(ds, seed=63)
    utts = list(ds.utterances[:4])
    utts[1] = Utterance(utts[1].id, utts[1].speaker, None, utts[1].features)
    res = an.evaluate_ler(m, Dataset(utts, ds.vocab, ds.speakers))
    assert res.n_skipped == 1 and res.n_scored == 3


def test_ler_order_invariance():
    ds = small_dataset(seed=74, utts=5)
    m = oracle_model_for(ds, seed=64)
    fwd = an.evaluate_ler(m, ds)
    rev = an.evaluate_ler(m, Dataset(list(reversed(ds.utterances)), ds.vocab, ds.speakers))
    assert fwd.value == rev.value


def test_wer_identical_is_zero_and_split_logic():
    sep = 4
    assert an._words((0, 1, sep, 2, 3), sep) == [(0, 1), (2, 3)]
    assert an._words((sep, 0, sep, sep, 1, sep), sep) == [(0,), (1,)]
    assert an._words((), sep) == []


def test_wer_half_word_error():
    # hypothesis ab|cd vs reference ab|ce -> 1 of 2 words wrong
    hyp_words = an._words((0, 1, 4, 2, 3), 4)
    ref_words = an._words((0, 1, 4, 2, 0), 4)
    assert edit_distance(hyp_words, ref_words) / len(ref_words) == 0.5


def test_wer_empty_hypothesis_one_word_reference():
    assert edit_distance(an._words((), 4), an._words((1, 2), 4)) / 1 == 1.0


# --- probes ---


def balanced_items(rng, reps_fn, n=400, s=4, t_len=6, dim=5):
    items = []
    for i in range(n):
        speaker = i % s
        items.append((f"u{i}", reps_fn(rng, speaker, t_len, dim), speaker))
    return items


def test_probe_chance_on_identical_representations():
    rng = np.random.default_rng(82)
    shared = rng.normal(size=(6, 5))
    items = balanced_items(rng, lambda r, s, t, d: shared.copy())
    acc = an.train_probe(fake_dump(items, 4), epochs=2, seed=1)
    assert abs(acc - 0.25) <= 0.05


def test_probe_high_accuracy_on_one_hot_speaker_code():
    rng = np.random.default_rng(83)

    def one_hot(r, s, t, d):
        rep = np.zeros((t, d))
        rep[:, s] = 1.0
        return rep

    items = balanced_items(rng, one_hot)
    acc = an.train_probe(fake_dump(items, 4), epochs=10, seed=2)
    assert acc >= 0.99


def test_probe_zero_epochs_near_chance():
    rng = np.random.default_rng(84)
    items = balanced_items(rng, lambda r, s, t, d: r.normal(size=(t, d)))
    acc = an.train_probe(fake_dump(items, 4), epochs=0, seed=3)
    assert abs(acc - 0.25) <= 0.15


def test_probe_single_speaker_errors():
    rng = np.random.default_rng(85)
    items = [(f"u{i}", rng.normal(size=(4, 3)), 0) for i in range(10)]
    with pytest.raises(ValueError, match="2 speakers"):
        an.train_probe(fake_dump(items, 1), epochs=1, seed=4)


def test_probe_batch_tape_node_count(monkeypatch):
    # gated conv (weight norm, conv, GLU, dropout), pool, linear head (weight
    # norm, matmul, add), speaker NLL (log-sum-exp, mul, sum, sub), batch
    # sum and scale; the frozen input records nothing
    counts = count_tape_nodes(monkeypatch)
    rng = np.random.default_rng(87)
    items = balanced_items(rng, lambda r, s, t, d: r.normal(size=(t, d)), n=20)
    dump = dataclasses.replace(fake_dump(items, 4), dropout_rate=0.25)
    an.train_probe(dump, epochs=1, seed=5)
    assert counts == [14, 14]


def test_probe_on_raw_inputs_beats_three_times_chance():
    # speaker offsets are linearly recoverable at the input, so an input
    # probe must comfortably beat chance; this underpins the whole
    # representation analysis
    ds = small_dataset(seed=75, utts=25)
    m = oracle_model_for(ds, seed=65)
    dump = an.dump_reps(m, ds, layer=0)
    acc = an.train_probe(dump, epochs=10, seed=5)
    assert acc > 3.0 / len(ds.speakers), acc


def test_dump_reps_deterministic_and_layer_zero_is_input():
    ds = small_dataset(seed=76, utts=4)
    m = oracle_model_for(ds, seed=66)
    d1 = an.dump_reps(m, ds, 0)
    d2 = an.dump_reps(m, ds, 0)
    for (i1, r1, s1), (i2, r2, s2), u in zip(d1.items, d2.items, ds.utterances):
        assert i1 == i2 == u.id and s1 == s2 == u.speaker
        assert np.array_equal(r1, r2)
        assert np.array_equal(r1, u.features)


def test_dump_reps_fork_layer_matches_branch_input():
    ds = small_dataset(seed=77, utts=3)
    m = oracle_model_for(ds, seed=67)
    dump = an.dump_reps(m, ds, m.cfg.fork_layer)
    for (_, rep, _), u in zip(dump.items, ds.utterances):
        assert np.array_equal(rep, gm.extract_representation(m, u.features, m.cfg.fork_layer))


def test_probe_never_mutates_checkpoint(tmp_path):
    ds = small_dataset(seed=78, utts=10)
    m = oracle_model_for(ds, seed=68)
    path = tmp_path / "m.ckpt"
    gm.save_checkpoint(m, path)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    dump = an.dump_reps(m, ds, 1)
    an.train_probe(dump, epochs=3, seed=6)
    gm.save_checkpoint(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


# --- figure-2 report ---


def test_figure2_report_grid_and_chance_row(tmp_path):
    ds = small_dataset(seed=79, utts=10)
    m = oracle_model_for(ds, seed=69)
    layers_map = {"in": 1, "mid": 2, "out": 3}
    cells = an.figure2_report(
        {"baseline": m, "mt": m, "al": None}, layers_map, ds, probe_epochs=1, seed=7
    )
    assert len(cells) == 10  # 3 x 3 grid + chance row
    absent = [c for c in cells if c.accuracy is None]
    assert len(absent) == 3 and all(c.variant == "al" for c in absent)
    chance_rows = [c for c in cells if c.variant == "chance"]
    assert len(chance_rows) == 1 and chance_rows[0].accuracy == 0.25
    out = tmp_path / "probe.csv"
    an.write_probe_csv(cells, out)
    lines = out.read_text().splitlines()
    assert lines[0] == an.PROBE_CSV_HEADER
    assert len(lines) == 11
    assert lines[-1].startswith("chance,-,0.25,")
    # absent cells keep an empty accuracy field
    assert any(",," in l for l in lines[1:] if l.startswith("al,"))


def test_eval_csv_format(tmp_path):
    out = tmp_path / "eval.csv"
    an.write_eval_csv([("dev", "ler", 0.125, 60), ("dev", "wer", 0.5, 60)], out)
    lines = out.read_text().splitlines()
    assert lines[0] == an.EVAL_CSV_HEADER
    assert lines[1] == "dev,ler,0.125,60"


def test_probe_packed_batch_draws_one_dropout_stream_in_utterance_order():
    rng = np.random.default_rng(5)
    reps = [rng.normal(size=(t, 6)) for t in (4, 1, 7, 3)]
    dump = RepDump(
        layer=1, items=[], n_speakers=3, branch_channels=5, branch_kernel=3,
        dropout_rate=0.25, pooling=PoolingConfig("logsumexp", 1.0),
    )
    init = RngStream(3, "init")
    probe = SpeakerBranch(
        ParamStore(), "probe", 6, dump.branch_channels, dump.branch_kernel, dump.dropout_rate,
        dump.pooling, dump.n_speakers, (init.child("conv"), init.child("out")),
    )
    packed = an._probe_logits(probe, reps, "train", RngStream(4, "dropout")).data
    stream = RngStream(4, "dropout")
    alone = [an._probe_logits(probe, [rep], "train", stream).data[0] for rep in reps]
    assert np.array_equal(packed, np.stack(alone))
