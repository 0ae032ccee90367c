import dataclasses
import math

import numpy as np
import pytest

from gradflip import analysis, config as cf, data as gd, model as gm, tensor as tz, trainer as tr
from gradflip.layers import PoolingConfig
from gradflip.model import ModelConfig, build_model
from gradflip.rng import RngStream
from gradflip.trainer import LambdaSchedule, TrainConfig, lambda_at
from helpers import EVAL_BUDGETS, count_tape_nodes, under_eval_budgets


def tiny_data(seed=101, semi_speakers=0, utts=6):
    cfg = gd.GenConfig(
        n_speakers=3,
        utterances_per_speaker=utts,
        alphabet_size=4,
        dim=6,
        frames_per_token=(2, 4),
        noise_sigma=0.15,
        offset_scale=0.8,
        words_per_utterance=(1, 2),
        letters_per_word=(2, 3),
        semi_speakers=semi_speakers,
        gain_range=(0.7, 1.3),
        seed=seed,
    )
    return gd.partition_semi(gd.generate(cfg))


def tiny_model(n_speakers=3, seed=21, fork=2):
    cfg = ModelConfig(
        in_dim=6,
        n_layers=4,
        channels=8,
        vocab_size=5,
        n_speakers=n_speakers,
        fork_layer=fork,
        kernel_width=3,
        dropout_rate=0.1,
        pooling=PoolingConfig("logsumexp", 1.0),
        branch_channels=6,
        branch_kernel=3,
    )
    return build_model(cfg, seed=seed)


def train_cfg(mode, **changes):
    """The toy preset's training config for `mode`, with `changes` applied."""
    return dataclasses.replace(cf.train_config({**cf.SCHEMA, "train.mode": mode}), **changes)


# --- lambda schedule ---

RAMP = LambdaSchedule("ramp", value=0.5, lambda_max=0.2, gamma=10.0)


def test_ramp_starts_at_zero():
    assert lambda_at(RAMP, 0, 15) == 0.0


def test_ramp_endpoint_value():
    lam = lambda_at(RAMP, 15, 15)
    # direct evaluation: 0.2 * (2 / (1 + e^-10) - 1)
    assert lam == pytest.approx(0.2 * (2.0 / (1.0 + math.exp(-10.0)) - 1.0), abs=1e-15)
    assert lam == pytest.approx(0.199982, abs=1e-6)


def test_static_schedule_constant():
    s = LambdaSchedule("static", value=0.5, lambda_max=0.2, gamma=10.0)
    assert all(lambda_at(s, e, 15) == 0.5 for e in range(16))


def test_ramp_monotone():
    s = RAMP
    vals = [lambda_at(s, e, 20) for e in range(21)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= s.lambda_max for v in vals)


def test_schedule_rejects_a_negative_ramp():
    # a negative ceiling or steepness would give al a multi-task junction
    for lambda_max, gamma in ((-0.2, 10.0), (0.2, -1.0)):
        with pytest.raises(ValueError, match="must be >= 0"):
            LambdaSchedule("ramp", 0.5, lambda_max, gamma)
    assert LambdaSchedule("static", -0.5, 0.0, 0.0).value == -0.5


def test_default_schedules_by_mode():
    # the mode picks the schedule: static lambda_value for mt, a ramp to
    # lambda_max for al and semi, all taken from the configured values
    cfg = {**cf.SCHEMA, "train.lambda_value": 0.7, "train.lambda_max": 0.9, "train.lambda_gamma": 3.0}
    assert cf.train_config({**cfg, "train.mode": "mt"}).schedule() == LambdaSchedule("static", 0.7, 0.9, 3.0)
    for mode in ("al", "semi"):
        assert cf.train_config({**cfg, "train.mode": mode}).schedule() == LambdaSchedule("ramp", 0.7, 0.9, 3.0)


def test_config_records_have_no_defaults():
    # config.SCHEMA is the only source of preset values
    for record in (gd.GenConfig, ModelConfig, TrainConfig, LambdaSchedule, PoolingConfig):
        for f in dataclasses.fields(record):
            assert f.default is dataclasses.MISSING, (record.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, (record.__name__, f.name)


# --- single step contracts ---


def batch_of(ds, n=4):
    return ds.utterances[:n]


def test_lambda_zero_step_matches_baseline_on_main_group():
    train_ds, _ = tiny_data()
    batch = batch_of(train_ds)

    def run(mode):
        m = tiny_model()
        tr.step(m, batch, mode, lam=0.0, rng=RngStream(7, "drop"))
        return m

    m_base = run("baseline")
    for mode in ("mt", "al"):
        m_mode = run(mode)
        for name in m_base.params.group_names("main"):
            assert np.array_equal(
                m_base.params.get(name).data, m_mode.params.get(name).data
            ), f"{mode}:{name}"


def test_mt_al_duality_exact():
    train_ds, _ = tiny_data()
    batch = batch_of(train_ds)
    lam = 0.5

    def grads(mode):
        m = tiny_model(seed=33)
        return m, tr.compute_gradients(m, batch, mode, lam, rng=RngStream(9, "d"))

    m, (_, _, ac_mt, sp_mt) = grads("mt")
    _, (_, _, ac_al, sp_al) = grads("al")
    fork = m.cfg.fork_layer
    for name, _, group in m.params.items():
        if group == "speaker":
            assert np.array_equal(sp_mt[name], sp_al[name]), name
        elif name.startswith("stack.") and int(name.split(".")[1]) <= fork:
            # encoder: speaker gradients are exact negations
            assert np.max(np.abs(sp_mt[name] + sp_al[name])) <= 1e-12, name
        else:
            # decoder and transitions never see the speaker loss
            assert np.all(sp_mt[name] == 0.0) and np.all(sp_al[name] == 0.0), name
        assert np.array_equal(ac_mt[name], ac_al[name]), name


def test_speaker_only_batch_zero_grads_on_decoder_and_transitions():
    train_ds, semi_ds = tiny_data(semi_speakers=2)
    m = tiny_model(n_speakers=5, seed=41)
    semi_batch = [
        gd.Utterance(u.id, 3 + u.speaker, None, u.features) for u in semi_ds.utterances[:4]
    ]
    ac, sp, g_ac, g_sp = tr.compute_gradients(m, semi_batch, "semi", 0.1, rng=RngStream(1, "d"))
    assert math.isnan(ac)
    assert math.isfinite(sp)
    fork = m.cfg.fork_layer
    assert np.all(g_sp["asg.trans"] == 0.0)
    for name in m.params.group_names("main"):
        assert np.all(g_ac[name] == 0.0)
        layer_param = name.startswith("stack.")
        if name == "asg.trans" or name.startswith("out.") or (
            layer_param and int(name.split(".")[1]) > fork
        ):
            assert np.all(g_sp[name] == 0.0), name
    # encoder does receive adversarial gradient
    assert any(
        np.any(g_sp[n] != 0.0)
        for n in m.params.group_names("main")
        if n.startswith("stack.") and int(n.split(".")[1]) <= fork
    )


def step_cases():
    """(mode, batch, n_speakers) for every mode, with semi on a transcribed
    and on a speaker-only batch."""
    train_ds, semi_ds = tiny_data(semi_speakers=2)
    semi_batch = [gd.Utterance(u.id, 3 + u.speaker, None, u.features) for u in semi_ds.utterances[:4]]
    batch = batch_of(train_ds)
    return [("baseline", batch, 3), ("mt", batch, 3), ("al", batch, 3), ("semi", batch, 5), ("semi", semi_batch, 5)]


@pytest.mark.parametrize(
    "lam,groups",
    [(0.0, ("main", "speaker")), (0.0, ("speaker",)), (0.3, ("main", "speaker"))],
    ids=["phase-a", "phase-b", "phase-c"],
)
def test_step_runs_one_backward(monkeypatch, lam, groups):
    calls = []
    backward = tz.backward
    monkeypatch.setattr(tz, "backward", lambda *a, **k: calls.append(a) or backward(*a, **k))
    for mode, batch, n_speakers in step_cases():
        calls.clear()
        tr.step(tiny_model(n_speakers=n_speakers, seed=53), batch, mode, lam, 0.05, 0.02, RngStream(4, "d"), groups)
        assert len(calls) == 1, (mode, len(calls))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_step_applies_the_sum_of_compute_gradients(monkeypatch, lam):
    # the diagnostic pair of compute_gradients stays faithful to training
    applied = {}
    monkeypatch.setattr(tz, "sgd_step", lambda params, grads, *a, **k: applied.update(grads))
    for mode, batch, n_speakers in step_cases():
        m = tiny_model(n_speakers=n_speakers, seed=54)
        _, _, g_ac, g_sp = tr.compute_gradients(m, batch, mode, lam, rng=RngStream(5, "d"))
        tr.step(m, batch, mode, lam, 0.05, 0.02, RngStream(5, "d"))
        for name in m.params.names():
            if lam == 0.0:
                assert np.array_equal(applied[name], g_ac[name] + g_sp[name]), (mode, name)
            else:
                np.testing.assert_allclose(applied[name], g_ac[name] + g_sp[name], rtol=0, atol=1e-12,
                                           err_msg=f"{mode}:{name}")


def record_nodes(monkeypatch):
    """Spy on tape node creation: appends (op, recorded on the tape) per node."""
    made = []
    node = tz._node

    def spy(data, op, parents, backward, check=True):
        out = node(data, op, parents, backward, check)
        made.append((op, out.grad_tracked))
        return out

    monkeypatch.setattr(tz, "_node", spy)
    return made


def test_phase_b_step_records_no_asg_node(monkeypatch):
    made = record_nodes(monkeypatch)
    batch = batch_of(tiny_data()[0])
    for groups, recorded in ((("speaker",), False), (("main", "speaker"), True)):
        made.clear()
        ac, _ = tr.step(tiny_model(), batch, "al", 0.0, 0.05, 0.02, RngStream(4, "d"), groups)
        assert [tracked for op, tracked in made if op == "asg_loss"] == [recorded]
        assert math.isfinite(ac)
    # the logged losses do not depend on whether the tape records them
    m = tiny_model()
    with m.params.frozen(("speaker",)):
        untaped = tr._batch_losses(m, batch, "al", 0.0, RngStream(4, "d"))
    taped = tr._batch_losses(m, batch, "al", 0.0, RngStream(4, "d"))
    assert [t.item() for t in untaped] == [t.item() for t in taped]


def test_step_tape_does_not_grow_with_batch_size(monkeypatch):
    made = record_nodes(monkeypatch)
    train_ds, _ = tiny_data()
    tapes = {}
    for n in (1, 8):
        made.clear()
        tr.step(tiny_model(), batch_of(train_ds, n), "al", 0.3, 0.05, 0.02, RngStream(4, "d"))
        tapes[n] = [op for op, tracked in made if tracked]
    assert tapes[1] == tapes[8]


@pytest.mark.parametrize(
    "lam,groups,nodes",
    [(0.0, ("main", "speaker"), 41), (0.0, ("speaker",), 14), (0.3, ("main", "speaker"), 42)],
    ids=["phase-A", "phase-B", "phase-C"],
)
def test_al_step_tape_node_count(monkeypatch, lam, groups, nodes):
    # toy preset: a gated-conv block records weight norm, conv, GLU and
    # dropout; a linear head weight norm, matmul and add. Phase C: 5 blocks
    # and the head (23), ASG loss, sum and scale (3), the junction (1), the
    # branch's block, pool and head (8), speaker NLL, sum and scale (6), and
    # the objective's add (1). Phase A's junction at lambda 0 records
    # nothing; phase B records the speaker side only, junction excluded.
    counts = count_tape_nodes(monkeypatch)
    train_ds, _ = tiny_data()
    cfg = cf.model_config(cf.SCHEMA, train_ds.dim, len(train_ds.vocab), len(train_ds.speakers))
    tr.step(build_model(cfg, seed=3), batch_of(train_ds, 8), "al", lam, 0.03, 0.1, RngStream(4, "d"), groups)
    assert counts == [nodes]


def test_speaker_only_batch_rejected_outside_semi():
    _, semi_ds = tiny_data(semi_speakers=1)
    m = tiny_model(seed=42)
    with pytest.raises(ValueError, match="semi"):
        tr.compute_gradients(m, semi_ds.utterances[:2], "al", 0.1)


def test_mixed_batch_rejected():
    train_ds, semi_ds = tiny_data(semi_speakers=1)
    m = tiny_model(seed=43)
    mixed = [train_ds.utterances[0], semi_ds.utterances[0]]
    with pytest.raises(ValueError, match="mixes"):
        tr.compute_gradients(m, mixed, "semi", 0.1)


@pytest.mark.parametrize("mode", ["baseline", "al", "semi"])
def test_a_training_step_needs_a_dropout_stream(mode):
    train_ds, semi_ds = tiny_data(semi_speakers=1)
    batch = (semi_ds if mode == "semi" else train_ds).utterances[:2]
    m = tiny_model(n_speakers=4 if mode == "semi" else 3, seed=44)
    with pytest.raises(ValueError, match="needs an RngStream"):
        tr.step(m, batch, mode, 0.1)
    with pytest.raises(ValueError, match="needs an RngStream"):
        tr.compute_gradients(m, batch, mode, 0.1)


def two_pass_dev_metrics(m, dev):
    """Dev LER and speaker accuracy as the trainer computed them before one
    forward per pack served both: an acoustic-only LER pass, then a
    speaker-only pass over the same packs."""
    ler = analysis.evaluate_ler(m, dev).value
    correct = 0
    for chunk in gm.chunks(dev.utterances, [len(u.features) for u in dev.utterances]):
        with tz.no_grad():
            _, _, logits = gm.forward(m, [u.features for u in chunk], acoustic=False)
        correct += int(np.sum(np.argmax(logits.data, axis=1) == [u.speaker for u in chunk]))
    return ler, correct / len(dev.utterances)


def test_dev_metrics_run_one_forward_per_pack(monkeypatch):
    dev, _ = tiny_data(seed=105, utts=8)
    m = tiny_model(seed=45)
    forward = gm.forward
    calls = []

    def spy(m, xs, *args, **kwargs):
        calls.append(len(xs))
        return forward(m, xs, *args, **kwargs)

    for budget in EVAL_BUDGETS:
        monkeypatch.setattr(gm, "EVAL_FRAMES", budget)
        want = two_pass_dev_metrics(m, dev)
        monkeypatch.setattr(gm, "forward", spy)
        got = tr._dev_metrics(m, dev, "al")
        monkeypatch.setattr(gm, "forward", forward)
        packs = gm.chunks(dev.utterances, [len(u.features) for u in dev.utterances])
        assert calls == [len(p) for p in packs], budget
        assert got == want, budget  # same bits
        calls.clear()


# --- semi batch stream ---


def test_semi_interleave_counting():
    train_ds, semi_ds = tiny_data(semi_speakers=2, utts=8)
    batches = tr.make_semi_batches(
        train_ds.utterances, semi_ds.utterances, ratio=2, batch_size=4, rng=RngStream(3, "b")
    )
    # a batch's kind is read from its transcripts, as the trainer reads it
    kinds = ["speaker_only" if b[0].transcript is None else "transcribed" for b in batches]
    n_train_batches = math.ceil(len(train_ds.utterances) / 4)
    assert kinds.count("transcribed") == n_train_batches
    assert kinds.count("speaker_only") == n_train_batches // 2
    # every second transcribed batch is followed by a speaker-only one
    for i, k in enumerate(kinds):
        if k == "speaker_only":
            assert kinds[i - 1] == "transcribed"


def test_semi_ratio_zero_errors():
    train_ds, semi_ds = tiny_data(semi_speakers=1)
    with pytest.raises(ValueError, match="ratio"):
        tr.make_semi_batches(train_ds.utterances, semi_ds.utterances, 0, 4, RngStream(3, "b"))


def test_semi_empty_pool_errors():
    train_ds, _ = tiny_data()
    with pytest.raises(ValueError, match="semi"):
        tr.make_semi_batches(train_ds.utterances, [], 1, 4, RngStream(3, "b"))


def test_semi_union_label_space():
    train_ds, semi_ds = tiny_data(semi_speakers=2)
    m = tiny_model(n_speakers=5, seed=44)
    cfg = train_cfg("semi", epochs_a=1, epochs_b=0, epochs_c=1, batch_size=4,
                      lr_main=0.05, lr_speaker=0.02, seed=5)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=6)
    result = tr.train(m, train_ds, dev_ds, cfg, semi_ds=semi_ds)
    assert len(result.rows) == 2
    # wrong-sized model is rejected
    with pytest.raises(ValueError, match="speaker outputs"):
        tr.train(tiny_model(n_speakers=3, seed=45), train_ds, dev_ds, cfg, semi_ds=semi_ds)


# --- phase protocol ---


def test_phase_a_no_speaker_gradient_reaches_main():
    train_ds, _ = tiny_data()
    batch = batch_of(train_ds)
    m = tiny_model(seed=46)
    # phase A == lambda 0: the junction factor is 0 for mt and al alike
    for mode in ("mt", "al"):
        _, _, _, g_sp = tr.compute_gradients(m, batch, mode, 0.0, rng=RngStream(2, "d"))
        for name in m.params.group_names("main"):
            assert np.all(g_sp[name] == 0.0), name


def test_phase_b_freezes_main_bit_exact():
    train_ds, _ = tiny_data(utts=8)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=7)
    m = tiny_model(seed=47)
    cfg = train_cfg("al", epochs_a=1, epochs_b=2, epochs_c=0, batch_size=4,
                      lr_main=0.05, lr_speaker=0.02, seed=8)

    tr.train(m, train_ds, dev_ds, cfg)
    # rerun manually: A then B with recorded snapshots
    m2 = tiny_model(seed=47)
    shuffle = RngStream(cfg.seed, "train/shuffle")
    dropout = RngStream(cfg.seed, "train/dropout")

    def run_epoch(epoch, groups, lam):
        order = shuffle.child(f"epoch{epoch}").permutation(len(train_ds.utterances))
        utts = [train_ds.utterances[i] for i in order]
        for bi, start in enumerate(range(0, len(utts), cfg.batch_size)):
            tr.step(m2, utts[start : start + cfg.batch_size], cfg.mode, lam,
                    cfg.lr_main, cfg.lr_speaker, dropout.child(f"e{epoch}.b{bi}"), groups)

    run_epoch(1, ("main", "speaker"), 0.0)
    after_a = {n: m2.params.get(n).data.copy() for n in m2.params.group_names("main")}
    run_epoch(2, ("speaker",), 0.0)
    run_epoch(3, ("speaker",), 0.0)
    for name, val in after_a.items():
        assert np.array_equal(m2.params.get(name).data, val), name
    # the full train() run agrees with the manual replica
    for name in m2.params.names():
        assert np.array_equal(m2.params.get(name).data, m.params.get(name).data), name


def test_baseline_equals_single_objective_run():
    train_ds, _ = tiny_data(utts=8)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=9)
    cfg = train_cfg("baseline", epochs_a=1, epochs_b=1, epochs_c=1, batch_size=4,
                      lr_main=0.05, lr_speaker=0.02, seed=10)
    m = tiny_model(seed=48)
    result = tr.train(m, train_ds, dev_ds, cfg)
    assert [r.phase for r in result.rows] == ["A", "B", "C"]
    assert all(r.lam == 0.0 for r in result.rows)
    assert all(math.isnan(r.train_speaker_loss) for r in result.rows)

    # manual single-objective replica over the same 3 epochs
    m2 = tiny_model(seed=48)
    shuffle = RngStream(cfg.seed, "train/shuffle")
    dropout = RngStream(cfg.seed, "train/dropout")
    for epoch in (1, 2, 3):
        order = shuffle.child(f"epoch{epoch}").permutation(len(train_ds.utterances))
        utts = [train_ds.utterances[i] for i in order]
        for bi, start in enumerate(range(0, len(utts), cfg.batch_size)):
            tr.step(m2, utts[start : start + cfg.batch_size], "baseline", 0.0,
                    cfg.lr_main, cfg.lr_speaker, dropout.child(f"e{epoch}.b{bi}"))
    for name in m2.params.names():
        assert np.array_equal(m2.params.get(name).data, m.params.get(name).data), name


def test_metrics_csv_deterministic_across_runs(tmp_path):
    train_ds, _ = tiny_data(utts=8)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=11)
    cfg = train_cfg("mt", epochs_a=1, epochs_b=1, epochs_c=1, batch_size=4,
                      lr_main=0.05, lr_speaker=0.02, seed=12)

    def run(out):
        m = tiny_model(seed=49)
        return tr.train(m, train_ds, dev_ds, cfg, out_dir=tmp_path / out)

    r1, r2 = run("a"), run("b")
    strip = lambda p: "\n".join(
        ",".join(line.split(",")[:-1]) for line in p.read_text().splitlines()
    )
    # identical up to the wall-clock column, which is environmental
    assert strip(r1.metrics_path) == strip(r2.metrics_path)
    assert (tmp_path / "a/final.ckpt").read_bytes() == (tmp_path / "b/final.ckpt").read_bytes()


def test_metrics_do_not_depend_on_the_eval_frame_budget(monkeypatch):
    train_ds, _ = tiny_data(utts=8)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=11)
    cfg = train_cfg("al", epochs_a=1, epochs_b=1, epochs_c=1, batch_size=4,
                    lr_main=0.05, lr_speaker=0.02, seed=12)

    def run():
        rows = tr.train(tiny_model(seed=49), train_ds, dev_ds, cfg).rows
        return [dataclasses.replace(r, wall_clock_sec=0.0) for r in rows]

    results = under_eval_budgets(monkeypatch, run)
    assert all(r == results[0] for r in results)


BOTH, SPEAKER = ("main", "speaker"), ("speaker",)
PHASED = [BOTH, BOTH, SPEAKER, BOTH, BOTH, BOTH]


@pytest.mark.parametrize(
    "mode,groups", [("baseline", [BOTH] * 6), ("mt", PHASED), ("al", PHASED), ("semi", PHASED)], ids=tr.MODES
)
def test_epoch_plan_rows(mode, groups):
    cfg = train_cfg(mode, epochs_a=2, epochs_b=1, epochs_c=3)
    plan = tr.epoch_plan(cfg)
    c_lams = [0.0] * 3 if mode == "baseline" else [lambda_at(cfg.lam, e, 3) for e in (1, 2, 3)]
    assert [phase for phase, _, _ in plan] == ["A", "A", "B", "C", "C", "C"]
    assert [lam for _, lam, _ in plan] == [0.0] * 3 + c_lams
    assert [g for _, _, g in plan] == groups
    # the preset: a static lambda for mt, a rising ramp for al and semi
    if mode == "mt":
        assert c_lams == [cfg.lam.value] * 3
    elif mode != "baseline":
        assert 0.0 < c_lams[0] < c_lams[1] < c_lams[2] < cfg.lam.lambda_max


def test_train_walks_the_epoch_plan(monkeypatch):
    train_ds, _ = tiny_data(utts=8)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=13)
    cfg = train_cfg("al", epochs_a=1, epochs_b=1, epochs_c=1, batch_size=4,
                    lr_main=0.05, lr_speaker=0.02, seed=14)
    plan = [("C", 0.25, BOTH), ("B", 0.0, SPEAKER), ("A", 0.0, BOTH)]
    monkeypatch.setattr(tr, "epoch_plan", lambda c: plan if c is cfg else None)
    real_step, steps = tr.step, []

    def spy(*args):
        steps.append((args[3], args[7]))
        return real_step(*args)

    monkeypatch.setattr(tr, "step", spy)
    rows = tr.train(tiny_model(seed=50), train_ds, dev_ds, cfg).rows
    assert [(r.phase, r.lam) for r in rows] == [(phase, lam) for phase, lam, _ in plan]
    per_epoch = len(steps) // 3
    assert steps == [(lam, groups) for _, lam, groups in plan for _ in range(per_epoch)]


def test_lambda_schedule_spans_phase_c_only():
    train_ds, _ = tiny_data(utts=8)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=13)
    cfg = train_cfg("al", epochs_a=1, epochs_b=1, epochs_c=3, batch_size=4,
                      lr_main=0.05, lr_speaker=0.02, seed=14)
    m = tiny_model(seed=50)
    result = tr.train(m, train_ds, dev_ds, cfg)
    lams = [r.lam for r in result.rows]
    assert lams[0] == 0.0 and lams[1] == 0.0
    sched = cfg.schedule()
    assert lams[2:] == [lambda_at(sched, e, 3) for e in (1, 2, 3)]
    assert all(b >= a for a, b in zip(lams[2:], lams[3:]))


def test_divergence_guard_aborts_with_diagnostic():
    train_ds, _ = tiny_data(utts=8)
    _, dev_ds, _ = gd.split(train_ds, 0.5, 0.25, seed=15)
    cfg = train_cfg("baseline", epochs_a=3, epochs_b=0, epochs_c=0,
                      batch_size=4, lr_main=400.0, seed=16)
    m = tiny_model(seed=51)
    with pytest.raises(tr.DivergenceError, match="epoch"):
        tr.train(m, train_ds, dev_ds, cfg)


def test_phase_a_loss_decreases():
    # the >= 50% drop within 5 epochs is asserted at toy-preset scale in
    # the acceptance suite; this micro dataset just has to make progress
    train_ds, _ = tiny_data(utts=10, seed=202)
    _, dev_ds, _ = gd.split(train_ds, 0.6, 0.2, seed=17)
    cfg = train_cfg("baseline", epochs_a=5, epochs_b=0, epochs_c=0, batch_size=8,
                      lr_main=0.03, lr_speaker=0.02, seed=18)
    m = tiny_model(seed=52)
    result = tr.train(m, train_ds, dev_ds, cfg)
    first, last = result.rows[0].train_acoustic_loss, result.rows[-1].train_acoustic_loss
    assert last < first, (first, last)
