"""Acceptance criteria, one test per criterion, one pass/fail line each.

The slow criteria (6, 7, 8) train real models on the toy preset; session
fixtures share those runs. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time

import numpy as np
import pytest

from gradflip import analysis as an, asg, config as cf, data as gd
from gradflip import layers, model as gm, tensor as tz, trainer as tr
from gradflip.cli import main as cli_main
from gradflip.layers import PoolingConfig
from gradflip.rng import RngStream
from gradflip.trainer import LambdaSchedule, lambda_at
from helpers import check_gradients, grad_error

TOY_SEED = 1234
FIG2_FORK = "mid"


def report(criterion, text):
    print(f"\n[acceptance] criterion {criterion}: PASS ({text})")


# ---------------------------------------------------------------------------
# shared toy-preset runs


@pytest.fixture(scope="session")
def toy_data():
    cfg = cf.resolve()
    assert cfg["seed"] == TOY_SEED
    full = gd.generate(cf.gen_config(cfg))
    main_ds, _ = gd.partition_semi(full)
    train_ds, dev_ds, test_ds = gd.split(main_ds, cfg["gen.train_frac"], cfg["gen.dev_frac"], cfg["seed"])
    assert len(train_ds.utterances) == 600
    assert len(train_ds.speakers) == 12
    assert len(train_ds.vocab) == 7  # 6 letters + separator
    return cfg, train_ds, dev_ds, test_ds


def _train_cell(cfg, train_ds, dev_ds, mode, fork=FIG2_FORK):
    c = dict(cfg)
    c["train.mode"] = mode
    c["train.fork"] = fork
    mcfg = cf.model_config(c, train_ds.dim, len(train_ds.vocab), len(train_ds.speakers))
    m = gm.build_model(mcfg, c["seed"])
    t0 = time.perf_counter()
    result = tr.train(m, train_ds, dev_ds, cf.train_config(c))
    return m, result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def toy_baseline(toy_data):
    cfg, train_ds, dev_ds, _ = toy_data
    return _train_cell(cfg, train_ds, dev_ds, "baseline")


@pytest.fixture(scope="session")
def toy_mt(toy_data):
    cfg, train_ds, dev_ds, _ = toy_data
    return _train_cell(cfg, train_ds, dev_ds, "mt")


@pytest.fixture(scope="session")
def toy_al(toy_data):
    cfg, train_ds, dev_ds, _ = toy_data
    return _train_cell(cfg, train_ds, dev_ds, "al")


def toy_model(cfg, train_ds, mode="mt", fork=FIG2_FORK, seed=TOY_SEED):
    c = dict(cfg)
    c["train.mode"] = mode
    c["train.fork"] = fork
    mcfg = cf.model_config(c, train_ds.dim, len(train_ds.vocab), len(train_ds.speakers))
    return gm.build_model(mcfg, seed)


# ---------------------------------------------------------------------------
# criterion 1: ASG oracle equivalence


def test_criterion_1_asg_oracle_equivalence():
    t0 = time.perf_counter()

    def enum_logadd(scores):
        m = max(scores)
        return m + math.log(sum(math.exp(s - m) for s in scores))

    rng = np.random.default_rng(11)
    checked = 0
    for t_len in range(1, 5):
        for k in (2, 3):
            for n in range(1, t_len + 1):
                for _ in range(20):
                    em = rng.normal(size=(t_len, k)) * 2.0
                    trs = rng.normal(size=(k, k))
                    target = [int(rng.integers(0, k))]
                    while len(target) < n:
                        nxt = int(rng.integers(0, k - 1))
                        target.append(nxt if nxt < target[-1] else nxt + 1)
                    paths = list(itertools.product(range(k), repeat=t_len))
                    full = enum_logadd([asg.path_score(em, trs, p) for p in paths])
                    aligned = [
                        asg.path_score(em, trs, p) for p in paths if asg.collapse(p) == tuple(target)
                    ]
                    ref = full - enum_logadd(aligned)
                    got = asg.asg_loss(tz.Tensor(em), tz.Tensor(trs), target).item()
                    assert abs(got - ref) <= 1e-9, (t_len, k, n, got, ref)
                    checked += 1
    # analytic case: T=3, K=4, N=2, zero scores -> ln 32
    loss = asg.asg_loss(tz.Tensor(np.zeros((3, 4))), tz.Tensor(np.zeros((4, 4))), [0, 1]).item()
    assert abs(loss - math.log(32.0)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(1, f"{checked} DP-vs-enumeration instances + ln32 case in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite


def test_criterion_2_gradient_suite(toy_data):
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)

    checks = 0
    lone5 = layers.Packing((5,))  # each layer input below is one 5-frame utterance

    def layer_losses():
        yield "conv1d", [rng.normal(size=(5, 2)), rng.normal(size=(6, 3)), rng.normal(size=3)], (
            lambda x, w, b: tz.sum_reduce(tz.mul(layers.conv1d(x, w, b, 3, lone5), layers.conv1d(x, w, b, 3, lone5)))
        )
        yield "glu", [rng.normal(size=(4, 6))], (
            lambda x: tz.sum_reduce(tz.mul(layers.glu(x), layers.glu(x)))
        )
        yield "weight_norm", [rng.normal(size=(4, 3)), rng.normal(size=3)], (
            lambda v, g: tz.sum_reduce(tz.mul(layers.weight_norm(v, g), layers.weight_norm(v, g)))
        )
        for kind in ("sum", "max", "logsumexp"):
            cfg = PoolingConfig(kind, 1.3)
            yield f"pool-{kind}", [rng.normal(size=(5, 3))], (
                lambda x, cfg=cfg: tz.sum_reduce(tz.mul(layers.pool(x, cfg, lone5), layers.pool(x, cfg, lone5)))
            )
        yield "speaker_nll", [rng.normal(size=5)], (lambda l: gm.speaker_nll(l, 2))
        yield "asg_loss", [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))], (
            lambda em, trs: asg.asg_loss(em, trs, [0, 2])
        )

    for name, arrays, build in layer_losses():
        check_gradients(build, arrays, tol=1e-6)
        checks += 1

    # end-to-end toy model at 30 sampled parameters, scaled error <= 1e-4
    cfg, train_ds, _, _ = toy_data
    m = toy_model(cfg, train_ds, seed=77)
    x = rng.normal(size=(6, train_ds.dim))
    target = [0, 2, 1]

    def total_loss():
        em, logits = gm.forward_joint(m, x, factor=1.0, mode="eval")
        return tz.add(asg.asg_loss(em, m.transitions, target), tz.smul(gm.speaker_nll(logits, 3), 0.5))

    grads = tz.backward(total_loss(), m.params)
    names = m.params.names()
    eps, worst = 1e-5, 0.0
    for _ in range(30):
        name = names[int(rng.integers(0, len(names)))]
        t = m.params.get(name)
        idx = int(rng.integers(0, t.size))
        orig = t.data.reshape(-1)[idx]
        t.data.reshape(-1)[idx] = orig + eps
        with tz.no_grad():
            hi = total_loss().item()
        t.data.reshape(-1)[idx] = orig - eps
        with tz.no_grad():
            lo = total_loss().item()
        t.data.reshape(-1)[idx] = orig
        worst = max(worst, grad_error(grads[name].reshape(-1)[idx], (hi - lo) / (2 * eps)))
    assert worst <= 1e-4, worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(2, f"{checks} op suites at 1e-6 + 30-param end-to-end at 1e-4 (worst {worst:.2e}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: MT/AL duality


def test_criterion_3_mt_al_duality(toy_data):
    cfg, train_ds, _, _ = toy_data
    batch = train_ds.utterances[:8]
    lam = 0.5

    def grads(mode):
        m = toy_model(cfg, train_ds, seed=88)
        return m, tr.compute_gradients(m, batch, mode, lam, rng=RngStream(5, "dual"))

    m, (_, _, ac_mt, sp_mt) = grads("mt")
    _, (_, _, ac_al, sp_al) = grads("al")
    fork = m.cfg.fork_layer
    worst = 0.0
    for name, _, group in m.params.items():
        if group == "speaker":
            assert np.array_equal(sp_mt[name], sp_al[name]), name
        elif name.startswith("stack.") and int(name.split(".")[1]) <= fork:
            worst = max(worst, float(np.max(np.abs(sp_mt[name] + sp_al[name]))))
        else:
            assert np.all(sp_mt[name] == 0.0) and np.all(sp_al[name] == 0.0), name
        assert np.array_equal(ac_mt[name], ac_al[name]), name
    assert worst <= 1e-12, worst
    report(3, f"encoder speaker-gradients negate exactly (max |sum| {worst:.1e}); D_s/D_y identical")


# ---------------------------------------------------------------------------
# criterion 4: phase protocol


def test_criterion_4_phase_protocol(toy_data):
    cfg, train_ds, dev_ds, _ = toy_data
    # phase A: junction factor 0 -> exactly zero speaker gradient into main
    m = toy_model(cfg, train_ds, seed=99)
    _, _, _, g_sp = tr.compute_gradients(m, train_ds.utterances[:8], "al", 0.0, rng=RngStream(6, "a"))
    for name in m.params.group_names("main"):
        assert np.all(g_sp[name] == 0.0), name

    # phase B: main group bit-unchanged over two epochs
    sub = gd.Dataset(train_ds.utterances[:48], train_ds.vocab, train_ds.speakers)
    m2 = toy_model(cfg, train_ds, seed=100)
    c = dict(cfg)
    c["train.mode"] = "al"
    c["train.epochs_a"], c["train.epochs_b"], c["train.epochs_c"] = 1, 2, 0
    tcfg = cf.train_config(c)
    import dataclasses

    # replicate: run phase A alone, snapshot, then run A+B and compare
    m_a = toy_model(cfg, train_ds, seed=100)
    tr.train(m_a, sub, dev_ds, dataclasses.replace(tcfg, epochs_b=0))
    tr.train(m2, sub, dev_ds, tcfg)
    for name in m2.params.group_names("main"):
        assert np.array_equal(m2.params.get(name).data, m_a.params.get(name).data), name
    report(4, "phase A: zero speaker-gradient flow into main; phase B: main bit-frozen")


# ---------------------------------------------------------------------------
# criterion 5: semi-supervised contract


def test_criterion_5_semi_contract(toy_data):
    cfg, train_ds, _, _ = toy_data
    c = dict(cfg)
    c["gen.semi_speakers"] = 3
    full = gd.generate(cf.gen_config(c))
    main_ds, semi_ds = gd.partition_semi(full)
    assert semi_ds is not None
    mcfg = cf.model_config(c, main_ds.dim, len(main_ds.vocab), len(main_ds.speakers) + len(semi_ds.speakers))
    m = gm.build_model(mcfg, c["seed"])
    offset = len(main_ds.speakers)
    batch = [gd.Utterance(u.id, offset + u.speaker, None, u.features) for u in semi_ds.utterances[:8]]
    ac, sp, g_ac, g_sp = tr.compute_gradients(m, batch, "semi", 0.15, rng=RngStream(7, "semi"))
    assert math.isnan(ac) and math.isfinite(sp)
    fork = m.cfg.fork_layer
    for name in m.params.names():
        decoder_side = (
            name == "asg.trans"
            or name.startswith("out.")
            or (name.startswith("stack.") and int(name.split(".")[1]) > fork)
        )
        assert np.all(g_ac[name] == 0.0), name
        if decoder_side:
            assert np.all(g_sp[name] == 0.0), name
    report(5, "speaker-only batches leave D_y and transitions with exactly zero gradient")


# ---------------------------------------------------------------------------
# criterion 6: desk-scale learning


def test_criterion_6_desk_scale_learning(toy_baseline):
    _, result, elapsed = toy_baseline
    assert len(result.rows) <= 22
    assert result.best_dev_ler <= 0.10, result.best_dev_ler
    assert elapsed <= 600.0, f"wall clock {elapsed:.0f}s exceeds 10min"
    # loss sanity invariant: phase-A acoustic loss halves within 5 epochs
    first = result.rows[0].train_acoustic_loss
    fifth = result.rows[4].train_acoustic_loss
    assert fifth <= 0.5 * first, (first, fifth)
    report(
        6,
        f"baseline dev LER {result.best_dev_ler:.3f} <= 0.10 in {len(result.rows)} epochs, {elapsed:.0f}s; "
        f"phase-A loss {first:.2f} -> {fifth:.2f} (ratio {fifth / first:.3f} <= 0.5)",
    )


# ---------------------------------------------------------------------------
# criterion 7: Figure-2 qualitative reproduction


def test_criterion_7_probe_shape(toy_data, toy_baseline, toy_mt, toy_al):
    cfg, train_ds, _, _ = toy_data
    m_base, _, _ = toy_baseline
    m_mt, _, _ = toy_mt
    m_al, _, _ = toy_al
    layers_map = {
        "in": gm.resolve_fork(cfg["model.n_layers"], "in"),
        "mid": gm.resolve_fork(cfg["model.n_layers"], "mid"),
        "out": gm.resolve_fork(cfg["model.n_layers"], "out"),
    }
    base_cells = {
        c.layer_label: c.accuracy
        for c in an.figure2_report({"baseline": m_base}, layers_map, train_ds, cfg["probe.epochs"], cfg["seed"])
        if c.variant == "baseline"
    }
    fork_map = {FIG2_FORK: layers_map[FIG2_FORK]}
    mt_acc = [
        c.accuracy
        for c in an.figure2_report({"mt": m_mt}, fork_map, train_ds, cfg["probe.epochs"], cfg["seed"])
        if c.variant == "mt"
    ][0]
    al_acc = [
        c.accuracy
        for c in an.figure2_report({"al": m_al}, fork_map, train_ds, cfg["probe.epochs"], cfg["seed"])
        if c.variant == "al"
    ][0]

    a_in, a_mid, a_out = base_cells["in"], base_cells["mid"], base_cells["out"]
    assert a_in >= a_mid, (a_in, a_mid)
    assert a_mid >= a_out - 0.02, (a_mid, a_out)
    assert a_in - a_out >= 0.10, (a_in, a_out)
    base_fork = base_cells[FIG2_FORK]
    assert mt_acc >= base_fork + 0.05, (mt_acc, base_fork)
    assert al_acc <= base_fork - 0.05, (al_acc, base_fork)
    report(
        7,
        f"baseline probes in/mid/out = {a_in:.2f}/{a_mid:.2f}/{a_out:.2f}; "
        f"at fork {FIG2_FORK}: mt {mt_acc:.2f} >= base+0.05, al {al_acc:.2f} <= base-0.05",
    )


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism


MINI_PIPELINE_CFG = """
seed = 31
gen.n_speakers = 4
gen.utterances_per_speaker = 10
gen.alphabet_size = 4
gen.dim = 6
gen.semi_speakers = 1
gen.offset_scale = 1.0
gen.noise_sigma = 0.15
gen.train_frac = 0.6
gen.dev_frac = 0.2
model.n_layers = 3
model.channels = 6
model.kernel_width = 3
model.branch_channels = 4
model.branch_kernel = 3
train.lr_main = 0.02
train.lr_speaker = 0.05
train.batch_size = 4
train.epochs_a = 1
train.epochs_b = 1
train.epochs_c = 2
probe.epochs = 2
"""


def test_criterion_8_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_PIPELINE_CFG)

    def pipeline(root):
        data = root / "data"
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
        assert cli_main(
            ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(root),
             "--mode", "al", "--fork", "mid"]
        ) == 0
        ckpt = root / "al-mid" / "final.ckpt"
        assert cli_main(
            ["probe", "--config", str(cfg_path), "--checkpoints", f"al={ckpt}",
             "--layers", "in,mid,out", "--data", str(data / "synth.train"),
             "--out", str(root / "probe")]
        ) == 0
        assert cli_main(
            ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
             "--data", str(data / "synth.dev"), "--out", str(root / "eval")]
        ) == 0

    pipeline(tmp_path / "r1")
    pipeline(tmp_path / "r2")

    identical = [
        "data/synth.train", "data/synth.dev", "data/synth.test", "data/synth.semi",
        "data/manifest.json", "al-mid/final.ckpt", "al-mid/best.ckpt",
        "al-mid/config.resolved", "probe/probe.csv", "eval/eval.csv",
    ]
    for rel in identical:
        b1 = (tmp_path / "r1" / rel).read_bytes()
        b2 = (tmp_path / "r2" / rel).read_bytes()
        assert b1 == b2, f"{rel} differs"
    # metrics.csv: byte-identical after stripping the wall-clock column
    strip = lambda p: "\n".join(
        ",".join(line.split(",")[:-1]) for line in p.read_text().splitlines()
    )
    assert strip(tmp_path / "r1/al-mid/metrics.csv") == strip(tmp_path / "r2/al-mid/metrics.csv")
    report(8, f"{len(identical)} files byte-identical across two pipelines (+ metrics minus timing)")


# ---------------------------------------------------------------------------
# criterion 9: metric properties


def test_criterion_9_metric_properties():
    rng = np.random.default_rng(99)
    # edit distance metric axioms on 200 random pairs
    seqs = [tuple(rng.integers(0, 4, size=rng.integers(0, 7)).tolist()) for _ in range(400)]
    for i in range(200):
        a, b, c = seqs[i], seqs[i + 100], seqs[i + 200]
        assert an.edit_distance(a, a) == 0
        assert an.edit_distance(a, b) == an.edit_distance(b, a)
        assert an.edit_distance(a, b) <= an.edit_distance(a, c) + an.edit_distance(c, b)

    # LogSumExp pooling bounds on 100 random inputs
    for _ in range(100):
        length = int(rng.integers(1, 9))
        tau = float(rng.uniform(0.2, 30.0))
        r = rng.normal(size=(length, 4)) * rng.uniform(0.2, 4.0)
        s = layers.pool(tz.Tensor(r), PoolingConfig("logsumexp", tau), layers.Packing((length,))).data[0]
        top = r.max(axis=0)
        assert np.all(s <= top)
        assert np.all(s >= top - math.log(length) / tau - 1e-12)

    # lambda ramp endpoints
    sched = LambdaSchedule(value=0.5, lambda_max=0.2, gamma=10.0)
    assert lambda_at(sched, 0, 15) == 0.0
    end = lambda_at(sched, 15, 15)
    assert abs(end - 0.19998) <= 5e-6, end
    report(9, f"edit-distance axioms, LSE pooling bounds, ramp endpoints (0, {end:.5f})")


# ---------------------------------------------------------------------------
# criterion 10: Viterbi correctness


def test_criterion_10_viterbi():
    rng = np.random.default_rng(1010)
    checked = 0
    for t_len in range(1, 5):
        for k in (2, 3):
            for _ in range(20):
                em = rng.normal(size=(t_len, k))
                trs = rng.normal(size=(k, k))
                path = asg.viterbi_decode(em, trs)
                best = max(
                    asg.path_score(em, trs, p) for p in itertools.product(range(k), repeat=t_len)
                )
                assert asg.path_score(em, trs, path) == pytest.approx(best, abs=1e-12)
                checked += 1
    # exact tie-break to the lowest index
    assert asg.viterbi_decode(np.zeros((4, 3)), np.zeros((3, 3))).tolist() == [0, 0, 0, 0]
    report(10, f"{checked} brute-force maxima matched; all-ties path decodes to token 0")
