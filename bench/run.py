"""Benchmark of gradflip's training, decoding and probing paths.

    python3 bench/run.py --workload train-al --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports the program from
src/ and reads the toy preset from configs/toy.cfg. Workloads: train-al,
decode and probe (see README.md). With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps the program's public
functions (tracing.py) and reports the per-layer metrics instead. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run's
settings and checks. Work files go to bench/out/ and are removed at the
end; the result and, when traced, the spans stay there.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from tracing import MODULES, NAME, OPS, Patches, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TOY_CFG = ROOT / "configs" / "toy.cfg"

if not (ROOT / "src" / "gradflip" / "__init__.py").is_file() or not TOY_CFG.is_file():
    sys.exit(f"bench: {ROOT} holds no gradflip source tree (src/gradflip, configs/toy.cfg)")
sys.path.insert(0, str(ROOT / "src"))

from gradflip import analysis, asg, config as cf, data as gd, model as gm, tensor as tz, trainer as tr  # noqa: E402
from gradflip.rng import RngStream, stream_seed  # noqa: E402

WORKLOADS = ("train-al", "decode", "probe")
SPLITS = ("train", "dev", "test")
N_SETUPS = 5  # timed set-ups per run; setup_s is their median
# train-al runs one epoch of each phase over the whole train split, so
# that one round fits a run; the other workloads only read the model's
# fork (mid, as in the preset) from these
TRAIN_OVERRIDES = {
    "train.mode": "al", "train.fork": "mid",
    "train.epochs_a": "1", "train.epochs_b": "1", "train.epochs_c": "1",
}
PROBE_LAYERS = ("0", "in", "mid", "out")
PROBE_MIN_ACC0 = 0.5  # layer 0 carries the speaker's gain and offset: ~0.98 at 10 epochs
ASG_SAMPLE = 16  # utterances whose ASG loss is checked against the reference
# op_ms_tail is the nearest-rank p90 of the operation times (lowered until
# 10 operations lie beyond it). The highest percentile with 10 beyond would
# be p95 for train-al's 225 steps and p99 for probe's 2396 batches, but
# there single host stalls decide it: over ten seeds p95 spread 0.12 and
# p99 0.13, against 0.07 and 0.05 at p90.
TAIL_PERCENTILE = 90
REL_TOL = 1e-9
DATA_SEED_TRIES = 20

# per-layer metric -> unit; every one is lower-is-better except traced_frames_per_s
PER_LAYER = {
    "tensor.backward_ms": "ms",
    "tensor.backward_calls_per_step": "count",
    "tensor.ops_per_utt": "count",
    "tensor.sgd_step_ms": "ms",
    "layers.gated_conv_ms": "ms",
    "layers.pool_ms": "ms",
    "model.forward_joint_ms": "ms",
    "model.forward_acoustic_ms": "ms",
    "model.forward_speaker_ms": "ms",
    "model.extract_representation_ms": "ms",
    "model.save_checkpoint_s": "s",
    "model.load_checkpoint_s": "s",
    "asg.loss_ms": "ms",
    "asg.full_logadd_ms": "ms",
    "asg.constrained_logadd_ms": "ms",
    "asg.viterbi_ms": "ms",
    "asg.viterbi_calls_per_utt": "count",
    "trainer.step_ms": "ms",
    "trainer.step_ms.phase_b": "ms",
    "trainer.step_self_ms": "ms",
    "trainer.epoch_other_s": "s",
    "analysis.dump_reps_s": "s",
    "analysis.train_probe_s": "s",
    "data.generate_s": "s",
    "data.save_dataset_s": "s",
    "data.load_dataset_s": "s",
    **{f"{module}.self_ms_per_op": "ms" for module in MODULES if module != "data"},
    "traced_frames_per_s": "frames/s",
}
# per-layer metric -> (span name, scale) for the mean duration per call
PER_CALL = {
    "tensor.backward_ms": ("tensor.backward", 1e3),
    "tensor.sgd_step_ms": ("tensor.sgd_step", 1e3),
    "layers.gated_conv_ms": ("layers.GatedConv.forward", 1e3),
    "layers.pool_ms": ("layers.pool", 1e3),
    "model.forward_joint_ms": ("model.forward_joint", 1e3),
    "model.forward_acoustic_ms": ("model.forward_acoustic", 1e3),
    "model.forward_speaker_ms": ("model.forward_speaker", 1e3),
    "model.extract_representation_ms": ("model.extract_representation", 1e3),
    "model.save_checkpoint_s": ("model.save_checkpoint", 1.0),
    "model.load_checkpoint_s": ("model.load_checkpoint", 1.0),
    "asg.loss_ms": ("asg.asg_loss", 1e3),
    "asg.full_logadd_ms": ("asg.full_logadd", 1e3),
    "asg.constrained_logadd_ms": ("asg.constrained_logadd", 1e3),
    "asg.viterbi_ms": ("asg.viterbi_decode", 1e3),
    "trainer.step_ms": ("trainer.step", 1e3),
    "trainer.step_ms.phase_b": ("trainer.step.phase_b", 1e3),
    "analysis.dump_reps_s": ("analysis.dump_reps", 1.0),
    "analysis.train_probe_s": ("analysis.train_probe", 1.0),
    "data.generate_s": ("data.generate", 1.0),
    "data.save_dataset_s": ("data.save_dataset", 1.0),
    "data.load_dataset_s": ("data.load_dataset", 1.0),
}


@dataclass
class SetUp:
    generated: tuple  # train, dev, test as generated
    loaded: tuple  # the same, read back from the written files
    model: object  # seeded model, read back from its checkpoint
    checkpoint: Path


@dataclass
class Measured:
    op_ms: list = field(default_factory=list)
    failed: int = 0
    frames: int = 0
    wall_s: float = 0.0  # time of the operations (the frames_per_s base)
    step_utts: int = 0
    epochs: int = 0
    decoded_utts: int = 0  # utterance decodes the workload asks for
    errors: set = field(default_factory=set)
    outputs: list = field(default_factory=list)  # non-timing results, in the order produced


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


PROGRAM_ERRORS = (ArithmeticError, ValueError, RuntimeError)


def rounds(seconds: float, out: Measured, body) -> None:
    """Run whole rounds of the workload's operations: at least one, and
    another only while it is expected to end within `seconds`. A round the
    program aborts with an error counts as one failed operation."""
    began = time.perf_counter()
    done = 0
    while True:
        try:
            body()
        except PROGRAM_ERRORS as e:
            out.failed += 1
            out.errors.add(f"{type(e).__name__}: {e}")
        done += 1
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / done > seconds:
            return


class OpClock:
    """The benchmark's operation clock: one perf_counter pair per operation."""

    def __init__(self):
        self.ms: list[float] = []
        self.last: float | None = None

    def around(self, fn):
        """Time each call of fn as one operation."""

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.ms.append((time.perf_counter() - start) * 1e3)
            return out

        return timed

    def between(self, fn):
        """Time the span from the end of one call of fn to the end of the
        next; set `last` to None to start over."""

        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            now = time.perf_counter()
            if self.last is not None:
                self.ms.append((now - self.last) * 1e3)
            self.last = now
            return out

        return marked


# ---------------------------------------------------------------------------
# set-up


def set_up(cfg, work: Path) -> SetUp:
    """Generate and split the preset's data, write and read back its three
    files, build the seeded model, write and read back its checkpoint."""
    main, _ = gd.partition_semi(gd.generate(cf.gen_config(cfg)))
    generated = gd.split(main, cfg["gen.train_frac"], cfg["gen.dev_frac"], cfg["seed"])
    loaded = []
    for name, ds in zip(SPLITS, generated):
        path = work / f"synth.{name}"
        gd.save_dataset(ds, path)
        loaded.append(gd.load_dataset(path))
    train = loaded[0]
    mcfg = cf.model_config(cfg, train.dim, len(train.vocab), len(train.speakers))
    ckpt = work / "seeded.ckpt"
    gm.save_checkpoint(gm.build_model(mcfg, cfg["seed"]), ckpt)
    return SetUp(generated, tuple(loaded), gm.load_checkpoint(ckpt), ckpt)


def n_frames(utts) -> int:
    return sum(u.features.shape[0] for u in utts)


# ---------------------------------------------------------------------------
# train-al


def warm_train_al(cfg, s: SetUp) -> None:
    m = gm.build_model(s.model.cfg, cfg["seed"])
    train, dev = s.loaded[0], s.loaded[1]
    tr.step(m, train.utterances[:8], "al", 0.1, rng=RngStream(cfg["seed"], "bench/warm"))
    analysis.evaluate_ler(m, gd.Dataset(dev.utterances[:8], dev.vocab, dev.speakers))


def run_train_al(cfg, s: SetUp, seconds: float, tracer: Tracer, work: Path, checks: Checks) -> Measured:
    train, dev = s.loaded[0], s.loaded[1]
    tcfg = cf.train_config(cfg)
    epochs = tcfg.epochs_a + tcfg.epochs_b + tcfg.epochs_c
    out = Measured()
    clock = OpClock()
    patches = Patches()
    patches.replace(tr.step, clock.around(tr.step))
    last = {}

    def train_round():
        m = gm.build_model(s.model.cfg, cfg["seed"])
        with tracer.span("bench.round"):
            start = time.perf_counter()
            result = tr.train(m, train, dev, tcfg, work / "train-al")
            out.wall_s += time.perf_counter() - start
        out.frames += epochs * n_frames(train.utterances)
        out.epochs += epochs
        out.step_utts += epochs * len(train.utterances)
        out.decoded_utts += epochs * len(dev.utterances)
        # the CSV row minus its last field, wall_clock_sec
        out.outputs.append([r.csv().rsplit(",", 1)[0] for r in result.rows])
        last.update(model=m, result=result)

    try:
        rounds(seconds, out, train_round)
    finally:
        patches.restore()
    out.op_ms = clock.ms
    if not last:
        return out
    m, result = last["model"], last["result"]
    checks.expect(all(o == out.outputs[0] for o in out.outputs), "train-al: metrics rows differ between rounds")
    checks.expect([r.phase for r in result.rows] == ["A", "B", "C"], "train-al: phases are not A, B, C")
    checks.expect(result.rows[-1].lam > 0.0, "train-al: phase C ran with lambda 0")
    checks.expect(
        result.rows[-1].train_acoustic_loss < result.rows[0].train_acoustic_loss,
        "train-al: last epoch's acoustic loss is not below the first's",
    )
    run_dir = work / "train-al"
    checks.expect(
        (run_dir / "final.ckpt").is_file() and (run_dir / "best.ckpt").is_file(), "train-al: checkpoints not written"
    )
    csv = [tr.METRICS_HEADER] + [r.csv() for r in result.rows]
    checks.expect((run_dir / "metrics.csv").read_text() == "\n".join(csv) + "\n", "train-al: metrics.csv differs from the rows")
    check_asg_loss(m, train, checks)
    check_opposite_gradients(cfg, s, train, tcfg, checks)
    return out


def check_asg_loss(m, train, checks: Checks) -> None:
    trans = m.transitions.data
    with tz.no_grad():
        for u in train.utterances[:: len(train.utterances) // ASG_SAMPLE][:ASG_SAMPLE]:
            em = gm.forward_acoustic(m, u.features, "eval")
            loss = asg.asg_loss(em, m.transitions, u.transcript).item()
            expected = ref.asg_forward(em.data, trans, u.transcript)
            checks.expect(close(loss, expected) and loss >= 0.0, f"train-al: {u.id}: asg_loss {loss!r} != reference {expected!r}")


def check_opposite_gradients(cfg, s: SetUp, train, tcfg, checks: Checks) -> None:
    """mt and al differ only in the junction's sign (the paper's claim)."""
    lam = tr.lambda_at(tcfg.schedule(), 1, tcfg.epochs_c)
    batch = train.utterances[:: len(train.utterances) // tcfg.batch_size][: tcfg.batch_size]
    grads = {}
    for mode in ("mt", "al"):
        m = gm.build_model(s.model.cfg, cfg["seed"])
        grads[mode] = tr.compute_gradients(m, batch, mode, lam, RngStream(cfg["seed"], "bench/gradients"))
    _, _, ac_mt, sp_mt = grads["mt"]
    _, _, ac_al, sp_al = grads["al"]
    fork = m.cfg.fork_layer
    for name, _, group in m.params.items():
        checks.expect(np.array_equal(ac_mt[name], ac_al[name]), f"train-al: acoustic gradient of {name} differs between mt and al")
        if group == "speaker":
            checks.expect(np.array_equal(sp_mt[name], sp_al[name]), f"train-al: speaker-branch gradient of {name} differs")
        elif name.startswith("stack.") and int(name.split(".")[1]) <= fork:
            checks.expect(
                np.array_equal(sp_al[name], -sp_mt[name]) and np.any(sp_mt[name] != 0.0),
                f"train-al: speaker gradient of {name} below the fork is not the exact negative",
            )
        else:
            checks.expect(
                not np.any(sp_mt[name]) and not np.any(sp_al[name]),
                f"train-al: speaker gradient reaches {name} above the fork",
            )


# ---------------------------------------------------------------------------
# decode


def warm_decode(cfg, s: SetUp) -> None:
    dev = s.loaded[1]
    head = gd.Dataset(dev.utterances[:8], dev.vocab, dev.speakers)
    analysis.evaluate_ler(s.model, head)
    analysis.evaluate_wer(s.model, head)


def run_decode(cfg, s: SetUp, seconds: float, tracer: Tracer, work: Path, checks: Checks) -> Measured:
    splits = {"dev": s.loaded[1], "test": s.loaded[2]}
    out = Measured()
    scores = {name: set() for name in splits}

    def decode_round():
        with tracer.span("bench.round"):
            for name, ds in splits.items():
                start = time.perf_counter()
                ler = analysis.evaluate_ler(s.model, ds)
                wer = analysis.evaluate_wer(s.model, ds)
                elapsed = time.perf_counter() - start
                out.op_ms.append(elapsed * 1e3)
                out.wall_s += elapsed
                out.frames += n_frames(ds.utterances)
                out.decoded_utts += len(ds.utterances)
                scores[name].add((ler.value, wer.value, ler.n_scored, wer.n_scored))
                out.outputs.append([name, ler.value, wer.value])

    rounds(seconds, out, decode_round)
    m = s.model
    for name, ds in splits.items():
        checks.expect(len(scores[name]) == 1, f"decode: {name}: LER/WER differ between passes")
        ler_err = wer_err = ler_len = wer_len = 0
        for u in ds.utterances:
            with tz.no_grad():
                em = gm.forward_acoustic(m, u.features, "eval").data
            path = asg.viterbi_decode(em, m.transitions.data)
            score = asg.path_score(em, m.transitions.data, path)
            best = ref.best_path_score(em, m.transitions.data)
            checks.expect(close(score, best), f"decode: {u.id}: Viterbi path scores {score!r}, best path {best!r}")
            hyp = ref.collapse(path)
            ler_err += ref.levenshtein(hyp, u.transcript)
            ler_len += len(u.transcript)
            hyp_w, ref_w = ref.words(hyp, ds.separator), ref.words(u.transcript, ds.separator)
            wer_err += ref.levenshtein(hyp_w, ref_w)
            wer_len += len(ref_w)
        expected = (ler_err / ler_len, wer_err / wer_len, len(ds.utterances), len(ds.utterances))
        checks.expect(scores[name] == {expected}, f"decode: {name}: LER/WER {scores[name]} != reference {expected}")
    return out


# ---------------------------------------------------------------------------
# probe


def probe_layers(m) -> dict[str, int]:
    return {label: 0 if label == "0" else gm.resolve_fork(m.cfg.n_layers, label) for label in PROBE_LAYERS}


def probe_split(items_speakers: list[int], cell_seed: int) -> tuple[list[int], list[int]]:
    """The probe's held-out split as the method defines it: per speaker, in
    label order, a seeded permutation; the first max(1, 20%) are held out."""
    rng = RngStream(cell_seed, "probe/split")
    by_speaker: dict[int, list[int]] = {}
    for i, spk in enumerate(items_speakers):
        by_speaker.setdefault(spk, []).append(i)
    train_idx, eval_idx = [], []
    for spk in sorted(by_speaker):
        idxs = [by_speaker[spk][p] for p in rng.permutation(len(by_speaker[spk]))]
        n_eval = max(1, int(0.2 * len(idxs)))
        eval_idx += idxs[:n_eval]
        train_idx += idxs[n_eval:]
    return train_idx, eval_idx


def warm_probe(cfg, s: SetUp) -> None:
    train = s.loaded[0]
    head = gd.Dataset(train.utterances[::25], train.vocab, train.speakers)
    analysis.train_probe(analysis.dump_reps(s.model, head, 1), epochs=1, seed=cfg["seed"])


def run_probe(cfg, s: SetUp, seconds: float, tracer: Tracer, work: Path, checks: Checks) -> Measured:
    m, train = s.model, s.loaded[0]
    layers = probe_layers(m)
    epochs = cfg["probe.epochs"]
    speakers = [u.speaker for u in train.utterances]
    cell_frames, cell_eval = {}, {}
    for label in layers:
        train_idx, eval_idx = probe_split(speakers, stream_seed(cfg["seed"], f"probe/seeded/{label}"))
        cell_frames[label] = epochs * n_frames(train.utterances[i] for i in train_idx)
        cell_eval[label] = len(eval_idx)
    before = {name: t.data.tobytes() for name, t, _ in m.params.items()}
    ckpt_bytes = s.checkpoint.read_bytes()

    out = Measured()
    clock = OpClock()
    patches = Patches()
    patches.replace(tz.sgd_step, clock.between(tz.sgd_step))
    cells = {label: set() for label in layers}

    def probe_round():
        with tracer.span("bench.round"):
            for label, layer in layers.items():
                clock.last = None
                start = time.perf_counter()
                cell = analysis.figure2_report({"seeded": m}, {label: layer}, train, epochs, cfg["seed"])[0]
                out.wall_s += time.perf_counter() - start
                out.frames += cell_frames[label]
                cells[label].add((cell.accuracy, cell.n_eval))
                out.outputs.append([label, cell.accuracy, cell.n_eval])

    try:
        rounds(seconds, out, probe_round)
    finally:
        patches.restore()
    out.op_ms = clock.ms

    after = {name: t.data.tobytes() for name, t, _ in m.params.items()}
    checks.expect(after == before, "probe: the probed model's parameters changed")
    checks.expect(s.checkpoint.read_bytes() == ckpt_bytes, "probe: the checkpoint file changed")
    dump0 = analysis.dump_reps(m, train, 0)
    checks.expect(
        all(np.array_equal(rep, u.features) for (_, rep, _), u in zip(dump0.items, train.utterances)),
        "probe: the layer-0 dump differs from the input features",
    )
    for label in layers:
        checks.expect(len(cells[label]) == 1, f"probe: layer {label}: results differ between rounds")
        for acc, n_eval in cells[label]:
            checks.expect(n_eval == cell_eval[label], f"probe: layer {label}: n_eval {n_eval} != split size {cell_eval[label]}")
            if label == "0":
                checks.expect(acc >= PROBE_MIN_ACC0, f"probe: layer-0 accuracy {acc} below {PROBE_MIN_ACC0}")
    return out


RUNNERS = {
    "train-al": (warm_train_al, run_train_al),
    "decode": (warm_decode, run_decode),
    "probe": (warm_probe, run_probe),
}


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile, lowered until at least 10 values lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(percentile, 0, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p
    sys.exit(f"bench: {n} operations leave no tail with 10 beyond it; raise --seconds")


def end_to_end(setup_times: list[float], got: Measured) -> tuple[dict, dict]:
    tail_ms, tail_p = tail(got.op_ms, TAIL_PERCENTILE)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "frames_per_s": (got.frames / got.wall_s, "frames/s"),
        "op_ms_p50": (statistics.median(got.op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": tail_p, "setup_s_each": setup_times}


def per_layer(tracer: Tracer, got: Measured) -> dict:
    """Per-layer metrics from the spans; a layer the workload never calls reads 0."""
    stats = tracer.stats()
    spans = tracer.spans

    def per_call(name, scale):
        calls, total, _ = stats.get(name, (0, 0.0, 0.0))
        return total / calls * scale if calls else 0.0

    values = {metric: per_call(*spec) for metric, spec in PER_CALL.items()}
    in_step = tracer.inside("trainer.step")
    in_round = tracer.inside("bench.round")
    steps = sum(1 for s in spans if s[NAME].startswith("trainer.step"))
    backward_in_steps = sum(1 for s, i in zip(spans, in_step) if i and s[NAME] == "tensor.backward")
    ops_in_steps = sum(s[OPS] for s, i in zip(spans, in_step) if i)
    viterbi = sum(1 for s, i in zip(spans, in_round) if i and s[NAME] == "asg.viterbi_decode")
    step_self = sum(stats.get(n, (0, 0.0, 0.0))[2] for n in ("trainer.step", "trainer.step.phase_b"))
    step_total = sum(stats.get(n, (0, 0.0, 0.0))[1] for n in ("trainer.step", "trainer.step.phase_b"))
    values["tensor.backward_calls_per_step"] = backward_in_steps / steps if steps else 0.0
    values["tensor.ops_per_utt"] = ops_in_steps / got.step_utts if got.step_utts else 0.0
    values["asg.viterbi_calls_per_utt"] = viterbi / got.decoded_utts if got.decoded_utts else 0.0
    values["trainer.step_self_ms"] = step_self / steps * 1e3 if steps else 0.0
    train_total = stats.get("trainer.train", (0, 0.0, 0.0))[1]
    values["trainer.epoch_other_s"] = (train_total - step_total) / got.epochs if got.epochs else 0.0
    own = tracer.self_times()
    for module in MODULES:
        if module != "data":
            busy = sum(t for s, t, i in zip(spans, own, in_round) if i and s[NAME].startswith(module + "."))
            values[f"{module}.self_ms_per_op"] = busy / max(1, len(got.op_ms)) * 1e3
    values["traced_frames_per_s"] = got.frames / got.wall_s
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def outputs_digest(outputs: list) -> str:
    """Digest of the distinct non-timing results, so that two runs with the
    same seed can be compared whatever their number of rounds."""
    distinct = sorted({json.dumps(o) for o in outputs})
    return hashlib.sha256("\n".join(distinct).encode()).hexdigest()


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).is_file():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics() -> tuple[dict, dict] | None:
    """BENCHMARK.json's end-to-end and per-layer metrics, name -> unit."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def toy_config(seed: int) -> dict:
    return cf.resolve(cf.load_config_file(TOY_CFG), TRAIN_OVERRIDES, seed_flag=seed)


def data_seed(seed: int) -> int:
    """The first of seed, seed + 10**6, seed + 2 * 10**6, ... whose data the
    toy generator accepts. It refuses a draw whose speaker offsets lie too
    close together for its noise (seed 29 is one), so such a seed is
    skipped, not failed."""
    for candidate in range(seed, seed + DATA_SEED_TRIES * 10**6, 10**6):
        try:
            gd.generate(cf.gen_config(toy_config(candidate)))
        except ValueError:
            continue
        return candidate
    sys.exit(f"bench: the toy generator refuses seed {seed} and its {DATA_SEED_TRIES - 1} alternatives")


def step_span_name(args, kwargs) -> str:
    """Phase B steps update only the speaker group; their span is named apart."""
    groups = kwargs.get("update_groups", args[7] if len(args) > 7 else None)
    return "trainer.step.phase_b" if groups == ("speaker",) else "trainer.step"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cfg = toy_config(data_seed(args.seed))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    if args.trace:
        tracer.namers["trainer.step"] = step_span_name
    warm_up, run = RUNNERS[args.workload]
    checks = Checks()
    try:
        s = set_up(cfg, work)  # untimed: the warm-up set-up
        warm_up(cfg, s)
        if args.trace:
            tracer.install()
        setup_times = []
        for _ in range(N_SETUPS):
            start = time.perf_counter()
            s = set_up(cfg, work)
            setup_times.append(time.perf_counter() - start)
        try:
            got = run(cfg, s, args.seconds, tracer, work, checks)
        finally:
            tracer.remove()
        checks.expect(got.op_ms, "no operation completed")
        for gen, back in zip(s.generated, s.loaded):
            checks.expect(gd.datasets_equal(gen, back), "set-up: a dataset file does not read back as written")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(tracer, got), {}
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    else:
        metrics, extra = end_to_end(setup_times, got)
    declared = declared_metrics()
    if declared is not None and {name: unit for name, (_, unit) in metrics.items()} != declared[args.trace]:
        sys.exit("bench: the reported metrics or their units differ from BENCHMARK.json")

    info = {
        "workload": args.workload, "seed": args.seed, "data_seed": cfg["seed"], "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "threads": {v: os.environ[v] for v in THREAD_ENV},
        "python": platform.python_version(), "numpy": np.__version__, "git_revision": git_revision(),
        "operations": len(got.op_ms), "frames": got.frames, "timed_s": got.wall_s,
        "checks_passed": checks.passed, "check_failures": checks.failures,
        "errors": sorted(got.errors), "outputs_sha256": outputs_digest(got.outputs), **extra,
    }
    result = {
        "correct": not checks.failures,
        "attempted": len(got.op_ms) + got.failed,
        "failed": got.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"run": info, **result, "op_ms": got.op_ms}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record) + "\n")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
