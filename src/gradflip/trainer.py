"""Training loops for baseline, multi-task, adversarial and semi-supervised
use of speaker labels.

All non-baseline modes share one loss wiring: the transcription loss plus
the unscaled speaker NLL whose gradient crosses the fork through a
gradient-scaling junction. The junction factor is +lambda for multi-task
and -lambda for adversarial/semi-supervised training, so the two regimes
differ in exactly one sign. A training step is one objective, the sum of
the two batch-mean losses, differentiated with one backward pass.
Training runs in three phases:

  A: junction factor pinned to 0 (no speaker gradient reaches the encoder,
     the branch still trains on detached representations),
  B: `main` is frozen (`ParamStore.frozen`): it records no tape and takes
     no update, so a step differentiates only the speaker loss,
  C: joint training with the scheduled lambda.

`train` walks the rows of `epoch_plan`, one (phase, lambda, updated groups)
per epoch. Baseline has no speaker term: its rows keep the labels A, B and
C, but every one runs at lambda 0 and updates both groups.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gradflip import analysis, asg, model as gm, tensor as tz
from gradflip.data import Dataset, Utterance, shuffled_batches, write_lines
from gradflip.model import ModelGraph
from gradflip.rng import RngStream

__all__ = [
    "LambdaSchedule", "TrainConfig", "MetricsRow", "DivergenceError",
    "lambda_at", "epoch_plan", "compute_gradients", "step",
    "make_semi_batches", "train", "TrainResult", "METRICS_HEADER",
]

MODES = ("baseline", "mt", "al", "semi")
METRICS_HEADER = "epoch,phase,train_acoustic_loss,train_speaker_loss,dev_ler,dev_speaker_acc,lambda,wall_clock_sec"
DIVERGENCE_CEILING = 1e6


class DivergenceError(RuntimeError):
    """Acoustic loss left the finite range; training aborted."""


@dataclass(frozen=True)
class LambdaSchedule:
    kind: str  # static | ramp
    value: float  # the static lambda
    lambda_max: float  # the ramp's ceiling
    gamma: float  # the ramp's steepness

    def __post_init__(self):
        if self.kind not in ("static", "ramp"):
            raise ValueError(f"schedule kind must be static or ramp, got {self.kind!r}")
        if self.lambda_max < 0 or self.gamma < 0:  # a negative ramp flips al's junction into mt's
            raise ValueError(f"lambda_max and lambda_gamma must be >= 0, got {self.lambda_max} and {self.gamma}")


def lambda_at(sched: LambdaSchedule, epoch: int, total_epochs: int) -> float:
    """Lambda for a (0-based-ok) epoch position within the joint phase.

    ramp: lambda_max * (2 / (1 + e^{-p}) - 1) with p = gamma * epoch/total,
    which rises from 0 to just under lambda_max.
    """
    if sched.kind == "static":
        return sched.value
    if total_epochs <= 0:
        return 0.0
    p = sched.gamma * (epoch / total_epochs)
    return sched.lambda_max * (2.0 / (1.0 + math.exp(-p)) - 1.0)


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    lr_main: float
    lr_speaker: float
    batch_size: int
    epochs_a: int
    epochs_b: int
    epochs_c: int
    lam: LambdaSchedule
    seed: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if min(self.epochs_a, self.epochs_b, self.epochs_c) < 0:
            raise ValueError("phase epoch counts must be >= 0")
        if self.epochs_a + self.epochs_b + self.epochs_c == 0:
            raise ValueError("the phase epoch counts sum to 0: nothing would be trained")

    def schedule(self) -> LambdaSchedule:
        return self.lam


@dataclass
class MetricsRow:
    epoch: int
    phase: str
    train_acoustic_loss: float
    train_speaker_loss: float
    dev_ler: float
    dev_speaker_acc: float
    lam: float
    wall_clock_sec: float

    def csv(self) -> str:
        return ",".join(
            [
                str(self.epoch),
                self.phase,
                repr(self.train_acoustic_loss),
                repr(self.train_speaker_loss),
                repr(self.dev_ler),
                repr(self.dev_speaker_acc),
                repr(self.lam),
                repr(self.wall_clock_sec),
            ]
        )


def epoch_plan(cfg: TrainConfig) -> list[tuple[str, float, tuple[str, ...]]]:
    """One (phase, lambda, updated groups) row per epoch, in training order.
    Phase C's lambda follows cfg.lam over its epochs 1..epochs_c."""
    both = ("main", "speaker")
    if cfg.mode == "baseline":  # no speaker term: the labels stay, the rules do not
        return [(phase, 0.0, both) for phase in "A" * cfg.epochs_a + "B" * cfg.epochs_b + "C" * cfg.epochs_c]
    return (
        [("A", 0.0, both)] * cfg.epochs_a
        + [("B", 0.0, ("speaker",))] * cfg.epochs_b
        + [("C", lambda_at(cfg.lam, e, cfg.epochs_c), both) for e in range(1, cfg.epochs_c + 1)]
    )


def _junction_factor(mode: str, lam: float) -> float:
    if mode == "mt":
        return +lam
    if mode in ("al", "semi"):
        return -lam
    return 0.0


def _batch_losses(m: ModelGraph, batch: list[Utterance], mode: str, lam: float, rng: RngStream | None):
    """The batch's mean acoustic loss and mean speaker loss as tape scalars,
    each None when the batch does not compute it (the speaker loss in
    baseline, the acoustic loss on speaker-only batches). The batch runs
    packed, as one train-mode forward pass whose dropout masks come from
    children of rng, so rng may not be None. Inside
    `m.params.frozen(("speaker",))` the encoder, output head and ASG record
    no tape, and the acoustic loss is only logged."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not batch:
        raise ValueError("empty batch")
    speaker_only = all(u.transcript is None for u in batch)
    if not speaker_only and any(u.transcript is None for u in batch):
        raise ValueError("batch mixes transcribed and untranscribed utterances")
    if speaker_only and mode != "semi":
        raise ValueError(f"speaker-only batch is only valid in semi mode, not {mode!r}")
    if rng is None:
        raise ValueError("a training step needs an RngStream for dropout")

    # one derived stream per utterance position: a layer's dropout mask
    # depends only on (stream, position, layer), never on the mode
    rngs = [rng.child(f"u{i}") for i in range(len(batch))]
    packing, em, logits = gm.forward(
        m, [u.features for u in batch], _junction_factor(mode, lam), rngs,
        acoustic=not speaker_only, speaker=mode != "baseline",
    )
    scale = 1.0 / len(batch)
    ac = sp = None
    if em is not None:
        losses = asg.asg_losses(em, m.transitions, [u.transcript for u in batch], packing)
        ac = tz.smul(tz.sum_reduce(losses), scale)
    if logits is not None:
        sp = tz.smul(tz.sum_reduce(gm.speaker_nlls(logits, [u.speaker for u in batch])), scale)
    return ac, sp


def _value(loss: tz.Tensor | None) -> float:
    return float("nan") if loss is None else loss.item()


def compute_gradients(
    m: ModelGraph,
    batch: list[Utterance],
    mode: str,
    lam: float,
    rng: RngStream | None = None,
):
    """Mean-over-batch losses and their gradients, acoustic and speaker
    parts kept separate, each from its own backward pass.

    Returns (acoustic_loss, speaker_loss, grads_acoustic, grads_speaker);
    the loss is nan and the gradient map all-zero for a part that was not
    computed (speaker part in baseline, acoustic part on speaker-only
    batches). `step` applies the gradient of their sum.
    """
    ac, sp = _batch_losses(m, batch, mode, lam, rng)
    zeros = {name: np.zeros_like(t.data) for name, t, _ in m.params.items()}
    grads_ac = zeros if ac is None else tz.backward(ac, m.params)
    grads_sp = zeros if sp is None else tz.backward(sp, m.params)
    return _value(ac), _value(sp), grads_ac, grads_sp


def step(
    m: ModelGraph,
    batch: list[Utterance],
    mode: str,
    lam: float,
    lr_main: float = 1.4,
    lr_speaker: float = 0.1,
    rng: RngStream | None = None,
    update_groups: tuple[str, ...] = ("main", "speaker"),
):
    """One SGD step on a batch; returns (acoustic_loss, speaker_loss).

    A step is one objective, the sum of the losses that reach a parameter
    of `update_groups`, differentiated with one backward pass. The other
    groups are frozen for the step, so they record no tape and take no
    update: phase B, which leaves `main` alone, differentiates only the
    speaker loss.
    """
    with m.params.frozen(update_groups):
        ac, sp = _batch_losses(m, batch, mode, lam, rng)
        losses = [loss for loss in (ac, sp) if loss is not None]
        # when neither loss reaches an updated parameter, either one stands in
        tracked = [loss for loss in losses if loss.grad_tracked] or losses[:1]
        objective = tracked[0] if len(tracked) == 1 else tz.add(*tracked)
        tz.sgd_step(m.params, tz.backward(objective, m.params), lr_main, lr_speaker)
    return _value(ac), _value(sp)


def make_semi_batches(
    train_utts: list[Utterance],
    semi_utts: list[Utterance],
    ratio: int,
    batch_size: int,
    rng: RngStream,
):
    """Deterministic interleave: after every `ratio` transcribed batches,
    one speaker-only batch (semi batches cycle if the pool is small)."""
    if not semi_utts:
        raise ValueError("semi mode requires a non-empty semi set")
    if ratio < 1:
        raise ValueError(f"semi interleave ratio must be >= 1, got {ratio}")
    t_batches = shuffled_batches(train_utts, batch_size, rng)
    s_batches = shuffled_batches(semi_utts, batch_size, rng)
    out = []
    for bi, b in enumerate(t_batches, start=1):
        out.append(b)
        if bi % ratio == 0:
            out.append(s_batches[(bi // ratio - 1) % len(s_batches)])
    return out


@dataclass
class TrainResult:
    rows: list[MetricsRow]
    final_path: Path | None
    best_path: Path | None
    metrics_path: Path | None
    best_dev_ler: float


def _dev_metrics(m: ModelGraph, dev: Dataset, mode: str) -> tuple[float, float]:
    """Dev LER and speaker accuracy; baseline trains no speaker branch, so
    its accuracy is nan and the branch is not run."""
    if mode == "baseline":
        return analysis.evaluate(m, dev, ("ler",))["ler"].value, float("nan")
    scores = analysis.evaluate(m, dev, ("ler", "speaker_acc"))
    return scores["ler"].value, scores["speaker_acc"].value


def train(
    m: ModelGraph,
    train_ds: Dataset,
    dev_ds: Dataset,
    cfg: TrainConfig,
    out_dir=None,
    semi_ds: Dataset | None = None,
) -> TrainResult:
    """Three-phase training; writes metrics.csv, final.ckpt and best.ckpt
    (best dev LER) when out_dir is given."""
    if cfg.mode == "semi":
        if semi_ds is None or not semi_ds.utterances:
            raise ValueError("semi mode requires a semi dataset")
        offset = len(train_ds.speakers)
        semi_utts = [
            Utterance(u.id, offset + u.speaker, None, u.features) for u in semi_ds.utterances
        ]
        need = offset + len(semi_ds.speakers)
        if m.cfg.n_speakers != need:
            raise ValueError(
                f"semi mode needs a model with {need} speaker outputs, got {m.cfg.n_speakers}"
            )
        # transcribed batches per speaker-only batch, matched to the dataset sizes
        ratio = max(1, round(len(train_ds.utterances) / len(semi_utts)))
        cut = functools.partial(make_semi_batches, train_ds.utterances, semi_utts, ratio, cfg.batch_size)
    else:
        cut = functools.partial(shuffled_batches, train_ds.utterances, cfg.batch_size)

    shuffle_rng = RngStream(cfg.seed, "train/shuffle")
    dropout_rng = RngStream(cfg.seed, "train/dropout")
    rows: list[MetricsRow] = []
    best_ler = float("inf")

    for epoch, (phase, lam, update_groups) in enumerate(epoch_plan(cfg), start=1):
        t0 = time.perf_counter()
        ac_losses, sp_losses = [], []
        for bi, batch in enumerate(cut(shuffle_rng.child(f"epoch{epoch}"))):
            try:
                ac, sp = step(
                    m, batch, cfg.mode, lam, cfg.lr_main, cfg.lr_speaker,
                    dropout_rng.child(f"e{epoch}.b{bi}"), update_groups,
                )
            except tz.NumericOverflow as e:
                raise DivergenceError(
                    f"numeric overflow at epoch {epoch} (phase {phase}): {e}"
                ) from e
            # a speaker-only batch has no acoustic loss: ac is nan there
            if not math.isnan(ac):
                ac_losses.append(ac)
            if not math.isnan(sp):
                sp_losses.append(sp)

        ac_mean = float(np.mean(ac_losses)) if ac_losses else float("nan")
        sp_mean = float(np.mean(sp_losses)) if sp_losses else float("nan")
        # transcribed batches run in every mode, so ac_mean is always real
        if not math.isfinite(ac_mean) or ac_mean > DIVERGENCE_CEILING:
            raise DivergenceError(
                f"acoustic loss {ac_mean} out of range at epoch {epoch} (phase {phase})"
            )

        dev_ler, dev_acc = _dev_metrics(m, dev_ds, cfg.mode)
        wall = time.perf_counter() - t0
        rows.append(MetricsRow(epoch, phase, ac_mean, sp_mean, dev_ler, dev_acc, lam, wall))
        if dev_ler < best_ler:
            best_ler = dev_ler
            best_snap = m.params.snapshot()

    final_path = best_path = metrics_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        final_path = out_dir / "final.ckpt"
        gm.save_checkpoint(m, final_path)
        current = m.params.snapshot()
        m.params.restore(best_snap)  # the first dev LER, always finite, sets it
        best_path = out_dir / "best.ckpt"
        gm.save_checkpoint(m, best_path)
        m.params.restore(current)
        metrics_path = out_dir / "metrics.csv"
        write_lines(metrics_path, [METRICS_HEADER] + [r.csv() for r in rows])
    return TrainResult(rows, final_path, best_path, metrics_path, best_ler)
