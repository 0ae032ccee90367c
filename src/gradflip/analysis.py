"""Representation probing and transcription evaluation.

A probe is a fresh `model.SpeakerBranch` (gated conv, weight norm,
LogSumExp pooling, linear head) trained for a few epochs on frozen
representations dumped from a checkpoint. Its held-out accuracy
measures how much speaker identity the representation exposes. LER and
WER come from Viterbi decoding followed by Levenshtein distance at letter
and separator-delimited word granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gradflip import asg, model as gm, tensor as tz
from gradflip.data import Dataset
from gradflip.layers import Packing, PoolingConfig
from gradflip.model import ModelGraph, SpeakerBranch
from gradflip.rng import RngStream, stream_seed
from gradflip.tensor import ParamStore

__all__ = [
    "RepDump", "EvalResult", "dump_reps", "train_probe", "edit_distance",
    "evaluate", "evaluate_ler", "evaluate_wer", "figure2_report", "write_probe_csv",
    "write_eval_csv", "PROBE_CSV_HEADER", "EVAL_CSV_HEADER",
]

PROBE_CSV_HEADER = "variant,layer,accuracy,chance,n_eval,seed"
EVAL_CSV_HEADER = "split,metric,value,n_utts"


def _as_model(checkpoint) -> ModelGraph:
    if isinstance(checkpoint, ModelGraph):
        return checkpoint
    return gm.load_checkpoint(checkpoint)


@dataclass
class RepDump:
    """Frozen eval-mode representations from one checkpoint at one layer."""

    layer: int
    items: list[tuple[str, np.ndarray, int]]  # (utterance id, L x C, speaker)
    n_speakers: int
    branch_channels: int
    branch_kernel: int
    dropout_rate: float
    pooling: PoolingConfig


def dump_reps(checkpoint, dataset: Dataset, layer: int) -> RepDump:
    """Extract layer activations for every utterance (layer 0 = raw input)."""
    m = _as_model(checkpoint)
    items = [
        (u.id, rep, u.speaker)
        for chunk in gm.chunks(dataset.utterances)
        for u, rep in zip(chunk, gm.represent(m, [u.features for u in chunk], layer))
    ]
    return RepDump(
        layer=layer,
        items=items,
        n_speakers=len(dataset.speakers),
        branch_channels=m.cfg.branch_channels,
        branch_kernel=m.cfg.branch_kernel,
        dropout_rate=m.cfg.dropout_rate,
        pooling=m.cfg.pooling,
    )


def _probe_logits(probe: SpeakerBranch, reps: list[np.ndarray], mode: str, rng: RngStream | None):
    """B x S logits of a packed batch; in train mode every utterance's
    dropout mask comes from `rng`, in utterance order."""
    packing = Packing([len(r) for r in reps])
    streams = None if rng is None else [rng] * len(reps)
    return probe.forward(tz.Tensor(np.concatenate(reps)), mode, streams, packing)


# probe training: SGD rate of every probe parameter, utterances per batch,
# and the share of each speaker's utterances held out for scoring
PROBE_LR = 0.1
PROBE_BATCH = 8
PROBE_EVAL_FRAC = 0.2


def _stratified_split(items, rng: RngStream):
    by_speaker: dict[int, list[int]] = {}
    for i, (_, _, speaker) in enumerate(items):
        by_speaker.setdefault(speaker, []).append(i)
    train_idx, eval_idx = [], []
    for speaker in sorted(by_speaker):
        idxs = by_speaker[speaker]
        perm = rng.permutation(len(idxs))
        n_eval = max(1, int(PROBE_EVAL_FRAC * len(idxs)))
        shuffled = [idxs[p] for p in perm]
        eval_idx += shuffled[:n_eval]
        train_idx += shuffled[n_eval:]
    return sorted(train_idx), sorted(eval_idx)


def train_probe(dump: RepDump, epochs: int = 10, seed: int = 0) -> float:
    """Train a probe on 80% of the dump, return held-out top-1 accuracy.

    The probed checkpoint is never touched; representations enter as
    constants.
    """
    if epochs < 0:
        raise ValueError(f"probe epochs must be >= 0, got {epochs}")
    speakers = {s for _, _, s in dump.items}
    if len(speakers) < 2:
        raise ValueError("probe needs representations from at least 2 speakers")
    rng = RngStream(seed, "probe")
    train_idx, eval_idx = _stratified_split(dump.items, rng.child("split"))
    if not train_idx:
        raise ValueError("probe training split is empty")
    init = rng.child("init")
    params = ParamStore()
    probe = SpeakerBranch(
        params, "probe", dump.items[0][1].shape[1], dump.branch_channels, dump.branch_kernel,
        dump.dropout_rate, dump.pooling, dump.n_speakers, (init.child("conv"), init.child("out")),
    )
    dropout_rng = rng.child("dropout")

    for epoch in range(epochs):
        order = rng.child(f"shuffle{epoch}").permutation(len(train_idx))
        for start in range(0, len(order), PROBE_BATCH):
            chunk = [dump.items[train_idx[i]] for i in order[start : start + PROBE_BATCH]]
            logits = _probe_logits(probe, [rep for _, rep, _ in chunk], "train", dropout_rng)
            nlls = gm.speaker_nlls(logits, [speaker for _, _, speaker in chunk])
            grads = tz.backward(tz.smul(tz.sum_reduce(nlls), 1.0 / len(chunk)), params)
            tz.sgd_step(params, grads, lr_main=PROBE_LR, lr_speaker=PROBE_LR)

    correct = 0
    with tz.no_grad():
        for chunk in gm.chunks([dump.items[i] for i in eval_idx]):
            logits = _probe_logits(probe, [rep for _, rep, _ in chunk], "eval", None)
            correct += int(np.sum(np.argmax(logits.data, axis=1) == [speaker for _, _, speaker in chunk]))
    return correct / len(eval_idx)


def edit_distance(a, b) -> int:
    """Minimal insert + delete + substitute count (classic Levenshtein DP)."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@dataclass
class EvalResult:
    value: float
    n_scored: int
    n_skipped: int


def _words(tokens, separator: int) -> list[tuple[int, ...]]:
    words, cur = [], []
    for t in tokens:
        if t == separator:
            if cur:
                words.append(tuple(cur))
            cur = []
        else:
            cur.append(t)
    if cur:
        words.append(tuple(cur))
    return words


def _letter_errors(hyp, ref, separator: int) -> tuple[int, int]:
    return edit_distance(hyp, ref), len(ref)


def _word_errors(hyp, ref, separator: int) -> tuple[int, int]:
    ref_words = _words(ref, separator)
    return edit_distance(_words(hyp, separator), ref_words), len(ref_words)


ERROR_RATES = {"ler": _letter_errors, "wer": _word_errors}


def evaluate(checkpoint, dataset: Dataset, metrics=tuple(ERROR_RATES)) -> dict[str, EvalResult]:
    """Error rates of the named metrics ("ler", "wer"), each utterance
    Viterbi-decoded once and scored by every metric. Untranscribed
    utterances are skipped and counted."""
    m = _as_model(checkpoint)
    errors = dict.fromkeys(metrics, 0)
    totals = dict.fromkeys(metrics, 0)
    transcribed = [u for u in dataset.utterances if u.transcript is not None]
    for chunk in gm.chunks(transcribed):
        with tz.no_grad():
            packing, em, _ = gm.forward(m, [u.features for u in chunk], speaker=False)
        for u, path in zip(chunk, asg.viterbi(em.data, m.transitions.data, packing)):
            hyp = asg.collapse(path)
            for name in metrics:
                err, n = ERROR_RATES[name](hyp, u.transcript, dataset.separator)
                errors[name] += err
                totals[name] += n
    scored, skipped = len(transcribed), len(dataset.utterances) - len(transcribed)
    if any(n == 0 for n in totals.values()):
        raise ValueError("dataset has no transcribed utterances to score")
    return {name: EvalResult(errors[name] / totals[name], scored, skipped) for name in metrics}


def evaluate_ler(checkpoint, dataset: Dataset) -> EvalResult:
    """Letter error rate: edit distance of collapsed Viterbi paths against
    transcripts, normalized by total reference length."""
    return evaluate(checkpoint, dataset, ("ler",))["ler"]


def evaluate_wer(checkpoint, dataset: Dataset) -> EvalResult:
    """Word error rate from Viterbi output split at the separator token.

    No language model is involved; this is the LM-free variant.
    """
    return evaluate(checkpoint, dataset, ("wer",))["wer"]


@dataclass
class ProbeCell:
    variant: str
    layer_label: str
    accuracy: float | None  # None: checkpoint or layer absent
    chance: float
    n_eval: int
    seed: int


def figure2_report(
    checkpoints: dict[str, object | None],
    layers: dict[str, int | None],
    dataset: Dataset,
    probe_epochs: int = 10,
    seed: int = 0,
) -> list[ProbeCell]:
    """Probe accuracy grid: one row per (variant, layer) plus a chance row.

    Missing checkpoints and None layers are recorded as absent cells, not
    failures.
    """
    chance = 1.0 / len(dataset.speakers)
    cells: list[ProbeCell] = []
    for variant, ckpt in checkpoints.items():
        for label, layer in layers.items():
            cell_seed = stream_seed(seed, f"probe/{variant}/{label}")
            if ckpt is None or layer is None:
                cells.append(ProbeCell(variant, label, None, chance, 0, cell_seed))
                continue
            dump = dump_reps(ckpt, dataset, layer)
            n_eval = len(_stratified_split(dump.items, RngStream(cell_seed, "probe/split"))[1])
            acc = train_probe(dump, epochs=probe_epochs, seed=cell_seed)
            cells.append(ProbeCell(variant, label, acc, chance, n_eval, cell_seed))
    cells.append(ProbeCell("chance", "-", chance, chance, 0, seed))
    return cells


def write_probe_csv(cells: list[ProbeCell], path) -> None:
    lines = [PROBE_CSV_HEADER]
    for c in cells:
        acc = "" if c.accuracy is None else repr(float(c.accuracy))
        lines.append(f"{c.variant},{c.layer_label},{acc},{c.chance!r},{c.n_eval},{c.seed}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_eval_csv(rows: list[tuple[str, str, float, int]], path) -> None:
    lines = [EVAL_CSV_HEADER]
    for split_name, metric, value, n in rows:
        lines.append(f"{split_name},{metric},{value!r},{n}")
    Path(path).write_text("\n".join(lines) + "\n")
