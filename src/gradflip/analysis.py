"""Representation probing and transcription evaluation.

A probe is a fresh `model.SpeakerBranch` (gated conv, weight norm,
LogSumExp pooling, linear head) trained for a few epochs on frozen
representations dumped from a checkpoint. Its held-out accuracy
measures how much speaker identity the representation exposes. LER and
WER come from Viterbi decoding followed by Levenshtein distance at letter
and separator-delimited word granularity; the speaker accuracy that
training logs on dev comes from the same eval forward pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from gradflip import asg, model as gm, tensor as tz
from gradflip.data import Dataset, shuffled_batches, stratified_parts, write_lines
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


def dump_reps(m: ModelGraph, dataset: Dataset, layer: int) -> RepDump:
    """Extract layer activations for every utterance (layer 0 = raw input)."""
    items = [
        (u.id, rep, u.speaker)
        for chunk in gm.chunks(dataset.utterances, [len(u.features) for u in dataset.utterances])
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


def _probe_logits(probe: SpeakerBranch, reps: list[np.ndarray], rng: RngStream | None):
    """B x S logits of a packed batch; with rng (train mode) every
    utterance's dropout mask comes from it, in utterance order."""
    packing = Packing([len(r) for r in reps])
    streams = None if rng is None else [rng] * len(reps)
    return probe.forward(tz.Tensor(np.concatenate(reps)), streams, packing)


# probe training: SGD rate of every probe parameter, utterances per batch,
# and the share of each speaker's utterances held out for scoring
PROBE_LR = 0.1
PROBE_BATCH = 8
PROBE_EVAL_FRAC = 0.2


def _probe_cut(speaker: int, n: int) -> tuple[int, int]:
    """A speaker's (held-out, training) utterance counts in a probe split."""
    n_eval = max(1, int(PROBE_EVAL_FRAC * n))
    return n_eval, n - n_eval


def train_probe(dump: RepDump, epochs: int, seed: int) -> float:
    """Train a probe on 80% of the dump, return held-out top-1 accuracy.

    The probed checkpoint is never touched; representations enter as
    constants.
    """
    if epochs < 0:
        raise ValueError(f"probe epochs must be >= 0, got {epochs}")
    speakers = [s for _, _, s in dump.items]
    if len(set(speakers)) < 2:
        raise ValueError("probe needs representations from at least 2 speakers")
    rng = RngStream(seed, "probe")
    eval_idx, train_idx = stratified_parts(speakers, rng.child("split"), _probe_cut)
    if not train_idx:
        raise ValueError("probe training split is empty")
    init = rng.child("init")
    params = ParamStore()
    probe = SpeakerBranch(
        params, "probe", dump.items[0][1].shape[1], dump.branch_channels, dump.branch_kernel,
        dump.dropout_rate, dump.pooling, dump.n_speakers, (init.child("conv"), init.child("out")),
    )
    dropout_rng = rng.child("dropout")
    training = [dump.items[i] for i in train_idx]

    for epoch in range(epochs):
        for chunk in shuffled_batches(training, PROBE_BATCH, rng.child(f"shuffle{epoch}")):
            logits = _probe_logits(probe, [rep for _, rep, _ in chunk], dropout_rng)
            nlls = gm.speaker_nlls(logits, [speaker for _, _, speaker in chunk])
            grads = tz.backward(tz.smul(tz.sum_reduce(nlls), 1.0 / len(chunk)), params)
            tz.sgd_step(params, grads, lr_main=PROBE_LR, lr_speaker=PROBE_LR)

    correct = 0
    with tz.no_grad():
        held_out = [dump.items[i] for i in eval_idx]
        for chunk in gm.chunks(held_out, [len(rep) for _, rep, _ in held_out]):
            logits = _probe_logits(probe, [rep for _, rep, _ in chunk], None)
            correct += int(np.sum(np.argmax(logits.data, axis=1) == [speaker for _, _, speaker in chunk]))
    return correct / len(eval_idx)


def edit_distance(a, b) -> int:
    """Minimal insert + delete + substitute count of two sequences of
    hashable tokens: Myers' bit-parallel Levenshtein (J. ACM 46(3), 1999)
    in Hyyrö's 2001 form, one pass over the longer sequence with one bit
    of a Python int per token of the shorter.

    Bit i of vp (vn) says that column entry D[i+1][j] is one more (less)
    than D[i][j]; `score` follows the bottom row, D[m][j]."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict = {}  # token -> bits of its positions in b
    for i, tok in enumerate(b):
        peq[tok] = peq.get(tok, 0) | 1 << i
    full, last = (1 << m) - 1, 1 << (m - 1)
    vp, vn, score = full, 0, m
    for tok in a:
        x = peq.get(tok, 0) | vn
        d0 = (((x & vp) + vp) ^ vp) | x
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0 & full
    return score


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
REFERENCE_UNITS = {"ler": "tokens", "wer": "words"}


def evaluate(m: ModelGraph, dataset: Dataset, metrics=tuple(ERROR_RATES)) -> dict[str, EvalResult]:
    """Scores of the named metrics over the transcribed utterances: error
    rates ("ler", "wer"), each utterance Viterbi-decoded once and scored by
    every one, and "speaker_acc", the share whose speaker logits peak at
    its speaker, from the same forward pass. The acoustic head and Viterbi
    run only for an error rate, the speaker branch only for "speaker_acc".
    Untranscribed utterances are skipped and counted."""
    for name in metrics:
        if name not in (*ERROR_RATES, "speaker_acc"):
            raise ValueError(f"unknown metric {name!r}: evaluate knows ler, wer and speaker_acc")
    rates = [name for name in metrics if name != "speaker_acc"]
    speaker = "speaker_acc" in metrics
    counts = dict.fromkeys(metrics, 0)  # errors of a rate, hits of the accuracy
    totals = dict.fromkeys(metrics, 0)
    transcribed = [u for u in dataset.utterances if u.transcript is not None]
    if not transcribed:
        raise ValueError("dataset has no transcribed utterances to score")
    if not metrics:
        return {}
    for chunk in gm.chunks(transcribed, [len(u.features) for u in transcribed]):
        with tz.no_grad():
            packing, em, logits = gm.forward(
                m, [u.features for u in chunk], acoustic=bool(rates), speaker=speaker
            )
        if speaker:
            hits = np.argmax(logits.data, axis=1) == [u.speaker for u in chunk]
            counts["speaker_acc"] += int(np.sum(hits))
            totals["speaker_acc"] += len(chunk)
        paths = asg.viterbi(em.data, m.transitions.data, packing) if rates else []
        for u, path in zip(chunk, paths):
            hyp = asg.collapse(path)
            for name in rates:
                err, n = ERROR_RATES[name](hyp, u.transcript, dataset.separator)
                counts[name] += err
                totals[name] += n
    for name in rates:
        if totals[name] == 0:
            raise ValueError(f"{name}: the references hold no {REFERENCE_UNITS[name]}")
    scored, skipped = len(transcribed), len(dataset.utterances) - len(transcribed)
    return {name: EvalResult(counts[name] / totals[name], scored, skipped) for name in metrics}


def evaluate_ler(m: ModelGraph, dataset: Dataset) -> EvalResult:
    """Letter error rate: edit distance of collapsed Viterbi paths against
    transcripts, normalized by total reference length."""
    return evaluate(m, dataset, ("ler",))["ler"]


def evaluate_wer(m: ModelGraph, dataset: Dataset) -> EvalResult:
    """Word error rate from Viterbi output split at the separator token.

    No language model is involved; this is the LM-free variant.
    """
    return evaluate(m, dataset, ("wer",))["wer"]


@dataclass
class ProbeCell:
    variant: str
    layer_label: str
    accuracy: float | None  # None: layer absent
    chance: float
    n_eval: int
    seed: int


def figure2_report(
    checkpoints: dict[str, ModelGraph],
    layers: dict[str, int | None],
    dataset: Dataset,
    probe_epochs: int,
    seed: int,
) -> list[ProbeCell]:
    """Probe accuracy grid: one row per (variant, layer) plus a chance row.

    A None layer is recorded as an absent cell, not a failure.
    """
    chance = 1.0 / len(dataset.speakers)
    # every probe holds out the same number of each speaker's utterances
    n_eval = sum(_probe_cut(s, n)[0] for s, n in Counter(u.speaker for u in dataset.utterances).items())
    cells: list[ProbeCell] = []
    for variant, ckpt in checkpoints.items():
        for label, layer in layers.items():
            cell_seed = stream_seed(seed, f"probe/{variant}/{label}")
            if layer is None:
                cells.append(ProbeCell(variant, label, None, chance, 0, cell_seed))
                continue
            acc = train_probe(dump_reps(ckpt, dataset, layer), epochs=probe_epochs, seed=cell_seed)
            cells.append(ProbeCell(variant, label, acc, chance, n_eval, cell_seed))
    cells.append(ProbeCell("chance", "-", chance, chance, 0, seed))
    return cells


def write_probe_csv(cells: list[ProbeCell], path) -> None:
    lines = [PROBE_CSV_HEADER]
    for c in cells:
        acc = "" if c.accuracy is None else repr(float(c.accuracy))
        lines.append(f"{c.variant},{c.layer_label},{acc},{c.chance!r},{c.n_eval},{c.seed}")
    write_lines(path, lines)


def write_eval_csv(rows: list[tuple[str, str, float, int]], path) -> None:
    write_lines(path, [EVAL_CSV_HEADER] + [f"{s},{metric},{value!r},{n}" for s, metric, value, n in rows])
