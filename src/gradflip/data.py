"""Synthetic speaker-conditioned dataset.

Each utterance is a token sequence rendered to feature frames. A token's
frames are its fixed prototype vector, distorted by the speaker's affine
channel profile (per-dimension gain and offset) plus white noise:

    frame = prototype(token) * gain(speaker) + offset(speaker) + N(0, sigma^2 I)

Prototypes are orthonormal random directions shared across speakers.
When the feature dimension exceeds the token count, speaker offsets are
drawn mostly in the orthogonal complement of the prototype span (plus a
small in-span component): speaker identity is then linearly recoverable
at the input, while a transcription-focused encoder can in principle
discard it by projection without losing token information. That is the
structure that makes input-layer probes start high and lets adversarial
training push deeper probes below the baseline. Speakers past
`n_speakers` are generated the same way but their transcripts are
dropped (the semi-supervised pool).
"""

from __future__ import annotations

import json
import os
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gradflip.asg import validate_target
from gradflip.rng import RngStream

__all__ = [
    "GenConfig", "Utterance", "Dataset",
    "generate", "stratified_parts", "shuffled_batches", "split", "partition_semi",
    "write_lines", "save_dataset", "load_dataset", "datasets_equal", "check_keys",
]

FILE_VERSION = 1
HEADER_KEYS = {"format_version": int, "dim": int, "vocab": list, "speakers": list}
RECORD_KEYS = {"id": str, "speaker": int, "transcript": (list, type(None)), "frames": list}
_JSON_NAMES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


@dataclass(frozen=True)
class GenConfig:
    n_speakers: int
    utterances_per_speaker: int
    alphabet_size: int  # letters, excluding the separator
    dim: int
    frames_per_token: tuple[int, int]
    noise_sigma: float
    words_per_utterance: tuple[int, int]
    letters_per_word: tuple[int, int]
    semi_speakers: int
    offset_scale: float
    gain_range: tuple[float, float]
    seed: int

    def __post_init__(self):
        for name in ("n_speakers", "utterances_per_speaker", "alphabet_size", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.semi_speakers < 0:
            raise ValueError("semi_speakers must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        # a zero scale gives every speaker the same (zero) offset
        if self.offset_scale < 0 or (self.offset_scale == 0 and self.n_speakers + self.semi_speakers > 1):
            raise ValueError("offset_scale must be positive when there are two or more speakers")
        for name in ("frames_per_token", "words_per_utterance", "letters_per_word"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must be a range with 1 <= lo <= hi")
        if self.gain_range[0] <= 0:
            raise ValueError("gains must stay positive")
        if self.alphabet_size == 1 and self.letters_per_word[1] > 1:
            raise ValueError("a one-letter alphabet cannot form duplicate-free words")


@dataclass(eq=False)
class Utterance:
    id: str
    speaker: int
    transcript: tuple[int, ...] | None
    features: np.ndarray  # (T, dim)


@dataclass(eq=False)
class Dataset:
    utterances: list[Utterance]
    vocab: list[str]  # letters then separator, index == token id
    speakers: list[str]

    @property
    def separator(self) -> int:
        return len(self.vocab) - 1

    @property
    def dim(self) -> int:
        return self.utterances[0].features.shape[1]


def _letter_names(alphabet_size: int) -> list[str]:
    if alphabet_size <= 26:
        return list(string.ascii_lowercase[:alphabet_size])
    return [f"t{i:02d}" for i in range(alphabet_size)]


def _draw_word(rng: RngStream, alphabet: int, lo: int, hi: int) -> list[int]:
    n = int(rng.integers(lo, hi))
    word = [int(rng.integers(0, alphabet - 1))]
    while len(word) < n:
        # uniform over the alphabet minus the previous letter, no rejection
        nxt = int(rng.integers(0, alphabet - 2))
        word.append(nxt if nxt < word[-1] else nxt + 1)
    return word


# share of the offset magnitude that lands inside the prototype span when
# a complement exists; the in-span part cannot be deleted without touching
# token information, so probes keep a residual signal at any depth
IN_SPAN_FRACTION = 0.25


def _draw_bases(cfg: GenConfig, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    # (n_tokens, dim) orthonormal prototype rows and the (dim, dim - n_tokens)
    # complement, as views of one QR draw; the first draw of the "gen" stream
    n_tokens = cfg.alphabet_size + 1
    q, _ = np.linalg.qr(rng.normal(size=(cfg.dim, cfg.dim)))
    return q[:, :n_tokens].T, q[:, n_tokens:]


def generate(cfg: GenConfig) -> Dataset:
    """Deterministically generate the dataset (main plus semi speakers)."""
    n_tokens = cfg.alphabet_size + 1  # letters + separator
    if n_tokens > cfg.dim:
        raise ValueError(
            f"alphabet of {cfg.alphabet_size} letters (+separator) is not representable "
            f"in {cfg.dim} dimensions; need dim >= {n_tokens}"
        )
    rng = RngStream(cfg.seed, "gen")
    prototypes, complement = _draw_bases(cfg, rng)
    comp_dim = cfg.dim - n_tokens
    in_span_scale = cfg.offset_scale * (IN_SPAN_FRACTION if comp_dim else 1.0)

    total_speakers = cfg.n_speakers + cfg.semi_speakers
    offsets = np.zeros((total_speakers, cfg.dim))
    gains = np.zeros((total_speakers, cfg.dim))
    for s in range(total_speakers):
        offsets[s] = prototypes.T @ rng.normal(0.0, in_span_scale, n_tokens)
        if comp_dim:
            offsets[s] += complement @ rng.normal(0.0, cfg.offset_scale, comp_dim)
        gains[s] = rng.uniform(cfg.gain_range[0], cfg.gain_range[1], cfg.dim)

    if total_speakers > 1 and cfg.noise_sigma > 0:
        dists = [
            np.linalg.norm(offsets[i] - offsets[j])
            for i in range(total_speakers)
            for j in range(i + 1, total_speakers)
        ]
        mean_dist = float(np.mean(dists))
        if mean_dist <= 4.0 * cfg.noise_sigma:
            raise ValueError(
                f"speakers are not separable: mean offset distance {mean_dist:.3f} "
                f"<= 4 * noise_sigma {4 * cfg.noise_sigma:.3f}"
            )

    utterances: list[Utterance] = []
    for s in range(total_speakers):
        for u in range(cfg.utterances_per_speaker):
            n_words = int(rng.integers(*cfg.words_per_utterance))
            tokens: list[int] = []
            for w in range(n_words):
                if w:
                    tokens.append(cfg.alphabet_size)  # separator
                tokens.extend(_draw_word(rng, cfg.alphabet_size, *cfg.letters_per_word))
            frames = []
            for tok in tokens:
                reps = int(rng.integers(*cfg.frames_per_token))
                base = prototypes[tok] * gains[s] + offsets[s]
                if cfg.noise_sigma > 0:  # one (reps, dim) draw: the normals of reps (dim,) draws
                    frames.append(base + rng.normal(0.0, cfg.noise_sigma, (reps, cfg.dim)))
                else:  # + 0.0 turns a -0.0 of base into 0.0
                    frames.append(np.broadcast_to(base + 0.0, (reps, cfg.dim)))
            utterances.append(
                Utterance(
                    id=f"spk{s:03d}-u{u:04d}",
                    speaker=s,
                    transcript=tuple(tokens) if s < cfg.n_speakers else None,
                    features=np.concatenate(frames),
                )
            )
    vocab = _letter_names(cfg.alphabet_size) + ["|"]
    speakers = [f"spk{s:03d}" for s in range(total_speakers)]
    return Dataset(utterances, vocab, speakers)


def stratified_parts(speakers, rng: RngStream, sizes) -> list[list[int]]:
    """Speaker-stratified disjoint parts of range(len(speakers)). In sorted
    speaker order, a speaker's n indices are shuffled by one
    rng.permutation and cut into consecutive runs of sizes(speaker, n)
    items, which sum to n; run k joins part k. Each part comes back sorted.
    """
    parts: list[list[int]] = []
    for speaker in sorted(set(speakers)):
        idxs = [i for i, s in enumerate(speakers) if s == speaker]
        perm = rng.permutation(len(idxs))
        cuts = sizes(speaker, len(idxs))
        parts += [[] for _ in range(len(cuts) - len(parts))]
        for part, run in zip(parts, np.split(perm, np.cumsum(cuts)[:-1])):
            part += [idxs[p] for p in run]
    return [sorted(part) for part in parts]


def shuffled_batches(items: list, batch_size: int, rng: RngStream) -> list[list]:
    """items in one rng.permutation's order, cut into consecutive runs of batch_size."""
    order = [items[i] for i in rng.permutation(len(items))]
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def split(ds: Dataset, train_frac: float, dev_frac: float, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Speaker-stratified disjoint train/dev/test split."""
    if not (0 < train_frac < 1 and 0 < dev_frac < 1 and train_frac + dev_frac < 1):
        raise ValueError("fractions must be in (0,1) and sum below 1")

    def sizes(speaker: int, n: int) -> tuple[int, int, int]:
        n_train, n_dev = int(train_frac * n), int(dev_frac * n)
        if min(n_train, n_dev, n - n_train - n_dev) < 1:
            raise ValueError(f"split leaves speaker {speaker} with an empty part")
        return n_train, n_dev, n - n_train - n_dev

    parts = stratified_parts([u.speaker for u in ds.utterances], RngStream(seed, "split"), sizes)
    return tuple(Dataset([ds.utterances[i] for i in p], list(ds.vocab), list(ds.speakers)) for p in parts)


def partition_semi(ds: Dataset) -> tuple[Dataset, Dataset | None]:
    """Separate transcribed utterances from the untranscribed (semi) pool.

    Each part gets its own dense label space and speaker table; the trainer
    re-unions them by offsetting semi labels.
    """

    def relabeled(utts: list[Utterance]) -> Dataset:
        speakers = sorted({u.speaker for u in utts})
        label = {s: i for i, s in enumerate(speakers)}
        return Dataset(
            [Utterance(u.id, label[u.speaker], u.transcript, u.features) for u in utts],
            list(ds.vocab),
            [ds.speakers[s] for s in speakers],
        )

    main = [u for u in ds.utterances if u.transcript is not None]
    semi = [u for u in ds.utterances if u.transcript is None]
    return relabeled(main), relabeled(semi) if semi else None


# ---------------------------------------------------------------------------
# file format: one JSON header line, then one JSON utterance per line


def write_lines(path, lines) -> None:
    """Write each of `lines` and a newline to a temporary file beside `path`,
    one write per line so that a generator streams, then rename it over
    `path`: a failed write leaves any previous file there as it was. Every
    file the package writes goes through here."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(ds: Dataset, path) -> None:
    """Write ds as one JSON header line, then one JSON utterance per line,
    each encoded as it is written, so memory does not grow with the file."""
    header = {"format_version": FILE_VERSION, "dim": ds.dim, "vocab": ds.vocab, "speakers": ds.speakers}

    def records():
        yield json.dumps(header, sort_keys=True)
        for u in ds.utterances:
            rec = {
                "id": u.id,
                "speaker": u.speaker,
                "transcript": list(u.transcript) if u.transcript is not None else None,
                "frames": u.features.tolist(),  # shortest round-trip repr
            }
            yield json.dumps(rec, sort_keys=True)

    write_lines(path, records())


def load_dataset(path) -> Dataset:
    """Read a file written by save_dataset, one line at a time.

    Line numbers in errors count the lines str.splitlines() finds, which
    also splits at \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029; save_dataset
    writes none of them.
    """

    def fail(lineno, msg):
        raise ValueError(f"{path}: line {lineno}: {msg}")

    with open(path) as fh:
        lines = (piece for line in fh for piece in line.splitlines())
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty dataset file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as e:
            fail(1, f"bad header: {e}")
        check_keys(f"{path}: line 1: header", header, HEADER_KEYS)
        if header["format_version"] != FILE_VERSION:
            fail(1, f"unsupported format version {header['format_version']}")
        dim, vocab, speakers = header["dim"], header["vocab"], header["speakers"]
        utts = []
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, f"bad record: {e}")
            check_keys(f"{path}: line {lineno}: record", rec, RECORD_KEYS)
            try:
                features = np.asarray(rec["frames"], dtype=np.float64)
            except (TypeError, ValueError):  # ragged rows or non-numbers
                features = None
            if features is None or features.ndim != 2 or not len(features) or features.shape[1] != dim:
                fail(lineno, f"frames must be a non-empty list of rows of dim={dim} numbers")
            if not np.all(np.isfinite(features)):  # JSON NaN, Infinity or an overflowing literal
                fail(lineno, "key 'frames' must hold finite numbers")
            speaker = rec["speaker"]
            if not (0 <= speaker < len(speakers)):
                fail(lineno, f"speaker label {speaker} outside table of {len(speakers)}")
            transcript = rec["transcript"]
            if transcript is not None:
                if any(type(t) is not int for t in transcript):
                    fail(lineno, "transcript tokens must be integers")
                try:
                    transcript = validate_target(transcript, len(vocab), len(features))
                except ValueError as e:
                    fail(lineno, f"key 'transcript': {e}")
            utts.append(Utterance(rec["id"], speaker, transcript, features))
    if not utts:
        raise ValueError(f"{path}: no utterance records after the header")
    return Dataset(utts, list(vocab), list(speakers))


def check_keys(where: str, obj, keys: dict) -> None:
    """Reject a decoded JSON value unless it is an object with exactly the
    keys of `keys`, each holding a value of its type (or tuple of types).

    Types match exactly, so a boolean is not taken for an integer."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: not a JSON object")
    for key, types in keys.items():
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
        types = types if isinstance(types, tuple) else (types,)
        if type(obj[key]) not in types:
            want = " or ".join(_JSON_NAMES[t] for t in types)
            raise ValueError(f"{where}: key {key!r} must be {want}, not {_JSON_NAMES[type(obj[key])]}")
    for key in obj:
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r}")


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    if a.vocab != b.vocab or a.speakers != b.speakers or len(a.utterances) != len(b.utterances):
        return False
    for ua, ub in zip(a.utterances, b.utterances):
        if ua.id != ub.id or ua.speaker != ub.speaker or ua.transcript != ub.transcript:
            return False
        if not np.array_equal(ua.features, ub.features):
            return False
    return True
