import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gradflip import analysis as an, config as cf, data as gd, trainer as tr
from gradflip.data import Dataset, GenConfig, Utterance
from gradflip.rng import RngStream


def small_cfg(**kw):
    base = dict(
        n_speakers=4,
        utterances_per_speaker=8,
        alphabet_size=4,
        dim=6,
        frames_per_token=(2, 4),
        noise_sigma=0.2,
        words_per_utterance=(2, 3),
        letters_per_word=(2, 4),
        semi_speakers=0,
        offset_scale=0.8,
        gain_range=(0.7, 1.3),
        seed=77,
    )
    base.update(kw)
    return GenConfig(**base)


# sha256 of the files generate() + save_dataset() wrote when these digests
# were recorded; a change to the draws or the float format moves them
SMALL_SHA256 = "e5f9f53d6caa7c986c2ca2e9472fc493532be8ba9ec5a695dcc201134958d399"
TOY_SHA256 = {  # the toy preset at seed 1234, split as `gradflip gen-data` splits it
    "train": "a6ccbdd79c74ffdb61bce4258d97a9f7db391eebfb27652b7d7df5487833bf3f",
    "dev": "0a74b14ab285b71476f156f4708ad631c565efdf71bb3c7008696c04b170d671",
    "test": "3c97a9a2e0f0b561f5374180fe12b252e319b59539526ef3573bcb9365becb95",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    gd.save_dataset(gd.generate(small_cfg()), a)
    gd.save_dataset(gd.generate(small_cfg()), b)
    assert a.read_bytes() == b.read_bytes()
    assert sha256(a) == SMALL_SHA256
    cfg = cf.resolve(seed_flag=1234)
    main, _ = gd.partition_semi(gd.generate(cf.gen_config(cfg)))
    parts = gd.split(main, cfg["gen.train_frac"], cfg["gen.dev_frac"], cfg["seed"])
    for part, ds in zip(("train", "dev", "test"), parts):
        gd.save_dataset(ds, tmp_path / part)
        assert sha256(tmp_path / part) == TOY_SHA256[part], part


def test_degenerate_generator_frames_equal_prototypes():
    cfg = small_cfg(n_speakers=1, noise_sigma=0.0, offset_scale=0.0, gain_range=(1.0, 1.0))
    ds = gd.generate(cfg)
    prototypes, _ = gd._draw_bases(cfg, RngStream(cfg.seed, "gen"))
    for u in ds.utterances:
        t = 0
        for tok in u.transcript:
            while t < len(u.features) and np.array_equal(u.features[t], prototypes[tok]):
                t += 1
        assert t == len(u.features), "every frame must equal its token prototype"


def test_offset_scale_must_separate_two_or_more_speakers():
    # a zero scale gives every speaker the zero offset; generate() used to
    # redraw duplicate offsets forever
    for kw in (
        dict(offset_scale=0.0), dict(offset_scale=-0.5), dict(n_speakers=1, semi_speakers=1, offset_scale=0.0),
    ):
        with pytest.raises(ValueError, match="offset_scale must be positive"):
            small_cfg(**kw)


def test_transcripts_legal_and_short_enough():
    ds = gd.generate(small_cfg(utterances_per_speaker=20))
    for u in ds.utterances:
        assert u.transcript is not None
        assert 1 <= len(u.transcript) <= u.features.shape[0]
        assert all(0 <= t < len(ds.vocab) for t in u.transcript)
        assert all(a != b for a, b in zip(u.transcript, u.transcript[1:]))


def test_offsets_concentrate_in_prototype_complement():
    cfg = small_cfg(n_speakers=6, dim=8)
    ds = gd.generate(cfg)
    prototypes, complement = gd._draw_bases(cfg, RngStream(cfg.seed, "gen"))
    assert complement.shape == (8, 3)
    # recover per-speaker offsets from a noise-free, unit-gain regeneration
    quiet = gd.generate(small_cfg(n_speakers=6, dim=8, noise_sigma=0.0, gain_range=(1.0, 1.0)))
    for u in quiet.utterances[:6]:
        frame = u.features[0]
        tok = u.transcript[0]
        # frame = proto + offset; project the non-token residue
        resid = frame - prototypes[tok] * (frame @ prototypes[tok])
        comp_energy = float(np.sum((complement.T @ resid) ** 2))
        span_energy = float(np.sum((prototypes @ resid) ** 2))
        assert comp_energy > span_energy


def test_speaker_labels_dense_and_tables_sized():
    cfg = small_cfg(semi_speakers=2)
    ds = gd.generate(cfg)
    labels = {u.speaker for u in ds.utterances}
    assert labels == set(range(6))
    assert len(ds.speakers) == 6
    assert len(ds.vocab) == cfg.alphabet_size + 1


def test_semi_speakers_carry_no_transcript():
    ds = gd.generate(small_cfg(semi_speakers=2))
    for u in ds.utterances:
        assert (u.transcript is None) == (u.speaker >= 4)


def test_separability_guard_trips_on_noisy_config():
    with pytest.raises(ValueError, match="not separable"):
        gd.generate(small_cfg(noise_sigma=2.0, offset_scale=0.05))


def test_alphabet_too_large_for_dim():
    with pytest.raises(ValueError, match="not representable"):
        gd.generate(small_cfg(alphabet_size=8, dim=6))


# generate() before it drew each token's noise in one call: one (dim,)
# draw per frame; kept as the oracle of its draws and their order
def generate_frame_loop_oracle(cfg):
    n_tokens = cfg.alphabet_size + 1
    rng = RngStream(cfg.seed, "gen")
    prototypes, complement = gd._draw_bases(cfg, rng)
    comp_dim = cfg.dim - n_tokens
    in_span_scale = cfg.offset_scale * (gd.IN_SPAN_FRACTION if comp_dim else 1.0)
    total_speakers = cfg.n_speakers + cfg.semi_speakers
    offsets = np.zeros((total_speakers, cfg.dim))
    gains = np.zeros((total_speakers, cfg.dim))
    for s in range(total_speakers):
        offsets[s] = prototypes.T @ rng.normal(0.0, in_span_scale, n_tokens)
        if comp_dim:
            offsets[s] += complement @ rng.normal(0.0, cfg.offset_scale, comp_dim)
        gains[s] = rng.uniform(cfg.gain_range[0], cfg.gain_range[1], cfg.dim)
    utterances = []
    for s in range(total_speakers):
        for u in range(cfg.utterances_per_speaker):
            n_words = int(rng.integers(*cfg.words_per_utterance))
            tokens = []
            for w in range(n_words):
                if w:
                    tokens.append(cfg.alphabet_size)
                tokens.extend(gd._draw_word(rng, cfg.alphabet_size, *cfg.letters_per_word))
            frames = []
            for tok in tokens:
                reps = int(rng.integers(*cfg.frames_per_token))
                base = prototypes[tok] * gains[s] + offsets[s]
                for _ in range(reps):
                    noise = rng.normal(0.0, cfg.noise_sigma, cfg.dim) if cfg.noise_sigma > 0 else 0.0
                    frames.append(base + noise)
            transcript = tuple(tokens) if s < cfg.n_speakers else None
            utterances.append(Utterance(f"spk{s:03d}-u{u:04d}", s, transcript, np.asarray(frames, dtype=np.float64)))
    speakers = [f"spk{s:03d}" for s in range(total_speakers)]
    return Dataset(utterances, gd._letter_names(cfg.alphabet_size) + ["|"], speakers)


@st.composite
def gen_configs(draw):
    alphabet = draw(st.integers(1, 5))
    lo = lambda top: draw(st.integers(1, top))
    fpt, wpu = lo(3), lo(3)
    lpw = lo(1 if alphabet == 1 else 3)
    return GenConfig(
        n_speakers=draw(st.integers(1, 3)),
        utterances_per_speaker=draw(st.integers(1, 3)),
        alphabet_size=alphabet,
        dim=alphabet + 1 + draw(st.integers(0, 3)),
        frames_per_token=(fpt, fpt + draw(st.integers(0, 3))),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.3])),
        words_per_utterance=(wpu, wpu + draw(st.integers(0, 2))),
        letters_per_word=(lpw, lpw + (0 if alphabet == 1 else draw(st.integers(0, 2)))),
        semi_speakers=draw(st.integers(0, 2)),
        offset_scale=draw(st.sampled_from([0.5, 1.0, 3.0])),
        gain_range=draw(st.sampled_from([(1.0, 1.0), (0.7, 1.3)])),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=gen_configs())
def test_generate_draws_the_per_frame_normals_in_order(cfg):
    try:
        ds = gd.generate(cfg)
    except ValueError as e:  # the separability guard; the oracle has none
        assume("not separable" not in str(e))
        raise
    want = generate_frame_loop_oracle(cfg)
    assert gd.datasets_equal(ds, want)
    for got, old in zip(ds.utterances, want.utterances):  # bytes tell 0.0 from -0.0
        assert got.features.dtype == old.features.dtype and got.features.tobytes() == old.features.tobytes()


# --- split ---


def test_split_fractions_per_speaker():
    ds = gd.generate(small_cfg(utterances_per_speaker=100))
    train, dev, test = gd.split(ds, 0.8, 0.1, seed=5)
    for part, want in ((train, 80), (dev, 10), (test, 10)):
        counts = {}
        for u in part.utterances:
            counts[u.speaker] = counts.get(u.speaker, 0) + 1
        assert all(c == want for c in counts.values())


def test_split_union_is_dataset_no_duplicates():
    ds = gd.generate(small_cfg())
    train, dev, test = gd.split(ds, 0.5, 0.25, seed=6)
    ids = [u.id for part in (train, dev, test) for u in part.utterances]
    assert sorted(ids) == sorted(u.id for u in ds.utterances)
    assert len(set(ids)) == len(ids)


def test_split_deterministic():
    ds = gd.generate(small_cfg())
    a = gd.split(ds, 0.5, 0.25, seed=7)
    b = gd.split(ds, 0.5, 0.25, seed=7)
    for pa, pb in zip(a, b):
        assert gd.datasets_equal(pa, pb)


def test_split_empty_part_errors():
    ds = gd.generate(small_cfg(utterances_per_speaker=3))
    with pytest.raises(ValueError, match="empty"):
        gd.split(ds, 0.9, 0.05, seed=8)


# --- the speaker-stratified cutter ---
# The two loops below are the cuts that data.split and the probe split each
# made on their own before both moved onto data.stratified_parts; they stay
# here as oracles of its draws and their order.


def split_loop_oracle(speakers, train_frac, dev_frac, rng):
    picks = [[], [], []]
    groups = {}
    for i, speaker in enumerate(speakers):
        groups.setdefault(speaker, []).append(i)
    for speaker in sorted(groups):
        idxs = groups[speaker]
        perm = rng.permutation(len(idxs))
        n_train = int(train_frac * len(idxs))
        n_dev = int(dev_frac * len(idxs))
        n_test = len(idxs) - n_train - n_dev
        if min(n_train, n_dev, n_test) < 1:
            raise ValueError(f"split leaves speaker {speaker} with an empty part")
        shuffled = [idxs[p] for p in perm]
        picks[0] += shuffled[:n_train]
        picks[1] += shuffled[n_train : n_train + n_dev]
        picks[2] += shuffled[n_train + n_dev :]
    return [sorted(part) for part in picks]


def probe_split_oracle(speakers, rng):
    by_speaker = {}
    for i, speaker in enumerate(speakers):
        by_speaker.setdefault(speaker, []).append(i)
    train_idx, eval_idx = [], []
    for speaker in sorted(by_speaker):
        idxs = by_speaker[speaker]
        perm = rng.permutation(len(idxs))
        n_eval = max(1, int(an.PROBE_EVAL_FRAC * len(idxs)))
        shuffled = [idxs[p] for p in perm]
        eval_idx += shuffled[:n_eval]
        train_idx += shuffled[n_eval:]
    return sorted(train_idx), sorted(eval_idx)


def outcome(f):
    """f's value, or the message of the ValueError it raised."""
    try:
        return f()
    except ValueError as e:
        return str(e)


@st.composite
def speaker_lists(draw):
    """Speaker labels of 1-6 groups of 1-30 items, in a shuffled order."""
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    labels = draw(st.lists(st.integers(0, 9), min_size=len(sizes), max_size=len(sizes), unique=True))
    return draw(st.permutations([s for s, n in zip(labels, sizes) for _ in range(n)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    speakers=speaker_lists(),
    train_frac=st.floats(0.2, 0.8),
    dev_frac=st.floats(0.05, 0.4),
    seed=st.integers(0, 2**32),
)
def test_stratified_parts_reproduce_both_former_cuts(speakers, train_frac, dev_frac, seed):
    assume(train_frac + dev_frac < 1)
    ds = Dataset(
        [Utterance(f"u{i}", s, None, np.zeros((1, 1))) for i, s in enumerate(speakers)],
        ["a", "|"], [f"s{s}" for s in range(10)],
    )
    index = {u.id: i for i, u in enumerate(ds.utterances)}
    parts = lambda: [[index[u.id] for u in part.utterances] for part in gd.split(ds, train_frac, dev_frac, seed)]
    got = outcome(parts)
    want = outcome(lambda: split_loop_oracle(speakers, train_frac, dev_frac, RngStream(seed, "split")))
    assert got == want
    held_out, training = gd.stratified_parts(speakers, RngStream(seed, "probe"), an._probe_cut)
    assert (training, held_out) == probe_split_oracle(speakers, RngStream(seed, "probe"))


# --- the batch cutter ---
# The three loops below shuffled and cut batches on their own before the
# trainer, trainer.make_semi_batches and analysis.train_probe moved onto
# data.shuffled_batches; they stay here as oracles of its draws and order.


def train_epoch_oracle(utts, batch_size, rng):
    order = rng.permutation(len(utts))
    utts = [utts[i] for i in order]
    return [utts[i : i + batch_size] for i in range(0, len(utts), batch_size)]


def semi_batches_oracle(train_utts, semi_utts, ratio, batch_size, rng):
    t_order = [train_utts[i] for i in rng.permutation(len(train_utts))]
    s_order = [semi_utts[i] for i in rng.permutation(len(semi_utts))]
    t_batches = [t_order[i : i + batch_size] for i in range(0, len(t_order), batch_size)]
    s_batches = [s_order[i : i + batch_size] for i in range(0, len(s_order), batch_size)]
    out = []
    for bi, b in enumerate(t_batches, start=1):
        out.append(b)
        if bi % ratio == 0:
            out.append(s_batches[(bi // ratio - 1) % len(s_batches)])
    return out


def probe_epoch_oracle(items, train_idx, rng):
    order = rng.permutation(len(train_idx))
    return [
        [items[train_idx[i]] for i in order[start : start + an.PROBE_BATCH]]
        for start in range(0, len(order), an.PROBE_BATCH)
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    items=st.lists(st.integers(), max_size=40),
    semi=st.lists(st.integers(), min_size=1, max_size=20),
    held=st.lists(st.booleans(), max_size=40),
    batch_size=st.integers(1, 9),
    ratio=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
def test_shuffled_batches_reproduce_the_three_former_cuts(items, semi, held, batch_size, ratio, seed):
    rng = lambda: RngStream(seed, "train/shuffle/epoch3")
    assert gd.shuffled_batches(items, batch_size, rng()) == train_epoch_oracle(items, batch_size, rng())
    # one stream, the train pool drawn before the semi pool
    got = tr.make_semi_batches(items, semi, ratio, batch_size, rng())
    assert got == semi_batches_oracle(items, semi, ratio, batch_size, rng())
    train_idx = [i for i in range(len(items)) if not (i < len(held) and held[i])]
    probe = RngStream(seed, "probe/shuffle0")
    got = gd.shuffled_batches([items[i] for i in train_idx], an.PROBE_BATCH, probe)
    assert got == probe_epoch_oracle(items, train_idx, RngStream(seed, "probe/shuffle0"))


def test_partition_semi_relabels_both_parts():
    ds = gd.generate(small_cfg(semi_speakers=3))
    main, semi = gd.partition_semi(ds)
    assert {u.speaker for u in main.utterances} == set(range(4))
    assert {u.speaker for u in semi.utterances} == set(range(3))
    assert semi.speakers == ["spk004", "spk005", "spk006"]
    assert all(u.transcript is None for u in semi.utterances)


# --- file io ---


def test_roundtrip_exact(tmp_path):
    ds = gd.generate(small_cfg(semi_speakers=1))
    path = tmp_path / "ds.txt"
    gd.save_dataset(ds, path)
    assert gd.datasets_equal(gd.load_dataset(path), ds)


def test_roundtrip_null_transcript(tmp_path):
    u = Utterance("x-0", 0, None, np.array([[0.1, 0.2]]))
    ds = Dataset([u], ["a", "|"], ["spk000"])
    path = tmp_path / "ds.txt"
    gd.save_dataset(ds, path)
    loaded = gd.load_dataset(path)
    assert loaded.utterances[0].transcript is None


def test_tampered_arity_names_line(tmp_path):
    ds = gd.generate(small_cfg())
    path = tmp_path / "ds.txt"
    gd.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["frames"][0] = rec["frames"][0][:-1]
    lines[3] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4"):
        gd.load_dataset(path)


def test_malformed_json_names_line(tmp_path):
    ds = gd.generate(small_cfg())
    path = tmp_path / "ds.txt"
    gd.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        gd.load_dataset(path)


# load_dataset before it streamed: the whole text read, then split by
# str.splitlines(); kept as the oracle of its messages and line numbers
def load_dataset_oracle(path):
    text = Path(path).read_text().splitlines()
    if not text:
        raise ValueError(f"{path}: empty dataset file")

    def fail(lineno, msg):
        raise ValueError(f"{path}: line {lineno}: {msg}")

    try:
        header = json.loads(text[0])
    except json.JSONDecodeError as e:
        fail(1, f"bad header: {e}")
    gd.check_keys(f"{path}: line 1: header", header, gd.HEADER_KEYS)
    if header["format_version"] != gd.FILE_VERSION:
        fail(1, f"unsupported format version {header['format_version']}")
    dim, vocab, speakers = header["dim"], header["vocab"], header["speakers"]
    utts = []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(lineno, f"bad record: {e}")
        gd.check_keys(f"{path}: line {lineno}: record", rec, gd.RECORD_KEYS)
        try:
            features = np.asarray(rec["frames"], dtype=np.float64)
        except (TypeError, ValueError):
            features = None
        if features is None or features.ndim != 2 or not len(features) or features.shape[1] != dim:
            fail(lineno, f"frames must be a non-empty list of rows of dim={dim} numbers")
        if not np.all(np.isfinite(features)):
            fail(lineno, "key 'frames' must hold finite numbers")
        speaker = rec["speaker"]
        if not (0 <= speaker < len(speakers)):
            fail(lineno, f"speaker label {speaker} outside table of {len(speakers)}")
        transcript = rec["transcript"]
        if transcript is not None:
            if any(type(t) is not int for t in transcript):
                fail(lineno, "transcript tokens must be integers")
            try:
                transcript = gd.validate_target(transcript, len(vocab), len(features))
            except ValueError as e:
                fail(lineno, f"key 'transcript': {e}")
        utts.append(Utterance(rec["id"], speaker, transcript, features))
    if not utts:
        raise ValueError(f"{path}: no utterance records after the header")
    return Dataset(utts, list(vocab), list(speakers))


def _mutations(text):
    """(name, text) pairs: a saved file changed in the ways a hand-edited,
    truncated or foreign file can differ from what save_dataset writes."""
    lines = text.splitlines()
    header, recs = lines[0], lines[1:]
    first_id = json.loads(recs[0])["id"]
    raw = lambda ch: text.replace(f'"{first_id}"', f'"{first_id[:3]}{ch}{first_id[3:]}"', 1)
    return [
        ("as saved", text),
        ("empty", ""),
        ("only a newline", "\n"),
        ("header only", header + "\n"),
        ("header, no newline", header),
        ("blank lines", "\n".join([header, "", recs[0], "", "", *recs[1:], "", ""]) + "\n"),
        ("whitespace lines", "\n".join([header, " \t", recs[0], "   ", *recs[1:], "\t"]) + "\n \n"),
        ("leading blank line", "\n" + text),
        ("crlf", text.replace("\n", "\r\n")),
        ("cr", text.replace("\n", "\r")),
        ("mixed endings", "\r\n".join(lines[:3]) + "\r" + "\n".join(lines[3:])),
        ("no final newline", text[:-1]),
        ("truncated record", "\n".join([header, recs[0], recs[1][: len(recs[1]) // 2]]) + "\n"),
        ("truncated at end", text[: len(text) - len(recs[-1]) // 2]),
        ("form feed, then a truncated record", text[: len(text) - len(recs[-1]) // 2].replace("\n", "\f\n", 1)),
        ("bad header json", "{" + text),
        ("header not an object", "[]\n" + "\n".join(recs) + "\n"),
        ("header version", text.replace('"format_version": 1', '"format_version": 2', 1)),
        ("header missing key", text.replace('"dim": ', '"dims": ', 1)),
        ("record not an object", "\n".join([header, recs[0], "17", *recs[1:]]) + "\n"),
        ("u2028 in an id", raw("\u2028")),
        ("u2029 in an id", raw("\u2029")),
        ("u0085 in an id", raw("\x85")),
        ("form feed after a record", text.replace("\n", "\f\n", 2)),
        ("vertical tab after a record", text.replace("\n", "\x0b\n", 2)),
        ("file separator in a record", raw("\x1c")),
    ]


def test_loader_matches_the_whole_text_loader_on_mutated_files(tmp_path):
    ds = gd.generate(small_cfg(semi_speakers=1, utterances_per_speaker=3))
    path = tmp_path / "ds.txt"
    gd.save_dataset(ds, path)
    outcomes = set()
    for name, text in _mutations(path.read_text()):
        path.write_text(text)
        got, want = outcome(lambda: gd.load_dataset(path)), outcome(lambda: load_dataset_oracle(path))
        if isinstance(want, str):
            assert got == want, name
        else:
            assert isinstance(got, Dataset) and gd.datasets_equal(got, want), name
        outcomes.add(type(want))
    assert outcomes == {str, Dataset}


def _traced(f):
    """f()'s result, the memory traced when it returned, and the peak,
    both counted from the traced memory before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = f()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - before, peak - before


@pytest.fixture(scope="module")
def big_dataset():
    return gd.generate(small_cfg(utterances_per_speaker=50, dim=16, frames_per_token=(3, 6)))


def test_save_dataset_holds_a_fraction_of_the_file(big_dataset, tmp_path):
    path = tmp_path / "ds.txt"
    _, _, peak = _traced(lambda: gd.save_dataset(big_dataset, path))
    size = path.stat().st_size
    assert size >= 2_000_000
    assert peak < 0.25 * size, f"save_dataset peaked at {peak / size:.2f}x the file"


def test_load_dataset_holds_a_fraction_of_the_file_beyond_its_result(big_dataset, tmp_path):
    path = tmp_path / "ds.txt"
    gd.save_dataset(big_dataset, path)
    size = path.stat().st_size
    assert size >= 2_000_000
    loaded, kept, peak = _traced(lambda: gd.load_dataset(path))
    assert gd.datasets_equal(loaded, big_dataset)
    assert peak - kept < 0.25 * size, f"load_dataset peaked at {(peak - kept) / size:.2f}x the file above its result"


def test_failed_save_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ds.txt"
    gd.save_dataset(gd.generate(small_cfg()), path)
    previous = path.read_bytes()
    dumps, records = json.dumps, []

    def failing(obj, **kw):
        if "frames" in obj:
            records.append(obj["id"])
            if len(records) == 5:
                raise RuntimeError("encoder failed")
        return dumps(obj, **kw)

    monkeypatch.setattr(gd.json, "dumps", failing)
    for target in (path, tmp_path / "new.txt"):
        records.clear()
        with pytest.raises(RuntimeError, match="encoder failed"):
            gd.save_dataset(gd.generate(small_cfg(semi_speakers=1)), target)
        assert len(records) == 5
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["ds.txt"]


def test_label_density_preserved_through_compositions():
    ds = gd.generate(small_cfg(utterances_per_speaker=20, semi_speakers=2))
    main, semi = gd.partition_semi(ds)
    for part in gd.split(main, 0.6, 0.2, seed=9):
        labels = sorted({u.speaker for u in part.utterances})
        assert labels == [0, 1, 2, 3]
        assert len(part.speakers) == 4
    assert sorted({u.speaker for u in semi.utterances}) == [0, 1]
    assert len(semi.speakers) == 2
