import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gradflip
from gradflip import config as cf, data as gd, model as gm, trainer as tr
from gradflip.cli import main

MINI_CFG = """
# mini experiment for CLI tests
seed = 99
gen.n_speakers = 3
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
train.lr_main = 0.05
train.lr_speaker = 0.02
train.batch_size = 4
train.epochs_a = 1
train.epochs_b = 1
train.epochs_c = 1
probe.epochs = 1
"""


@pytest.fixture()
def mini(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_CFG)
    data_dir = tmp_path / "data"
    rc = main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)])
    assert rc == 0
    return cfg_path, data_dir, tmp_path


def test_gen_data_writes_files_and_manifest(mini):
    _, data_dir, _ = mini
    for part in ("train", "dev", "test", "semi"):
        assert (data_dir / f"synth.{part}").exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["counts"]["train"] == 18  # 3 speakers x floor(0.6 * 10)
    assert manifest["counts"]["semi"] == 10
    assert (data_dir / "config.resolved").exists()


def test_gen_data_rerun_identical_bytes(mini, tmp_path):
    cfg_path, data_dir, _ = mini
    other = tmp_path / "data2"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(other)]) == 0
    for name in ("synth.train", "synth.dev", "synth.test", "synth.semi", "manifest.json"):
        assert (data_dir / name).read_bytes() == (other / name).read_bytes(), name


def test_gen_data_refuses_overwrite_without_force(mini):
    cfg_path, data_dir, _ = mini
    before = {p.name: p.read_bytes() for p in data_dir.iterdir()}
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 2
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir), "--force"]) == 0
    # the files are replaced by their own bytes, with no temporary file left beside them
    assert {p.name: p.read_bytes() for p in data_dir.iterdir()} == before


def test_gen_data_validation_error_exit_2(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_CFG)
    rc = main(
        ["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d"),
         "--gen.n_speakers=0"]
    )
    assert rc == 2


def test_gen_data_zero_offset_scale_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_CFG)
    rc = main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d"), "--gen.offset_scale=0"])
    assert rc == 2
    assert "offset_scale must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["--gen.noise_sigma=nan", "--gen.offset_scale=inf", "--gen.gain_max=inf"])
def test_gen_data_non_finite_config_value_exit_2(tmp_path, capsys, override):
    # nan noise used to write noise-free data, an infinite offset scale NaN
    # frames, and an infinite gain an OverflowError traceback
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_CFG)
    rc = main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d"), override])
    assert rc == 2
    key, _, raw = override[2:].partition("=")
    assert f"error: config key {key}: '{raw}' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_unknown_config_key_exit_2(tmp_path):
    rc = main(["gen-data", "--out", str(tmp_path / "d"), "--gen.bogus=1"])
    assert rc == 2


@pytest.mark.parametrize("key,value", [("gen.noise_sigma", "0.2"), ("train.lambda_value", "-0.5")])
def test_both_override_forms_write_the_same_resolved_config(tmp_path, key, value):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_CFG)
    resolved = []
    for name, form in (("joined", [f"--{key}={value}"]), ("split", [f"--{key}", value])):
        out = tmp_path / name
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)] + form) == 0
        resolved.append((out / "config.resolved").read_bytes())
    assert resolved[0] == resolved[1]
    assert f"\n{key} = {value}\n" in resolved[0].decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-data", "--out", "{d}", "--probe.epoch=3"],  # a prefix of probe.epochs
        ["gen-data", "--out", "{d}", "--probe.epoch", "3"],
        ["--gen.dim=3", "gen-data", "--out", "{d}"],  # a key before the command
        ["gen-data", "--out", "{d}", "--data.name", "--x"],  # a value that reads as a flag
    ],
    ids=["prefix-joined", "prefix-split", "before-command", "flag-value"],
)
def test_override_keys_are_exact_and_follow_the_command(tmp_path, argv):
    out = tmp_path / "d"
    assert main([arg.format(d=out) for arg in argv]) == 2
    assert not out.exists()


def test_train_baseline_writes_cell(mini):
    cfg_path, data_dir, tmp = mini
    out = tmp / "runs"
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out),
         "--mode", "baseline"]
    )
    assert rc == 0
    cell = out / "baseline"
    assert (cell / "metrics.csv").exists()
    assert (cell / "final.ckpt").exists()
    assert (cell / "best.ckpt").exists()
    header = (cell / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,phase,train_acoustic_loss,train_speaker_loss,dev_ler,dev_speaker_acc,lambda,wall_clock_sec"


def test_train_baseline_rejects_fork_flag(mini):
    cfg_path, data_dir, tmp = mini
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir),
         "--out", str(tmp / "runs"), "--mode", "baseline", "--fork", "mid"]
    )
    assert rc == 2


@pytest.mark.parametrize("mode", ["al", "baseline"])
def test_train_bogus_fork_key_exit_2(mini, capsys, mode):
    cfg_path, data_dir, tmp = mini
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir),
         "--out", str(tmp / "runs"), "--mode", mode, "--train.fork=bogus"]
    )
    assert rc == 2
    assert "fork label must be in/mid/out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cell_flags", [["--mode", "al", "--fork", "out"], ["--train.mode=al", "--train.fork", "out"]],
    ids=["short", "full"],
)
def test_train_al_cell_directory(mini, cell_flags):
    cfg_path, data_dir, tmp = mini
    out = tmp / "runs"
    rc = main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out), *cell_flags])
    assert rc == 0
    assert (out / "al-out" / "metrics.csv").exists()
    resolved = (out / "al-out" / "config.resolved").read_text()
    assert "train.mode = al" in resolved
    assert "train.fork = out" in resolved


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """Mini data with its finished baseline and al-mid cells."""
    root = tmp_path_factory.mktemp("finished")
    (root / "cfg.txt").write_text(MINI_CFG)
    assert main(["gen-data", "--config", str(root / "cfg.txt"), "--out", str(root / "data")]) == 0
    for cell in (["--mode", "baseline"], ["--mode", "al", "--fork", "mid"]):
        argv = ["train", "--config", str(root / "cfg.txt"), "--data", str(root / "data"), "--out", str(root / "runs")]
        assert main(argv + cell) == 0
    return root


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_baseline_writes_nan_speaker_columns(finished):
    # baseline trains and scores no speaker branch
    rows = [line.split(",") for line in (finished / "runs/baseline/metrics.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert [(row[3], row[5]) for row in rows] == [("nan", "nan")] * 3


@pytest.mark.parametrize("existing", [False, True], ids=["fresh-out", "finished-out"])
@pytest.mark.parametrize(
    "argv,message",
    [
        (["train", "--mode", "al", "--train.batch_size=0"], "batch_size must be positive"),
        (["train", "--mode", "al", "--train.lambda_max=-0.2"], "lambda_max and lambda_gamma must be >= 0"),
        (["train", "--mode", "al", "--train.lambda_gamma=-1"], "lambda_max and lambda_gamma must be >= 0"),
        (["train", "--mode", "al", "--model.kernel_width=4"], "kernel_width must be odd"),
        (["train", "--mode", "baseline", "--fork", "in"], "baseline mode takes no fork"),
        (["train", "--mode", "baseline", "--train.fork=in"], "baseline mode takes no fork"),
        (["gen-data", "--force", "--gen.n_speakers=0"], "n_speakers must be positive"),
        (["probe", "--probe.epochs=-1"], "probe epochs must be >= 0"),
        (["probe", "--layers", ""], "--layers is empty"),
        (["probe", "--layers", ","], "--layers is empty"),
        (["probe", "--layers", "bogus"], "--layers 'bogus' names no layer of any checkpoint"),
        (["probe", "--layers", "9"], "--layers '9' names no layer of any checkpoint"),
        (
            ["train", "--mode", "al", "--train.epochs_a=0", "--train.epochs_b=0", "--train.epochs_c=0"],
            "the phase epoch counts sum to 0",
        ),
        # removed keys: the mode picks the lambda schedule, the dataset sizes
        # the semi interleave, and --data the dataset directory
        (["train", "--mode", "al", "--train.lambda_kind=static"], "unrecognized arguments: --train.lambda_kind"),
        (["train", "--mode", "al", "--train.semi_ratio=2"], "unrecognized arguments: --train.semi_ratio"),
        (["train", "--mode", "al", "--data.dir=x"], "unrecognized arguments: --data.dir"),
    ],
    ids=[
        "batch-size", "lambda-max", "lambda-gamma", "kernel-width", "baseline-fork", "baseline-train-fork",
        "gen-n-speakers", "probe-epochs", "probe-no-layers", "probe-comma-layers", "probe-bogus-layer", "probe-layer-9",
        "no-epochs", "unknown-lambda-kind", "unknown-semi-ratio", "unknown-data-dir",
    ],
)
def test_rejected_setting_leaves_out_as_it_was(finished, tmp_path, capsys, argv, message, existing):
    # a finished al-mid or baseline cell, or the data directory, keeps every
    # byte of its config.resolved and outputs
    command, *flags = argv
    out = (finished / ("data" if command == "gen-data" else "runs")) if existing else tmp_path / "out"
    before = _tree(out) if existing else None
    inputs = {
        "gen-data": [],
        "train": ["--data", str(finished / "data")],
        "probe": ["--checkpoints", f"al={finished}/runs/al-mid/final.ckpt", "--data", f"{finished}/data/synth.train"],
    }[command]
    rc = main([command, "--config", str(finished / "cfg.txt"), *inputs, "--out", str(out), *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
    if existing:
        assert _tree(out) == before
    else:
        assert not out.exists()


@pytest.mark.parametrize("key,value", [("train.lambda_kind", "static"), ("train.semi_ratio", "2"), ("data.dir", "x")])
def test_removed_key_in_config_file_is_unknown(finished, tmp_path, capsys, key, value):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_CFG + f"{key} = {value}\n")
    lineno = len(cfg_path.read_text().splitlines())
    out = finished / "runs"
    before = _tree(out)
    argv = ["train", "--config", str(cfg_path), "--data", str(finished / "data"), "--out", str(out),
            "--mode", "al", "--fork", "mid"]
    assert main(argv) == 2
    assert f"error: {cfg_path}: line {lineno}: unknown config key {key!r}" in capsys.readouterr().err
    assert _tree(out) == before


def test_train_semi_requires_semi_file(mini, tmp_path):
    cfg_path, data_dir, tmp = mini
    (data_dir / "synth.semi").unlink()
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir),
         "--out", str(tmp / "runs"), "--mode", "semi", "--fork", "in"]
    )
    assert rc == 2


def test_train_missing_data_exit_2(mini, tmp_path):
    cfg_path, _, _ = mini
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(tmp_path / "nope"),
         "--out", str(tmp_path / "runs"), "--mode", "baseline"]
    )
    assert rc == 2


def test_train_header_only_train_file_exit_2(mini, capsys):
    cfg_path, data_dir, tmp = mini
    train = data_dir / "synth.train"
    train.write_text(train.read_text().splitlines()[0] + "\n")
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir),
         "--out", str(tmp / "runs"), "--mode", "baseline"]
    )
    assert rc == 2
    assert f"{train}: no utterance records" in capsys.readouterr().err


def test_python_dash_m_runs_a_command(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MINI_CFG)
    src = str(Path(gradflip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gradflip.cli", "gen-data", "--config", str(cfg_path),
         "--out", str(tmp_path / "data")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 4 dataset files" in proc.stdout
    assert (tmp_path / "data" / "synth.train").exists()


def test_train_divergence_exit_3(mini):
    cfg_path, data_dir, tmp = mini
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir),
         "--out", str(tmp / "runs-div"), "--mode", "baseline",
         "--train.lr_main=500.0", "--train.epochs_a=4"]
    )
    assert rc == 3


def test_diverged_rerun_leaves_finished_cell_as_it_was(finished, tmp_path, capsys):
    # config.resolved is echoed only once training succeeds, so it keeps
    # describing the checkpoints and metrics.csv beside it
    out = tmp_path / "runs"
    shutil.copytree(finished / "runs", out)
    before = _tree(out)
    rc = main(
        ["train", "--config", str(finished / "cfg.txt"), "--data", str(finished / "data"), "--out", str(out),
         "--mode", "baseline", "--train.lr_main=500.0", "--train.epochs_a=4"]
    )
    assert rc == 3
    assert "divergence:" in capsys.readouterr().err
    assert _tree(out) == before


@pytest.mark.parametrize(
    "part,lineno,value",
    [("train", 1, float("nan")), ("dev", 2, float("inf"))],
    ids=["train-nan", "dev-infinity"],
)
def test_train_non_finite_frame_exit_2(mini, capsys, part, lineno, value):
    cfg_path, data_dir, tmp = mini
    path = data_dir / f"synth.{part}"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[lineno])
    doc["frames"][0][0] = value
    lines[lineno] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir),
         "--out", str(tmp / "runs"), "--mode", "al", "--fork", "in"]
    )
    assert rc == 2  # bad input, not divergence
    assert f"{path}: line {lineno + 1}: key 'frames' must hold finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "part,lineno,transcript,message",
    [
        ("dev", 2, [], "target must contain at least one token"),
        ("train", 1, [0, 0], "target has adjacent duplicate token 0"),
        ("train", 3, [0, 9], "target token 9 outside vocabulary of size 5"),
        ("dev", 1, [0, 1] * 100, "target length 200 exceeds frame count"),
    ],
    ids=["dev-empty", "train-adjacent-duplicate", "train-outside-vocabulary", "dev-too-long"],
)
def test_train_illegal_transcript_exit_2(mini, capsys, part, lineno, transcript, message):
    cfg_path, data_dir, tmp = mini
    path = data_dir / f"synth.{part}"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[lineno])
    doc["transcript"] = transcript
    lines[lineno] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir),
         "--out", str(tmp / "runs"), "--mode", "al", "--fork", "in"]
    )
    assert rc == 2
    assert f"{path}: line {lineno + 1}: key 'transcript': {message}" in capsys.readouterr().err


def lambda_column(cell):
    rows = [line.split(",") for line in (cell / "metrics.csv").read_text().splitlines()[1:]]
    return [(row[1], float(row[6])) for row in rows]


def test_train_al_runs_the_configured_ramp(mini):
    cfg_path, data_dir, tmp = mini
    out = tmp / "runs"
    assert main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out),
         "--mode", "al", "--fork", "mid", "--train.epochs_c=2",
         "--train.lambda_max=0.9", "--train.lambda_gamma=3"]
    ) == 0
    ramp = tr.LambdaSchedule(value=0.5, lambda_max=0.9, gamma=3.0)
    assert lambda_column(out / "al-mid") == [
        ("A", 0.0), ("B", 0.0), ("C", tr.lambda_at(ramp, 1, 2)), ("C", tr.lambda_at(ramp, 2, 2)),
    ]


def test_train_mt_runs_the_configured_value(mini):
    cfg_path, data_dir, tmp = mini
    out = tmp / "runs"
    assert main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out),
         "--mode", "mt", "--fork", "mid", "--train.lambda_value=0.7"]
    ) == 0
    assert lambda_column(out / "mt-mid") == [("A", 0.0), ("B", 0.0), ("C", 0.7)]


def probe_args(cfg_path, data_dir, out, ckpts, layers="1,2"):
    return [
        "probe", "--config", str(cfg_path), "--checkpoints", ckpts,
        "--layers", layers, "--data", str(data_dir / "synth.train"), "--out", str(out),
    ]


def test_probe_and_eval_pipeline(mini):
    cfg_path, data_dir, tmp = mini
    out = tmp / "runs"
    assert main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out),
         "--mode", "baseline"]
    ) == 0
    ckpt = out / "baseline" / "final.ckpt"

    rc = main(probe_args(cfg_path, data_dir, tmp / "probe", f"baseline={ckpt}"))
    assert rc == 0
    lines = (tmp / "probe" / "probe.csv").read_text().splitlines()
    assert lines[0] == "variant,layer,accuracy,chance,n_eval,seed"
    assert len(lines) == 4  # 2 cells + chance + header
    assert lines[-1].startswith("chance,")

    rc = main(
        ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
         "--data", f"{data_dir}/synth.dev,{data_dir}/synth.test", "--out", str(tmp / "eval")]
    )
    assert rc == 0
    lines = (tmp / "eval" / "eval.csv").read_text().splitlines()
    assert lines[0] == "split,metric,value,n_utts"
    assert len(lines) == 5  # dev ler/wer + test ler/wer
    assert {l.split(",")[0] for l in lines[1:]} == {"dev", "test"}


def test_probe_single_cell(mini):
    cfg_path, data_dir, tmp = mini
    out = tmp / "runs"
    assert main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out),
         "--mode", "baseline"]
    ) == 0
    ckpt = out / "baseline" / "final.ckpt"
    rc = main(probe_args(cfg_path, data_dir, tmp / "probe1", f"baseline={ckpt}", layers="1"))
    assert rc == 0
    lines = (tmp / "probe1" / "probe.csv").read_text().splitlines()
    assert len(lines) == 3


def test_probe_missing_checkpoint_exit_2(mini):
    cfg_path, data_dir, tmp = mini
    rc = main(probe_args(cfg_path, data_dir, tmp / "probe2", "baseline=/nope.ckpt"))
    assert rc == 2


def test_probe_invalid_layer_recorded_absent(finished, tmp_path):
    # layer 4 exists in a 4-layer checkpoint only: the 3-layer one gets an absent cell
    cfg_path, data_dir = finished / "cfg.txt", finished / "data"
    argv = ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp_path / "runs")]
    assert main(argv + ["--mode", "baseline", "--model.n_layers=4"]) == 0
    ckpts = f"shallow={finished}/runs/baseline/final.ckpt,deep={tmp_path}/runs/baseline/final.ckpt"
    assert main(probe_args(cfg_path, data_dir, tmp_path / "probe", ckpts, layers="1,4")) == 0
    rows = [line.split(",") for line in (tmp_path / "probe" / "probe.csv").read_text().splitlines()[1:]]
    accuracy = {(row[0], row[1]): row[2] for row in rows}
    assert accuracy[("shallow", "4")] == ""
    assert all(accuracy[cell] for cell in [("shallow", "1"), ("deep", "1"), ("deep", "4")])


def test_eval_rerun_byte_identical(mini):
    cfg_path, data_dir, tmp = mini
    out = tmp / "runs"
    assert main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out),
         "--mode", "baseline"]
    ) == 0
    ckpt = out / "baseline" / "final.ckpt"
    for d in ("e1", "e2"):
        assert main(
            ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
             "--data", str(data_dir / "synth.dev"), "--out", str(tmp / d)]
        ) == 0
    assert (tmp / "e1" / "eval.csv").read_bytes() == (tmp / "e2" / "eval.csv").read_bytes()


def test_environment_seed_is_ignored(monkeypatch):
    # the seed comes from the preset, a config file or a flag, never the environment
    monkeypatch.setenv("GRADFLIP_SEED", "4242")
    assert cf.resolve()["seed"] == cf.SCHEMA["seed"]
    assert cf.resolve(seed_flag=7)["seed"] == 7


def test_config_resolved_reproduces_run(mini, tmp_path):
    cfg_path, data_dir, tmp = mini
    out1 = tmp / "r1"
    assert main(
        ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out1),
         "--mode", "mt", "--fork", "in"]
    ) == 0
    resolved = out1 / "mt-in" / "config.resolved"
    out2 = tmp / "r2"
    assert main(
        ["train", "--config", str(resolved), "--data", str(data_dir), "--out", str(out2)]
    ) == 0
    a, b = out1 / "mt-in", out2 / "mt-in"
    assert (a / "final.ckpt").read_bytes() == (b / "final.ckpt").read_bytes()
    strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(a / "metrics.csv") == strip(b / "metrics.csv")


# sha256 of every file the mini pipeline below writes, metrics.csv without
# its wall_clock_sec column. Refactors that promise unchanged outputs must
# keep every digest; a change that moves outputs on purpose re-pins them
# and says why.
PIPELINE_SHA256 = {
    "data/config.resolved": "b7926e76308bdc684d44b08fc695ac5a66703eceae88323efdc7a36c6b9a2c44",
    "data/manifest.json": "66589d15e6b1a875a70713675c62188b9c5c3d40b5a15100f04e38fad198ec57",
    "data/synth.dev": "5f313053a56fcf65866c161eee14f9a65522ec162e3c181a4765a587c120a23f",
    "data/synth.semi": "76013ec85ae22de02a18854d08da4b425d3f916281fb528d8ee53cac39bc3d8f",
    "data/synth.test": "e3143ff9971ec240f252d3120e7786d31b2dbe7d43b453cda732c0b1b3e94cfa",
    "data/synth.train": "54ae08c5ca9547c7093fd8255f04730571547c30b71b8e1cea5c2bce4bbd0139",
    "eval/config.resolved": "b7926e76308bdc684d44b08fc695ac5a66703eceae88323efdc7a36c6b9a2c44",
    "eval/eval.csv": "d79f40dff2b74c875991ea76df793de623da07f9c118bed1ed692e8d66439b61",
    "probe/config.resolved": "b7926e76308bdc684d44b08fc695ac5a66703eceae88323efdc7a36c6b9a2c44",
    "probe/probe.csv": "0c710ecc14b0951bece789dbbfc29176ebd2e6e8557463f4f67877ff3d9a0757",
    "runs/al-mid/best.ckpt": "f82da0ccbf8418591b04255fea1f822bdc0f28ee5badbd191fba0244034a8cfb",
    "runs/al-mid/config.resolved": "f3261f8433a66ff4d644a136d5559f3edb04a3ce9f7fff9e06303bb1dde55778",
    "runs/al-mid/final.ckpt": "f82da0ccbf8418591b04255fea1f822bdc0f28ee5badbd191fba0244034a8cfb",
    "runs/al-mid/metrics.csv": "f90fbb65708d61b74244e8bf1e2af4e04042a2f6be1495c1b4feccd78efb57d3",
    "runs/baseline/best.ckpt": "9b1531e82b6756566c43a4fac69642be27695968793c1f41bda1f8fabe00598b",
    "runs/baseline/config.resolved": "b7926e76308bdc684d44b08fc695ac5a66703eceae88323efdc7a36c6b9a2c44",
    "runs/baseline/final.ckpt": "9b1531e82b6756566c43a4fac69642be27695968793c1f41bda1f8fabe00598b",
    "runs/baseline/metrics.csv": "5171f20ad1ba963b5364248607fb77f21d4dd167155804a6fbfeee156bbcd6c0",
    "runs/mt-mid/best.ckpt": "36b360fa238fa734198c50c3b09e84d2b2dba112561517fdbd3f816a50e614bc",
    "runs/mt-mid/config.resolved": "290f2494d8e25d3808a17318e067857a3a86e521eb976ac9b8e2ca32de8e8507",
    "runs/mt-mid/final.ckpt": "36b360fa238fa734198c50c3b09e84d2b2dba112561517fdbd3f816a50e614bc",
    "runs/mt-mid/metrics.csv": "2927336211fbef39b019708dffcc40134bd15278822e21989dde83231f68f8e0",
    "runs/semi-in/best.ckpt": "cb1cbf50ee00f3f70b99f5dbe2c8462cd8be455c15b6364b10e4ff614343684b",
    "runs/semi-in/config.resolved": "f631f7a3bdfecc6ad25fa352b0567c5c434abc1be3031fdcf3ac302904c6f4db",
    "runs/semi-in/final.ckpt": "cb1cbf50ee00f3f70b99f5dbe2c8462cd8be455c15b6364b10e4ff614343684b",
    "runs/semi-in/metrics.csv": "e02b36883a4c47a9ba51e91e682cf6298947e8958013186c436496817a016e77",
}


def test_mini_pipeline_outputs_are_pinned(mini):
    cfg_path, data_dir, tmp = mini
    common = ["--config", str(cfg_path)]
    for mode, fork in (("baseline", None), ("mt", "mid"), ("al", "mid"), ("semi", "in")):
        argv = ["train", *common, "--data", str(data_dir), "--out", str(tmp / "runs"), "--mode", mode]
        assert main(argv + (["--fork", fork] if fork else [])) == 0, mode
    cells = ("baseline", "mt-mid", "al-mid", "semi-in")
    ckpts = ",".join(f"{c}={tmp / 'runs' / c / 'final.ckpt'}" for c in cells)
    assert main(probe_args(cfg_path, data_dir, tmp / "probe", ckpts, layers="0,in,mid,out")) == 0
    assert main(
        ["eval", *common, "--checkpoint", str(tmp / "runs" / "al-mid" / "best.ckpt"),
         "--data", f"{data_dir}/synth.dev,{data_dir}/synth.test", "--out", str(tmp / "eval")]
    ) == 0
    digests = {}
    for path in sorted(p for p in tmp.rglob("*") if p.is_file() and p != cfg_path):
        data = path.read_bytes()
        if path.name == "metrics.csv":
            data = "".join(line.rsplit(",", 1)[0] + "\n" for line in data.decode().splitlines()).encode()
        digests[path.relative_to(tmp).as_posix()] = hashlib.sha256(data).hexdigest()
    assert len(digests) == 26
    assert digests == PIPELINE_SHA256


# --- malformed readers ---


def json_keys(doc, path=()):
    """Every key path into the JSON objects of doc."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from json_keys(value, path + (key,))


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval-inputs")
    cfg_path = root / "cfg.txt"
    cfg_path.write_text(MINI_CFG)
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(root / "data")]) == 0
    dev = gd.load_dataset(root / "data" / "synth.dev")
    cfg = cf.resolve(cf.load_config_file(cfg_path))
    gm.save_checkpoint(
        gm.build_model(cf.model_config(cfg, dev.dim, len(dev.vocab), len(dev.speakers)), cfg["seed"]),
        root / "model.ckpt",
    )
    files = {
        "synth.dev": (root / "data" / "synth.dev").read_text().splitlines(),
        "model.ckpt": (root / "model.ckpt").read_text().splitlines(),
    }
    assert main(
        ["eval", "--checkpoint", str(root / "model.ckpt"), "--data", str(root / "data" / "synth.dev"),
         "--out", str(root / "out")]
    ) == 0
    holes = [
        (name, lineno, path)
        for name, lines in files.items()
        for lineno, line in enumerate(lines)
        for path in json_keys(json.loads(line))
    ]
    return root, files, holes


def eval_with_edit(root, files, name, lineno, path, edit):
    """Run eval on copies of the inputs, after edit(parent, key) on one JSON value."""
    bad = root / "bad"
    bad.mkdir(exist_ok=True)
    for fname, lines in files.items():
        lines = list(lines)
        if fname == name:
            doc = json.loads(lines[lineno])
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            edit(parent, path[-1])
            lines[lineno] = json.dumps(doc)
        (bad / fname).write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(
            ["eval", "--checkpoint", str(bad / "model.ckpt"), "--data", str(bad / "synth.dev"),
             "--out", str(root / "out")]
        )
    err = err.getvalue()
    assert rc == 2, (name, lineno, path)
    assert str(bad / name) in err, err
    assert repr(path[-1]) in err, err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_exits_2_on_any_missing_key(eval_inputs, data):
    root, files, holes = eval_inputs
    name, lineno, path = data.draw(st.sampled_from(holes))
    eval_with_edit(root, files, name, lineno, path, lambda parent, key: parent.pop(key))


# one value of each JSON type; a replacement must differ in type from the value it replaces
JSON_SAMPLES = (None, True, 3, 0.5, "x", [], {})


def wrong_types(key, value):
    """JSON samples that no reader accepts in place of `value` under `key`."""
    allowed = {type(value)}
    if isinstance(value, float):
        allowed.add(int)  # a float field also takes an integer
    if key == "transcript":
        allowed |= {list, type(None)}  # null marks an untranscribed utterance
    return [s for s in JSON_SAMPLES if type(s) not in allowed]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_exits_2_on_any_wrong_type(eval_inputs, data):
    root, files, holes = eval_inputs
    name, lineno, path = data.draw(st.sampled_from(holes))
    value = json.loads(files[name][lineno])
    for key in path:
        value = value[key]
    swap = data.draw(st.sampled_from(wrong_types(path[-1], value)))
    eval_with_edit(root, files, name, lineno, path, lambda parent, key: parent.__setitem__(key, swap))


@pytest.mark.parametrize(
    "name,lineno,path,swap",
    [
        ("synth.dev", 1, ("speaker",), None),
        ("synth.dev", 1, ("frames",), 3),
        ("model.ckpt", 0, ("config", "n_layers"), "5"),
    ],
    ids=["speaker-null", "frames-int", "n_layers-string"],
)
def test_eval_exits_2_on_wrong_type_examples(eval_inputs, name, lineno, path, swap):
    root, files, _ = eval_inputs
    eval_with_edit(root, files, name, lineno, path, lambda parent, key: parent.__setitem__(key, swap))


@pytest.mark.parametrize(
    "name,lineno,path,value",
    [
        ("synth.dev", 1, ("frames",), float("nan")),
        ("synth.dev", 2, ("frames",), float("-inf")),
        ("model.ckpt", 0, ("params", "asg.trans", "values"), float("inf")),
        ("model.ckpt", 0, ("params", "stack.01.v", "values"), float("nan")),
    ],
    ids=["frame-nan", "frame-minus-infinity", "transitions-infinity", "weight-nan"],
)
def test_eval_exits_2_on_non_finite_numbers(eval_inputs, name, lineno, path, value):
    root, files, _ = eval_inputs

    def poison(parent, key):
        flat = parent[key][0] if key == "frames" else parent[key]
        flat[0] = value

    eval_with_edit(root, files, name, lineno, path, poison)


def test_probe_negative_epochs_exit_2(eval_inputs, capsys):
    root = eval_inputs[0]
    argv = ["probe", "--checkpoints", f"m={root}/model.ckpt", "--layers", "1", "--data",
            f"{root}/data/synth.dev", "--out", f"{root}/probe-negative", "--probe.epochs=-3"]
    assert main(argv) == 2
    assert "probe epochs must be >= 0, got -3" in capsys.readouterr().err
    assert not (root / "probe-negative" / "probe.csv").exists()


def test_eval_names_the_metric_with_nothing_to_count(eval_inputs, capsys):
    # every utterance is transcribed, but only as the separator: LER has
    # tokens to count, WER has no words
    root = eval_inputs[0]
    dev = gd.load_dataset(root / "data" / "synth.dev")
    utts = [gd.Utterance(u.id, u.speaker, (dev.separator,), u.features) for u in dev.utterances[:4]]
    (root / "sep-only").mkdir()
    gd.save_dataset(gd.Dataset(utts, dev.vocab, dev.speakers), root / "sep-only" / "synth.dev")
    argv = ["eval", "--checkpoint", f"{root}/model.ckpt", "--data", f"{root}/sep-only/synth.dev",
            "--out", f"{root}/ev-sep-only"]
    assert main(argv) == 2
    assert "error: wer: the references hold no words" in capsys.readouterr().err
    assert not (root / "ev-sep-only" / "eval.csv").exists()


def overflowing_checkpoint(root):
    """A valid checkpoint whose forward pass overflows: finite but huge gains."""
    doc = json.loads((root / "model.ckpt").read_text())
    for name, value in (("out.g", 1e308), ("stack.01.g", 1e200)):
        entry = doc["params"][name]
        entry["values"] = [value] * len(entry["values"])
    path = root / "huge.ckpt"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "argv,op",
    [
        (["eval", "--checkpoint", "{ckpt}", "--data", "{root}/data/synth.dev", "--out", "{root}/ev-huge"], "matmul"),
        (["probe", "--checkpoints", "m={ckpt}", "--layers", "1", "--data", "{root}/data/synth.dev",
          "--out", "{root}/probe-huge"], "weight_norm"),
    ],
    ids=["eval", "probe"],
)
def test_numeric_overflow_exit_3(eval_inputs, capsys, argv, op):
    root = eval_inputs[0]
    ckpt = overflowing_checkpoint(root)
    assert main([arg.format(root=root, ckpt=ckpt) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: numeric overflow: {op}: "), err


@pytest.mark.parametrize(
    "argv,bad",
    [
        (["gen-data", "--config", "{root}/nope.cfg", "--out", "{root}/gen"], "{root}/nope.cfg"),
        (["probe", "--checkpoints", "m={root}/model.ckpt", "--data", "{root}/nope.train", "--out", "{root}/probe"],
         "{root}/nope.train"),
        (["eval", "--checkpoint", "{root}/data", "--data", "{root}/data/synth.dev", "--out", "{root}/ev"], "{root}/data"),
    ],
    ids=["gen-data-missing-config", "probe-missing-data", "eval-checkpoint-is-a-directory"],
)
def test_unreadable_input_path_exit_2(eval_inputs, capsys, argv, bad):
    root = eval_inputs[0]
    assert main([arg.format(root=root) for arg in argv]) == 2
    assert bad.format(root=root) in capsys.readouterr().err


# --- dataset files that do not fit the model or each other ---


def gen_variant(cfg_path, out, override):
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out), "--force", override]) == 0
    return out


@pytest.mark.parametrize(
    "override,message",
    [("--gen.alphabet_size=3", "vocabulary size 4 and dim 6 do not match checkpoint {ckpt}'s 5 and 6"),
     ("--gen.dim=7", "vocabulary size 5 and dim 7 do not match checkpoint {ckpt}'s 5 and 6")],
    ids=["vocab", "dim"],
)
def test_eval_rejects_a_data_file_the_checkpoint_does_not_fit(eval_inputs, capsys, override, message):
    # a 5-token checkpoint scored a 4-token file and wrote an LER
    root = eval_inputs[0]
    other = gen_variant(root / "cfg.txt", root / f"other{override[6:]}", override)
    argv = ["eval", "--checkpoint", f"{root}/model.ckpt",
            "--data", f"{root}/data/synth.dev,{other}/synth.dev", "--out", f"{root}/ev-{override[6:]}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {other}/synth.dev: " + message.format(ckpt=f"{root}/model.ckpt") in err
    assert not (root / f"ev-{override[6:]}" / "eval.csv").exists()


@pytest.mark.parametrize(
    "part,mode,override,message",
    [("dev", "baseline", "--gen.alphabet_size=3", "vocab ['a', 'b', 'c', '|'] and dim 6 do not match {train}'s"
      " ['a', 'b', 'c', 'd', '|'] and 6"),
     ("dev", "baseline", "--gen.dim=7", "vocab ['a', 'b', 'c', 'd', '|'] and dim 7 do not match {train}'s"
      " ['a', 'b', 'c', 'd', '|'] and 6"),
     ("semi", "semi", "--gen.alphabet_size=3", "vocab ['a', 'b', 'c', '|'] and dim 6 do not match {train}'s"
      " ['a', 'b', 'c', 'd', '|'] and 6"),
     ("semi", "semi", "--gen.dim=7", "vocab ['a', 'b', 'c', 'd', '|'] and dim 7 do not match {train}'s"
      " ['a', 'b', 'c', 'd', '|'] and 6")],
    ids=["dev-vocab", "dev-dim", "semi-vocab", "semi-dim"],
)
def test_train_rejects_dev_or_semi_files_unlike_train(mini, capsys, part, mode, override, message):
    cfg_path, data_dir, tmp = mini
    other = gen_variant(cfg_path, tmp / "other", override)
    (data_dir / f"synth.{part}").write_bytes((other / f"synth.{part}").read_bytes())
    argv = ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp / "runs"),
            "--mode", mode] + (["--fork", "in"] if mode == "semi" else [])
    assert main(argv) == 2
    message = message.format(train=data_dir / "synth.train")
    assert f"error: {data_dir}/synth.{part}: {message}" in capsys.readouterr().err
    assert not (tmp / "runs" / mode).exists() and not (tmp / "runs" / f"{mode}-in").exists()


def test_train_rejects_an_untranscribed_dev_utterance(mini, capsys):
    # dev LER picks best.ckpt, so an unscored dev utterance is an error
    cfg_path, data_dir, tmp = mini
    dev = data_dir / "synth.dev"
    lines = dev.read_text().splitlines()
    rec = json.loads(lines[2])
    lines[2] = json.dumps({**rec, "transcript": None}, sort_keys=True)
    dev.write_text("\n".join(lines) + "\n")
    argv = ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp / "runs"),
            "--mode", "baseline"]
    assert main(argv) == 2
    assert f"error: {dev}: utterance {rec['id']} has no transcript" in capsys.readouterr().err


@pytest.mark.parametrize("layer", ["0", "mid"])
def test_probe_rejects_a_data_file_the_checkpoint_does_not_fit(eval_inputs, capsys, layer):
    # layer 0 dumps the raw input, a named layer runs the stack: both need the checkpoint's dim
    root = eval_inputs[0]
    other = gen_variant(root / "cfg.txt", root / f"probe-dim-{layer}", "--gen.dim=7")
    out = root / f"probe-dim-{layer}" / "out"
    argv = ["probe", "--checkpoints", f"m={root}/model.ckpt", "--layers", layer, "--data",
            f"{other}/synth.dev", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {other}/synth.dev: dim 7 does not match checkpoint {root}/model.ckpt's 6" in err
    assert not (out / "probe.csv").exists()


def test_probe_rejects_a_repeated_checkpoint_name(eval_inputs, capsys):
    root = eval_inputs[0]
    argv = ["probe", "--checkpoints", f"a={root}/model.ckpt,b={root}/model.ckpt,a={root}/model.ckpt",
            "--layers", "1", "--data", f"{root}/data/synth.dev", "--out", f"{root}/probe-dup"]
    assert main(argv) == 2
    assert "error: --checkpoints names 'a' twice" in capsys.readouterr().err
    assert not (root / "probe-dup" / "probe.csv").exists()
