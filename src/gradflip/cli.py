"""Command-line entry point.

    gradflip gen-data --config cfg.txt --out runs/data
    gradflip train    --config cfg.txt --data runs/data --mode al --fork out --out runs
    gradflip probe    --checkpoints baseline=...,mt=...,al=... --layers in,mid,out \
                      --data runs/data/synth.train --out runs/probe
    gradflip eval     --checkpoint runs/al-out/best.ckpt --data runs/data/synth.dev --out runs/eval

Every config key is overridable after the command as `--key=value` or
`--key value`, spelled in full (`train` also reads `--mode`, `--fork`).
A command checks every setting it uses before it writes a file. Exit
codes: 0 success, 2 validation error, 3 numeric divergence in training
or numeric overflow in any command.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gradflip import analysis, config as cf, data as gd, model as gm, tensor as tz, trainer as tr

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3


def _resolve_from_args(args) -> dict[str, object]:
    file_values = cf.load_config_file(args.config) if args.config else None
    overrides = {key: vars(args)[key] for key in cf.SCHEMA if key != "seed" and vars(args)[key] is not None}
    return cf.resolve(file_values, overrides, seed_flag=args.seed)


def _echo_resolved(cfg: dict[str, object], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(cf.format_resolved(cfg))


def _dataset_paths(data_dir: Path, name: str) -> dict[str, Path]:
    return {part: data_dir / f"{name}.{part}" for part in ("train", "dev", "test", "semi")}


def cmd_gen_data(args) -> int:
    cfg = _resolve_from_args(args)
    gen_cfg = cf.gen_config(cfg)
    out_dir = Path(args.out)
    paths = _dataset_paths(out_dir, cfg["data.name"])
    existing = [str(p) for p in paths.values() if p.exists()]
    if existing and not args.force:
        raise ValueError(f"refusing to overwrite {existing[0]} (use --force)")
    main_ds, semi_ds = gd.partition_semi(gd.generate(gen_cfg))
    train_ds, dev_ds, test_ds = gd.split(main_ds, cfg["gen.train_frac"], cfg["gen.dev_frac"], cfg["seed"])
    _echo_resolved(cfg, out_dir)
    counts = {}
    for part, ds in (("train", train_ds), ("dev", dev_ds), ("test", test_ds)):
        gd.save_dataset(ds, paths[part])
        counts[part] = len(ds.utterances)
    if semi_ds is not None:
        gd.save_dataset(semi_ds, paths["semi"])
        counts["semi"] = len(semi_ds.utterances)
    manifest = {
        "name": cfg["data.name"],
        "seed": cfg["seed"],
        "counts": counts,
        "n_speakers": len(main_ds.speakers),
        "n_semi_speakers": 0 if semi_ds is None else len(semi_ds.speakers),
        "dim": main_ds.dim,
        "vocab_size": len(main_ds.vocab),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(counts)} dataset files under {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve_from_args(args)
    train_cfg = cf.train_config(cfg)  # checks mode, lambda schedule, batch size and epochs
    mode = train_cfg.mode
    data_dir = Path(args.data or cfg["data.dir"] or ".")
    paths = _dataset_paths(data_dir, cfg["data.name"])
    train_ds = gd.load_dataset(paths["train"])
    dev_ds = gd.load_dataset(paths["dev"])
    untranscribed = [u.id for u in dev_ds.utterances if u.transcript is None]
    if untranscribed:
        # dev LER picks best.ckpt, so every dev utterance must be scored
        raise ValueError(f"{paths['dev']}: utterance {untranscribed[0]} has no transcript")
    semi_ds = None
    if mode == "semi":
        if not paths["semi"].exists():
            raise ValueError(f"semi mode needs {paths['semi']}")
        semi_ds = gd.load_dataset(paths["semi"])
    for part, ds in (("dev", dev_ds), ("semi", semi_ds)):
        if ds is not None and (ds.vocab, ds.dim) != (train_ds.vocab, train_ds.dim):
            raise ValueError(
                f"{paths[part]}: vocab {ds.vocab} and dim {ds.dim} do not match "
                f"{paths['train']}'s {train_ds.vocab} and {train_ds.dim}"
            )

    n_speakers = len(train_ds.speakers) + (len(semi_ds.speakers) if semi_ds else 0)
    mcfg = cf.model_config(cfg, train_ds.dim, len(train_ds.vocab), n_speakers)  # checks the fork label
    if mode == "baseline" and vars(args)["train.fork"] is not None:
        raise ValueError("baseline mode takes no fork")
    m = gm.build_model(mcfg, cfg["seed"])
    cell = mode if mode == "baseline" else f"{mode}-{cfg['train.fork']}"
    out_dir = Path(args.out) / cell
    _echo_resolved(cfg, out_dir)
    try:
        result = tr.train(m, train_ds, dev_ds, train_cfg, out_dir, semi_ds=semi_ds)
    except tr.DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(
        f"trained {cell}: best dev LER {result.best_dev_ler:.4f}; "
        f"metrics at {result.metrics_path}"
    )
    return EXIT_OK


def _parse_checkpoint_list(spec: str) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"--checkpoints entries must be name=path, got {item!r}")
        name, _, path = item.partition("=")
        if name in out:
            raise ValueError(f"--checkpoints names {name!r} twice")
        out[name] = Path(path)
    if not out:
        raise ValueError("--checkpoints is empty")
    return out


def cmd_probe(args) -> int:
    cfg = _resolve_from_args(args)
    out_dir = Path(args.out)
    checkpoints = _parse_checkpoint_list(args.checkpoints)
    dataset = gd.load_dataset(args.data)
    labels = [s for s in args.layers.split(",") if s]

    models = {name: gm.load_checkpoint(path) for name, path in checkpoints.items()}
    for name, path in checkpoints.items():
        if dataset.dim != models[name].cfg.in_dim:
            raise ValueError(
                f"{args.data}: dim {dataset.dim} does not match checkpoint {path}'s {models[name].cfg.in_dim}"
            )
    cells: list[analysis.ProbeCell] = []
    for name, m in models.items():
        layer_map: dict[str, int | None] = {}
        for label in labels:
            try:
                layer = int(label) if label.lstrip("-").isdigit() else gm.resolve_fork(m.cfg.n_layers, label)
                if not (0 <= layer <= m.cfg.n_layers):
                    raise ValueError
                layer_map[label] = layer
            except ValueError:
                layer_map[label] = None  # invalid for this model: absent cell
        report = analysis.figure2_report({name: m}, layer_map, dataset, cfg["probe.epochs"], cfg["seed"])
        cells += report[:-1]
    cells.append(report[-1])  # each report ends with the same chance row; the file keeps one
    _echo_resolved(cfg, out_dir)
    out_path = out_dir / "probe.csv"
    analysis.write_probe_csv(cells, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve_from_args(args)
    out_dir = Path(args.out)
    ckpt = Path(args.checkpoint)
    m = gm.load_checkpoint(ckpt)
    rows = []
    for path_str in args.data.split(","):
        path = Path(path_str)
        ds = gd.load_dataset(path)
        if (len(ds.vocab), ds.dim) != (m.cfg.vocab_size, m.cfg.in_dim):
            raise ValueError(
                f"{path}: vocabulary size {len(ds.vocab)} and dim {ds.dim} do not match "
                f"checkpoint {ckpt}'s {m.cfg.vocab_size} and {m.cfg.in_dim}"
            )
        split_name = path.suffix.lstrip(".") or path.name
        results = analysis.evaluate(m, ds)
        rows += [(split_name, metric, r.value, r.n_scored) for metric, r in results.items()]
        if results["ler"].n_skipped:
            print(f"{split_name}: skipped {results['ler'].n_skipped} untranscribed utterances")
    _echo_resolved(cfg, out_dir)
    out_path = out_dir / "eval.csv"
    analysis.write_eval_csv(rows, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradflip", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, short: dict[str, str] | None = None):
        p.add_argument("--config", default=None, help="config document (key = value lines)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        for key in cf.SCHEMA:  # every other config key, as --key=value or --key value
            if key in (short or {}):  # also spelled without its group: --mode is --train.mode
                name = key.partition(".")[2]
                p.add_argument(f"--{key}", f"--{name}", dest=key, metavar=name.upper(), help=short[key])
            elif key != "seed":
                p.add_argument(f"--{key}", dest=key, default=None, help=argparse.SUPPRESS)

    p = sub.add_parser("gen-data", allow_abbrev=False, help="generate the synthetic dataset files")
    common(p)
    p.add_argument("--force", action="store_true", help="overwrite existing dataset files")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", allow_abbrev=False, help="train one experiment cell")
    common(p, short={"train.mode": "/".join(tr.MODES), "train.fork": "in/mid/out"})
    p.add_argument("--data", default=None, help="directory holding the dataset files")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("probe", allow_abbrev=False, help="speaker-probe checkpoints at given layers")
    common(p)
    p.add_argument("--checkpoints", required=True, help="name=path[,name=path...]")
    p.add_argument("--layers", default="in,mid,out", help="labels or integer layer indices")
    p.add_argument("--data", required=True, help="dataset file to dump representations from")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("eval", allow_abbrev=False, help="LER/WER of a checkpoint on dataset files")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset file, or comma-separated files")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:  # OSError: an input path that cannot be read
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except tz.NumericOverflow as e:  # e.g. a valid checkpoint whose forward pass overflows
        print(f"error: numeric overflow: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
