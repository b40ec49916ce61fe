"""Command-line front end: corpus synthesis, mixing, training, separation,
evaluation, and the analytic diagnostics.

Every tunable is addressable as a dotted config key (see DEFAULTS); values
merge as defaults < config file < --set overrides < dedicated flags. The
merged configuration is echoed next to each command's artifacts so any run
can be reproduced from its output directory.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from .bsseval import EvalConfig, evaluate_set
from .clustering import ALGOS
from .corpus import DatasetRecipe, build_dataset, scan_corpus, synth_corpus
from .dsp import StftConfig, write_wav
from .network import CELL_KINDS, ArchSpec, count_params, finite_difference_check
from .pipeline import (BLAS_THREAD_VARS, EVAL_ALGOS, HyperParams, TrainLog,
                       load_checkpoint, read_audio, save_checkpoint, separate, train)

# The arch/stft/train/eval keys are the fields of these dataclasses, whose
# defaults are the config defaults.
SECTIONS = {"arch": ArchSpec, "stft": StftConfig, "train": HyperParams, "eval": EvalConfig}

# Short user-facing names for the fields whose key is not the field name.
ALIASES = {
    "arch.num_layers": "arch.layers",
    "arch.hidden_per_direction": "arch.hidden",
    "arch.cell_kind": "arch.cell",
    "train.lr_halve_patience": "train.patience",
}


def _key(section: str, name: str) -> str:
    key = f"{section}.{name}"
    return ALIASES.get(key, key)


DEFAULTS: dict[str, object] = {
    "synth.speakers": 12,
    "synth.utts": 20,
    "synth.dur": 3.0,
    "synth.seed": 0,
    "mix.train_min": 6.0,
    "mix.valid_min": 2.0,
    "mix.test_min": 2.0,
    "mix.snr_lo": -3.0,
    "mix.snr_hi": 3.0,
    "mix.seed": 0,
    **{_key(section, f.name): f.default
       for section, cls in SECTIONS.items() for f in fields(cls)},
    "separate.n_speakers": 2,
    "separate.cluster": "gmm",
    "separate.seed": 0,
    "eval.algo": "gmm",
    "eval.split": "test",
    "eval.seed": 0,
    "gradcheck.seed": 0,
    "gradcheck.step": 1e-5,
}

CHOICES = {
    "separate.cluster": list(ALGOS),
    "eval.algo": list(EVAL_ALGOS),
    "arch.cell": list(CELL_KINDS),
}


class ConfigError(Exception):
    """Bad key, value, or missing input; maps to exit code 2."""


@dataclass
class CommandOutcome:
    exit_code: int = 0
    summary: str = ""


def _coerce(key: str, raw: str):
    try:
        value = type(DEFAULTS[key])(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"bad value for {key}: {raw!r} (choose from {CHOICES[key]})")
    return value


def load_config(config_path: str | None, overrides: list[str]) -> dict:
    """Merge defaults, a key=value file, and --set overrides; reject unknown
    keys, values that do not parse, and values outside a key's CHOICES."""
    cfg = dict(DEFAULTS)
    entries: list[tuple[str, str]] = []
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries.append((key.strip(), value.strip()))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        entries.append((key.strip(), value.strip()))
    for key, value in entries:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        cfg[key] = _coerce(key, value)
    return cfg


def echo_config(cfg: dict, path: Path) -> None:
    """Write cfg as key=value lines under `#` lines naming the numpy and scipy
    versions and the BLAS thread settings, which bit-exact results need."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# numpy {np.__version__}, scipy {scipy.__version__}\n")
        for var in BLAS_THREAD_VARS:
            fh.write(f"# {var}={os.environ.get(var, 'unset')}\n")
        for key in sorted(cfg):
            fh.write(f"{key}={cfg[key]}\n")


def _build(cls, cfg: dict, section: str):
    """The dataclass of one config section, built from the merged config."""
    try:
        return cls(**{f.name: cfg[_key(section, f.name)] for f in fields(cls)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_inputs(args: argparse.Namespace) -> None:
    """Every given input path must exist as the kind COMMANDS declares."""
    for flag, kind in COMMANDS[args.command][2].items():
        value = getattr(args, flag[2:].replace("-", "_"))
        kind = kind.rstrip("?")
        if value is None or kind == "out":
            continue
        path = Path(value)
        if not (path.is_dir() if kind == "dir" else path.is_file()):
            what = "directory" if kind == "dir" else "file"
            raise ConfigError(f"{args.command}.{flag[2:]}: {what} not found: {path}")


def _apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Flags win over every other source of a key."""
    for key in COMMANDS[args.command][3].values():
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def cmd_synth(cfg: dict, args) -> CommandOutcome:
    out_dir = Path(args.out)
    table = synth_corpus(out_dir, n_speakers=cfg["synth.speakers"],
                         utts_per_speaker=cfg["synth.utts"],
                         dur=cfg["synth.dur"], seed=cfg["synth.seed"])
    echo_config(cfg, out_dir / "effective_config.txt")
    return CommandOutcome(summary=(f"synthesized {len(table.speakers)} speakers, "
                                   f"{table.total_duration:.0f} s of audio in {out_dir}"))


def cmd_mix(cfg: dict, args) -> CommandOutcome:
    table = scan_corpus(args.corpus)
    recipe = DatasetRecipe(train_s=60.0 * cfg["mix.train_min"],
                           valid_s=60.0 * cfg["mix.valid_min"],
                           test_s=60.0 * cfg["mix.test_min"],
                           snr_range=(cfg["mix.snr_lo"], cfg["mix.snr_hi"]),
                           seed=cfg["mix.seed"])
    out_dir = Path(args.out)
    records = build_dataset(table, recipe, out_dir)
    echo_config(cfg, out_dir / "effective_config.txt")
    counts = {s: sum(r.split == s for r in records) for s in ("train", "valid", "test")}
    summary = f"built {counts} mixtures under {out_dir}"
    if table.skipped:
        path, reason = table.skipped[0]
        summary += (f"; skipped {len(table.skipped)} unreadable or empty corpus "
                    f"file(s), first {path}: {reason}")
    return CommandOutcome(summary=summary)


def cmd_train(cfg: dict, args) -> CommandOutcome:
    hyper = _build(HyperParams, cfg, "train")
    arch = _build(ArchSpec, cfg, "arch")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    resume_from = None
    if args.resume:
        last_path = out_dir / "last.danc"
        if not last_path.is_file():
            raise ConfigError(f"--resume: no checkpoint at {last_path}")
        resume_from = load_checkpoint(last_path)

    config_pending = True

    def progress(row, ckpt, is_best):
        # The first call comes after train()'s checks, so a killed run keeps
        # its config and a refused resume leaves the earlier run's in place.
        nonlocal config_pending
        if config_pending:
            echo_config(cfg, out_dir / "effective_config.txt")
            config_pending = False
        # Every epoch leaves a resumable run: the best checkpoint, the log row
        # (epoch 1 starts a fresh run's log) and last, which --resume reads.
        if is_best:
            save_checkpoint(ckpt, out_dir / "checkpoint.danc")
        TrainLog([row]).to_csv(out_dir / "trainlog.csv", append=row.epoch > 1)
        save_checkpoint(ckpt, out_dir / "last.danc")
        print(f"epoch {row.epoch}: train {row.train_loss:.4f} "
              f"val {row.val_loss:.4f} lr {row.lr:.2e} ({row.seconds:.1f}s)")

    result = train(args.manifest, hyper, arch, stft_cfg=_build(StftConfig, cfg, "stft"),
                   resume_from=resume_from, progress=progress)
    # A resumed run that never beat its earlier best left that checkpoint be.
    where = ("from before the resume (checkpoint kept)" if result.best is None
             else f"at epoch {result.best.epoch}")
    return CommandOutcome(summary=(f"trained to epoch {result.last.epoch}; best validation "
                                   f"loss {result.last.best_val_loss:.4f} {where}"))


def cmd_separate(cfg: dict, args) -> CommandOutcome:
    in_path = Path(args.input)
    ckpt = load_checkpoint(args.checkpoint)
    mixture = read_audio(in_path)
    outs = separate(mixture, ckpt, n_speakers=cfg["separate.n_speakers"],
                    algo=cfg["separate.cluster"], seed=cfg["separate.seed"])
    out_dir = Path(args.out_dir) if args.out_dir else in_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, wave in enumerate(outs, start=1):
        write_wav(out_dir / f"{in_path.stem}_spk{i}.wav", wave)
    # Sigmoid masks need not partition the mixture; report the gap.
    total = np.sum([w.samples for w in outs], axis=0)
    residual = float(np.linalg.norm(total - mixture.samples)
                     / max(np.linalg.norm(mixture.samples), 1e-300))
    return CommandOutcome(summary=(f"wrote {len(outs)} sources to {out_dir} "
                                   f"(sum-vs-mixture residual {residual:.3f})"))


def cmd_eval(cfg: dict, args) -> CommandOutcome:
    algo = cfg["eval.algo"]
    if algo in ALGOS and not args.checkpoint:
        raise ConfigError(f"eval.algo={algo} requires --checkpoint")
    ckpt = load_checkpoint(args.checkpoint) if args.checkpoint else None
    # The oracles mask at the run's geometry: the checkpoint's, else stft.*.
    stft_cfg = ckpt.stft_cfg if ckpt is not None else _build(StftConfig, cfg, "stft")
    out_csv = Path(args.out)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    summary = evaluate_set(args.manifest, ckpt, algo, _build(EvalConfig, cfg, "eval"), out_csv,
                           split=cfg["eval.split"], seed=cfg["eval.seed"], stft_cfg=stft_cfg)
    echo_config(cfg, out_csv.with_suffix(".config.txt"))
    if summary["count"] == 0:
        return CommandOutcome(summary=f"no utterances in split {cfg['eval.split']!r}")
    line = (f"{algo} on {summary['count']} mixtures: mean SDR {summary['sdr']:.2f} dB, "
            f"SIR {summary['sir']:.2f} dB, SAR {summary['sar']:.2f} dB")
    return CommandOutcome(summary=line)


def cmd_count_params(cfg: dict, args) -> CommandOutcome:
    total = count_params(_build(ArchSpec, cfg, "arch"))
    return CommandOutcome(summary=str(total))


def cmd_gradcheck(cfg: dict, args) -> CommandOutcome:
    max_err, per_tensor = finite_difference_check(seed=cfg["gradcheck.seed"],
                                                  step=cfg["gradcheck.step"])
    worst = max(per_tensor, key=per_tensor.get)
    ok = max_err < 1e-4
    return CommandOutcome(
        exit_code=0 if ok else 1,
        summary=(f"max relative gradient error {max_err:.3e} (worst tensor {worst}); "
                 f"{'PASS' if ok else 'FAIL'} at 1e-4"))


# Per subcommand: its handler, help text, path arguments, and the flags that
# set a config key. A path's kind is "file" or "dir" for an input that must
# exist, or "out"; a trailing "?" makes it optional. A flag's type is that of
# its key's default.
COMMANDS = {
    "synth": (cmd_synth, "generate the synthetic corpus", {"--out": "out"},
              {"--speakers": "synth.speakers", "--utts": "synth.utts",
               "--dur": "synth.dur", "--seed": "synth.seed"}),
    "mix": (cmd_mix, "build a two-speaker mixture dataset", {"--corpus": "dir", "--out": "out"},
            {"--train-min": "mix.train_min", "--valid-min": "mix.valid_min",
             "--test-min": "mix.test_min", "--seed": "mix.seed"}),
    "train": (cmd_train, "train a separation model", {"--manifest": "file", "--out": "out"},
              {"--epochs": "train.epochs", "--batch-size": "train.batch_size",
               "--lr0": "train.lr0", "--layers": "arch.layers", "--hidden": "arch.hidden",
               "--embed-dim": "arch.embed_dim", "--seed": "train.seed"}),
    "separate": (cmd_separate, "separate one mixture WAV",
                 {"--checkpoint": "file", "--input": "file", "--out-dir": "out?"},
                 {"--speakers": "separate.n_speakers", "--cluster": "separate.cluster",
                  "--seed": "separate.seed"}),
    "eval": (cmd_eval, "score a manifest split",
             {"--manifest": "file", "--checkpoint": "file?", "--out": "out"},
             {"--algo": "eval.algo", "--split": "eval.split", "--proj-len": "eval.proj_len"}),
    "count-params": (cmd_count_params, "parameter count", {},
                     {"--cell": "arch.cell", "--layers": "arch.layers",
                      "--hidden": "arch.hidden", "--embed-dim": "arch.embed_dim",
                      "--input-dim": "arch.input_dim"}),
    "gradcheck": (cmd_gradcheck, "finite-difference gradient check", {},
                  {"--seed": "gradcheck.seed", "--step": "gradcheck.step"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="danet",
        description="Two-speaker separation with BGRU attractor embeddings "
                    "and GMM clustering.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, paths, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kind in paths.items():
            p.add_argument(flag, required=not kind.endswith("?"))
        for flag, key in flags.items():
            p.add_argument(flag, dest=key, type=type(DEFAULTS[key]), choices=CHOICES.get(key))
        if name == "train":
            p.add_argument("--resume", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        cfg = _apply_flags(cfg, args)
        _check_inputs(args)
        outcome = COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if outcome.summary:
        print(outcome.summary)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
