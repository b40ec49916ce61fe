#!/usr/bin/env python3
"""danet benchmark: one workload per run, one closed-loop client, one process.

    python3 perfbench/run.py --workload separate --seed 3 --seconds 20 --trace 0

Workloads (NOTES.md says why each exists):
  train        pipeline.train for a fixed number of epochs, each call from the
               same initialisation
  separate     pipeline.separate in whole passes over the test split, gmm and
               kmeans on every mixture, with a checkpoint trained in set-up
  eval_oracle  bsseval.evaluate_set(algo="oracle_wfm") over the test split

Every input comes from --seed. The run prints the environment and every
metric of its workload by name with its unit; its last line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
those metrics are BENCHMARK.json's end-to-end ones, measured untraced. With
--trace 1 every operation runs once untraced and once traced, the metrics
are the per-layer ones of layers.py plus the tracing overhead, and the
spans are written to perfbench/out/.
"""

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# One BLAS thread, set before numpy loads: at desk sizes a second thread
# gains little, and on a shared 2-core machine it makes timings jump.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
    import scipy
    from danet import bsseval, corpus, dsp, pipeline
    from danet.network import ArchSpec
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import danet from {HERE.parent / 'src'}: {exc}")

import layers
from tracing import Tracer

WORK = HERE / "work"
OUT = HERE / "out"
ALGOS = ("gmm", "kmeans")
SEP_MARGIN_DB = 3.0    # separate: mean SDR must clear the unprocessed mixture's by this
ORACLE_MIN_DB = 10.0   # criterion 5: soft ideal masks reach at least 10 dB


@dataclass(frozen=True)
class Scale:
    """Corpus, model and loop sizes.

    The default is the desk recipe (12 synthetic speakers x 20 utterances,
    2 BGRU layers x 64 units, K=10, B=8, float64) with 0.5-s utterances and
    the 6/2/2-min splits cut to a sixth, so the splits still hold 120/40/40
    mixtures. At 3 s a separation takes ~5 s, and one pass of `separate`
    over the test split would take minutes.
    """

    speakers: int = 12
    utts_per_speaker: int = 20
    utt_s: float = 0.5
    train_s: float = 60.0
    valid_s: float = 20.0
    test_s: float = 20.0
    arch: ArchSpec = ArchSpec(input_dim=129, num_layers=2, hidden_per_direction=64,
                              embed_dim=10)
    epochs: int = 2          # per train() call of the train workload
    ckpt_epochs: int = 4     # separate's set-up checkpoint
    setup_repeats: int = 3   # corpus builds per run; setup_s takes their median
    scored: int = 8          # separate: leading test mixtures always run and scored


DESK = Scale()


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def build_corpus(work: Path, seed: int, scale: Scale) -> Path:
    table = corpus.synth_corpus(work / "corpus", scale.speakers, scale.utts_per_speaker,
                                scale.utt_s, seed)
    recipe = corpus.DatasetRecipe(scale.train_s, scale.valid_s, scale.test_s, seed=seed)
    corpus.build_dataset(table, recipe, work / "mix")
    return work / "mix" / "manifest.jsonl"


def split(manifest: Path, name: str) -> list:
    return [r for r in corpus.load_manifest(manifest) if r.split == name]


def _mean(values: list[float]) -> float:
    return statistics.mean(values) if values else float("nan")


def _tail_note(values_ms: list[float]) -> tuple[float, str]:
    value, pct, n = layers.tail(values_ms)
    if value is None:
        return float("nan"), f"n/a: n={n} < 11"
    return value, f"p{pct:.1f} of n={n}"


class Workload:
    """Set-up after the corpus build, an untimed warm-up, the timed operation
    `op(i)` (returning at least its "wall" and "audio_s" seconds), checks
    after the loop, and `report(samples)`: the workload's named metrics as
    (name, value, unit, note) plus its real-time factor."""

    min_ops = 1    # operations run even when --seconds is already spent
    pass_ops = 1   # the loop stops only after a whole number of these

    def __init__(self, seed: int, scale: Scale):
        self.seed, self.scale = seed, scale

    def warm_up(self) -> None:
        pass

    def finish(self) -> list[tuple[bool, str]]:
        """End-of-run checks as (passed, message); each is one more attempt."""
        return []


class Train(Workload):
    """pipeline.train for `scale.epochs` epochs per call, each from the same
    initialisation. Exercises network and pipeline only: no clustering, no
    BSS-eval."""

    def setup(self, manifest: Path, work: Path) -> None:
        self.hyper = pipeline.HyperParams(epochs=self.scale.epochs, seed=self.seed)
        self.reference = None
        self.manifest = manifest
        records = split(manifest, "train")
        self.utts = len(records)
        self.audio_s = sum(r.duration for r in records)

    def warm_up(self) -> None:
        pass

    def op(self, i: int) -> dict:
        started = time.perf_counter()
        result = pipeline.train(self.manifest, self.hyper, self.scale.arch)
        wall = time.perf_counter() - started
        rows = result.log.rows
        if not all(math.isfinite(x) for r in rows for x in (r.train_loss, r.val_loss)):
            raise CheckFailed(f"non-finite loss: {result.log.deterministic_rows()}")
        if not rows[-1].val_loss < rows[0].val_loss:
            raise CheckFailed(f"validation loss did not fall: {rows[0].val_loss!r} "
                              f"-> {rows[-1].val_loss!r}")
        if self.reference is None:
            self.reference = result.log.deterministic_rows()
        elif result.log.deterministic_rows() != self.reference:
            raise CheckFailed("two train() calls from one initialisation differ")
        return {"wall": wall, "audio_s": self.audio_s * len(rows),
                "epoch_s": [r.seconds for r in rows], "val_loss": [r.val_loss for r in rows]}

    def report(self, samples: list[dict]):
        wall = sum(s["wall"] for s in samples)
        epoch_s = [e for s in samples for e in s["epoch_s"]]
        val = samples[0]["val_loss"]
        named = [
            ("train_utt_per_s", self.utts * len(epoch_s) / wall, "utt/s",
             f"{self.utts} utterances x {len(epoch_s)} epochs over {len(samples)} train() calls"),
            ("epoch_s_p50", statistics.median(epoch_s), "s", f"n={len(epoch_s)} epochs"),
            ("train_val_loss", val[-1], "loss", f"epoch {len(val)}; epoch 1 read {val[0]!r}"),
        ]
        return named, wall / sum(s["audio_s"] for s in samples)


class Separate(Workload):
    """pipeline.separate on every test mixture in order, both algorithms on
    each, alternating which goes first. Clustering dominates; SDR is scored
    after the timed loop."""

    def setup(self, manifest: Path, work: Path) -> None:
        self.outputs: dict[int, dict[str, list]] = {}
        hyper = pipeline.HyperParams(epochs=self.scale.ckpt_epochs, seed=self.seed)
        path = work / "checkpoint.danc"
        pipeline.save_checkpoint(pipeline.train(manifest, hyper, self.scale.arch).best, path)
        self.ckpt = pipeline.load_checkpoint(path)
        self.mixtures = [(dsp.read_wav(r.mixture_path),
                          [dsp.read_wav(p).samples for p in r.source_paths])
                         for r in split(manifest, "test")]
        # Whole passes over the test split: per-mixture times vary 2-3x with
        # the mixture, so a partial pass would make the run's figure depend
        # on how far it got.
        self.min_ops = self.pass_ops = len(self.mixtures)

    def op(self, i: int) -> dict:
        k = i % len(self.mixtures)
        mix, _ = self.mixtures[k]
        sample = {"audio_s": len(ALGOS) * mix.duration}
        for algo in (ALGOS if i % 2 == 0 else ALGOS[::-1]):
            started = time.perf_counter()
            ests = pipeline.separate(mix, self.ckpt, 2, algo=algo)
            sample[algo] = time.perf_counter() - started
            if len(ests) != 2 or any(e.samples.shape != mix.samples.shape
                                     or not np.all(np.isfinite(e.samples)) for e in ests):
                raise CheckFailed(f"mixture {k} {algo}: outputs are not two finite "
                                  f"waveforms of {mix.samples.size} samples")
            if k < self.scale.scored:
                kept = self.outputs.setdefault(k, {}).setdefault(algo, [e.samples for e in ests])
                if not all(np.array_equal(a, e.samples) for a, e in zip(kept, ests)):
                    raise CheckFailed(f"mixture {k} {algo}: a second separation differs")
        sample["wall"] = sum(sample[a] for a in ALGOS)
        return sample

    def finish(self) -> list[tuple[bool, str]]:
        """Score the leading mixtures against their references and against
        the unprocessed mixture, outside every timed region."""
        self.sdr = {algo: [] for algo in ALGOS}
        self.floor = []
        leading = range(min(self.scale.scored, len(self.mixtures)))
        missing = [k for k in leading if set(self.outputs.get(k, {})) != set(ALGOS)]
        if missing:
            return [(False, f"mixtures {missing} were not separated by both algorithms")]
        for k in leading:
            mix, refs = self.mixtures[k]
            for algo in ALGOS:
                metrics = bsseval.resolve_permutation(self.outputs[k][algo], refs)
                self.sdr[algo].append(float(np.mean(metrics.sdr)))
            self.floor.append(float(np.mean(
                bsseval.resolve_permutation([mix.samples, mix.samples], refs).sdr)))
        floor = statistics.mean(self.floor)
        return [(statistics.mean(self.sdr[a]) >= floor + SEP_MARGIN_DB,
                 f"{a}: mean SDR {statistics.mean(self.sdr[a]):.2f} dB must clear the "
                 f"mixture's {floor:.2f} dB by {SEP_MARGIN_DB} dB") for a in ALGOS]

    def report(self, samples: list[dict]):
        named = []
        for algo in ALGOS:
            ms = [1e3 * s[algo] for s in samples]
            named.append((f"sep_{algo}_ms_p50", statistics.median(ms), "ms", f"n={len(ms)}"))
            value, note = _tail_note(ms)
            named.append((f"sep_{algo}_ms_tail", value, "ms", note))
        rtf = sum(s["wall"] for s in samples) / sum(s["audio_s"] for s in samples)
        named.append(("sep_rtf", rtf, "s/s", "separation wall time / audio seconds separated"))
        scored = f"mean over the first {len(self.floor)} test mixtures"
        named += [(f"sdr_{algo}_db", _mean(self.sdr[algo]), "dB", scored) for algo in ALGOS]
        named.append(("sdr_mixture_db", _mean(self.floor), "dB", "unprocessed mixture, " + scored))
        return named, rtf


class EvalOracle(Workload):
    """bsseval.evaluate_set(algo="oracle_wfm") over the test split: BSS-eval,
    STFT/ISTFT, WAV reads and masking, with no network and no clustering."""

    def setup(self, manifest: Path, work: Path) -> None:
        self.manifest, self.csv = manifest, work / "oracle.csv"
        records = split(manifest, "test")
        self.count = len(records)
        self.audio_s = sum(r.duration for r in records)

    def _evaluate(self) -> dict:
        return bsseval.evaluate_set(self.manifest, None, "oracle_wfm", bsseval.EvalConfig(),
                                    self.csv)

    def warm_up(self) -> None:
        """The first pass in a process is slower; it is also the reference."""
        self.reference = self._evaluate()

    def op(self, i: int) -> dict:
        started = time.perf_counter()
        summary = self._evaluate()
        wall = time.perf_counter() - started
        if summary["count"] != self.count:
            raise CheckFailed(f"scored {summary['count']} of {self.count} mixtures")
        if not summary["sdr"] >= ORACLE_MIN_DB:
            raise CheckFailed(f"oracle SDR {summary['sdr']!r} dB < {ORACLE_MIN_DB} dB")
        if summary != self.reference:
            raise CheckFailed(f"two evaluations differ: {summary} vs {self.reference}")
        return {"wall": wall, "audio_s": self.audio_s, "sdr": summary["sdr"]}

    def report(self, samples: list[dict]):
        per_mix = statistics.median(s["wall"] for s in samples) / self.count
        sdr = samples[0]["sdr"]
        named = [("eval_s_per_mix", per_mix, "s",
                  f"median of {len(samples)} passes over {self.count} mixtures"),
                 ("sdr_oracle_db", sdr, "dB", f"mean over {self.count} test mixtures")]
        return named, sum(s["wall"] for s in samples) / sum(s["audio_s"] for s in samples)


WORKLOADS = {"train": Train, "separate": Separate, "eval_oracle": EvalOracle}

E2E_UNITS = {"setup_s": "s", "rtf": "s/s", "peak_rss_mb": "MB"}


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, where numpy bundles an OpenBLAS."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int, scale: Scale) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    arch = scale.arch
    return {
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}", "blas_threads": blas_threads(),
        "arch": f"{arch.num_layers}x{arch.hidden_per_direction} BGRU, K={arch.embed_dim}",
        "B": pipeline.HyperParams().batch_size, "F": arch.input_dim,
        "T_padded": dsp.StftConfig().num_frames(round(scale.utt_s * dsp.SAMPLE_RATE)),
        "dtype": "float64", "seed": seed,
    }


def _traced(tracer: Tracer | None, run_id: str):
    return contextlib.nullcontext() if tracer is None else tracer.installed(run_id)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = DESK,
        out: Path = OUT, say=print) -> dict:
    """Run one workload and return the result object printed last."""
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        return _run(workload, seed, seconds, trace, scale, out, say, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, scale, out, say, work) -> dict:
    say("env " + json.dumps(environment(seed, scale)))
    tracer = Tracer(layers.patches()) if trace else None
    bench = WORKLOADS[workload](seed, scale)
    try:
        with _traced(tracer, "setup"):
            corpus_s = []
            for i in range(scale.setup_repeats):
                started = time.perf_counter()
                manifest = build_corpus(work / f"setup{i}", seed, scale)
                corpus_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            bench.setup(manifest, work)
            own_s = time.perf_counter() - started
        bench.warm_up()
    except Exception:   # a failed set-up, such as build_dataset refusing the seed
        say("set-up failed:\n" + traceback.format_exc())
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    samples = {None: [], "traced": []}
    errors: list[str] = []
    attempted = 0
    started = time.perf_counter()
    i = 0
    while (i < bench.min_ops or i % bench.pass_ops
           or time.perf_counter() - started < seconds):
        modes = [None] if tracer is None else [None, "traced"] if i % 2 == 0 else ["traced", None]
        for mode in modes:
            attempted += 1
            try:
                with _traced(tracer if mode else None, f"op{i}"):
                    samples[mode].append(bench.op(i))
            except CheckFailed as exc:
                errors.append(f"op {i}: {exc}")
            except Exception:
                errors.append(f"op {i}:\n{traceback.format_exc()}")
        i += 1
    try:
        checks = bench.finish()
    except Exception:
        checks = [(False, "end-of-run checks:\n" + traceback.format_exc())]
    attempted += len(checks)
    errors += [message for ok, message in checks if not ok]
    for message in errors:
        say("FAILED " + message)
    if not samples[None] or (tracer is not None and not samples["traced"]):
        return {"correct": False, "attempted": attempted, "failed": len(errors), "metrics": {}}

    named, rtf = bench.report(samples[None])
    e2e = {"setup_s": statistics.median(corpus_s) + own_s, "rtf": rtf,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    named = ([("setup_s", e2e["setup_s"], "s",
               f"median of corpus builds {[round(s, 3) for s in corpus_s]} "
               f"+ {own_s:.3f} s of the workload's own set-up"),
              ("rtf", rtf, "s/s", "wall time of the timed calls / audio seconds they processed"),
              ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "whole process"),
              ("fail_ratio", len(errors) / attempted, "ratio",
               f"{len(errors)} failed of {attempted} attempted")]
             + named)
    say(f"workload {workload}: {len(samples[None])} untraced operations in "
        f"{time.perf_counter() - started:.1f} s")
    for name, value, unit, note in named:
        say(f"metric {name} = {value!r} {unit}  ({note})")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        def rtf_of(group):
            return sum(s["wall"] for s in group) / sum(s["audio_s"] for s in group)
        overhead = 100.0 * (rtf_of(samples["traced"]) / rtf_of(samples[None]) - 1.0)
        per_layer, notes = layers.layer_metrics(tracer, overhead)
        for note in notes:
            say("base " + note)
        for name, value in per_layer.items():
            say(f"layer {name} = {value!r}")
        out.mkdir(parents=True, exist_ok=True)
        spans_path = out / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        say(f"spans: {len(tracer.spans)} written to {spans_path}")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in layers.METRICS}
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
