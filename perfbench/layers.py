"""Where spans are recorded in danet, and the per-layer metrics made from them.

Functions are wrapped where their callers look them up: `danet.pipeline`
imports most of them into its own namespace, `bsseval.evaluate_set` and
`corpus.build_dataset` import theirs from `danet.dsp`/`danet.masking` at
call time, and `gmm_fit` calls `danet.clustering.kmeans` by its global name.
"""

import statistics

from danet import bsseval, clustering, corpus, dsp, masking, pipeline

from tracing import Patch, Tracer


def _clip(args, kwargs, norm):
    max_norm = kwargs["max_norm"] if "max_norm" in kwargs else args[1]
    return {"norm": norm, "clipped": norm > max_norm}


def _em(args, kwargs, model):
    iters = len(model.ll_history)
    max_iter = kwargs.get("max_iter", args[2] if len(args) > 2 else clustering.EM_MAX_ITER)
    tol = kwargs.get("tol", args[3] if len(args) > 3 else clustering.EM_TOL)
    converged = iters >= 2 and model.ll_history[-1] - model.ll_history[-2] < tol
    return {"em_iters": iters, "em_capped": iters >= max_iter and not converged}


def _lloyd(args, kwargs, result):
    return {"iters": len(result.inertia_history)}


def _points(args, kwargs, attractors):
    V = kwargs["V"] if "V" in kwargs else args[0]
    return {"points": V.shape[1]}


def _wav_bytes(args, kwargs, wave):
    return {"bytes": 2 * wave.samples.size}


def _epoch_seconds(args, kwargs, result):
    return {"epoch_s": sum(r.seconds for r in result.log.rows)}


def patches() -> list[Patch]:
    """Every traced function, once per namespace its callers use."""
    out = [
        Patch(pipeline, "batch_loss_and_grads", "network.batch_loss_and_grads"),
        Patch(pipeline, "batch_loss", "network.batch_loss"),
        Patch(pipeline, "clip_grads", "network.clip_grads", _clip),
        Patch(pipeline, "forward_embed", "network.forward_embed"),
        Patch(pipeline, "estimate_masks", "network.estimate_masks"),
        Patch(pipeline, "adam_step", "pipeline.adam_step"),
        Patch(pipeline, "train", "pipeline.train", _epoch_seconds),
        Patch(pipeline, "separate", "pipeline.separate"),
        Patch(pipeline, "load_checkpoint", "pipeline.load_checkpoint"),
        Patch(pipeline, "cluster_attractors", "clustering.cluster_attractors", _points),
        Patch(clustering, "gmm_fit", "clustering.gmm_fit", _em),
        Patch(clustering, "kmeans", "clustering.kmeans", _lloyd),
        Patch(bsseval, "evaluate_set", "bsseval.evaluate_set"),
        Patch(bsseval, "resolve_permutation", "bsseval.resolve_permutation"),
        Patch(corpus, "synth_corpus", "corpus.synth_corpus"),
        Patch(corpus, "build_dataset", "corpus.build_dataset"),
        Patch(corpus, "load_manifest", "corpus.load_manifest"),
    ]
    for module in (pipeline, dsp):
        out += [Patch(module, "stft", "dsp.stft"),
                Patch(module, "istft", "dsp.istft"),
                Patch(module, "read_wav", "dsp.read_wav", _wav_bytes),
                Patch(module, "log_features", "dsp.log_features")]
    for module in (pipeline, masking):
        out += [Patch(module, name, f"masking.{name}")
                for name in ("wiener_like_masks", "binarize", "apply_mask")]
    return out


# Spans of these layers are counted from set-up too: their work is set-up.
SETUP_LAYERS = ("corpus.", "pipeline.load_checkpoint")

# (metric, unit, better) in the order they are reported.
METRICS = [
    ("network.batch_loss_and_grads.calls", "count", "higher"),
    ("network.batch_loss_and_grads.busy_s", "s", "lower"),
    ("network.batch_loss_and_grads.ms_p50", "ms", "lower"),
    ("network.batch_loss_and_grads.ms_tail", "ms", "lower"),
    ("network.batch_loss.busy_s", "s", "lower"),
    ("network.clip_grads.clip_ratio", "ratio", "lower"),
    ("network.clip_grads.norm_p50", "1", "lower"),
    ("network.forward_embed.calls", "count", "higher"),
    ("network.forward_embed.busy_s", "s", "lower"),
    ("network.forward_embed.ms_p50", "ms", "lower"),
    ("network.estimate_masks.busy_s", "s", "lower"),
    ("pipeline.adam_step.calls", "count", "higher"),
    ("pipeline.adam_step.busy_s", "s", "lower"),
    ("pipeline.train.load_s", "s", "lower"),
    ("pipeline.separate.self_s", "s", "lower"),
    ("pipeline.load_checkpoint.s", "s", "lower"),
    ("clustering.gmm_fit.calls", "count", "higher"),
    ("clustering.gmm_fit.busy_s", "s", "lower"),
    ("clustering.gmm_fit.ms_p50", "ms", "lower"),
    ("clustering.gmm_fit.ms_tail", "ms", "lower"),
    ("clustering.gmm_fit.em_iters_p50", "count", "lower"),
    ("clustering.gmm_fit.em_capped_ratio", "ratio", "lower"),
    ("clustering.kmeans.calls", "count", "higher"),
    ("clustering.kmeans.busy_s", "s", "lower"),
    ("clustering.kmeans.ms_p50", "ms", "lower"),
    ("clustering.kmeans.best_iters_p50", "count", "lower"),
    ("clustering.cluster_attractors.busy_s", "s", "lower"),
    ("clustering.points_per_fit", "count", "lower"),
    ("bsseval.resolve_permutation.calls", "count", "higher"),
    ("bsseval.resolve_permutation.busy_s", "s", "lower"),
    ("bsseval.resolve_permutation.ms_p50", "ms", "lower"),
    ("bsseval.evaluate_set.self_s", "s", "lower"),
    ("bsseval.warnings", "count", "lower"),
    ("dsp.stft.calls", "count", "higher"),
    ("dsp.stft.busy_s", "s", "lower"),
    ("dsp.istft.calls", "count", "higher"),
    ("dsp.istft.busy_s", "s", "lower"),
    ("dsp.read_wav.calls", "count", "higher"),
    ("dsp.read_wav.busy_s", "s", "lower"),
    ("dsp.read_wav.bytes", "B", "lower"),
    ("dsp.log_features.busy_s", "s", "lower"),
    ("masking.wiener_like_masks.busy_s", "s", "lower"),
    ("masking.binarize.busy_s", "s", "lower"),
    ("masking.apply_mask.busy_s", "s", "lower"),
    ("corpus.synth_corpus.s", "s", "lower"),
    ("corpus.build_dataset.s", "s", "lower"),
    ("corpus.load_manifest.busy_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def tail(values: list[float]) -> tuple[float | None, float | None, int]:
    """(value, percentile, n) at the highest percentile that has at least
    ten samples beyond it; value and percentile are None below 11 samples."""
    n = len(values)
    if n < 11:
        return None, None, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, overhead_pct: float) -> tuple[dict, list[str]]:
    """Per-layer metric values plus human-readable notes (bases, tails).

    Only spans of traced measured operations count, except for SETUP_LAYERS.
    Sums (`calls`, `busy_s`, `self_s`, `bytes`) cover the whole traced window;
    `.s` and `load_s` are medians per call. A layer that did not run reads 0.
    """
    own = tracer.self_seconds()
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        if s.run != "setup" or s.name.startswith(SETUP_LAYERS):
            by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def notes(name, key):
        return [s.notes[key] for s in spans(name)]

    def ratio(flags, what):
        lines.append(f"{what}: {sum(flags)}/{len(flags)}")
        return sum(flags) / len(flags) if flags else 0.0

    def tail_ms(layer):
        value, pct, n = tail([1e3 * s.seconds for s in spans(layer)])
        lines.append(f"{layer}.ms_tail: " + (f"p{pct:.1f} of n={n}" if value is not None
                                             else f"n/a, n={n} < 11 (reported as 0)"))
        return 0.0 if value is None else value

    by_kind = {
        "calls": lambda layer: len(spans(layer)),
        "busy_s": lambda layer: sum(s.seconds for s in spans(layer)),
        "self_s": lambda layer: sum(own[s.id] for s in spans(layer)),
        "s": lambda layer: _median([s.seconds for s in spans(layer)]),
        "ms_p50": lambda layer: _median([1e3 * s.seconds for s in spans(layer)]),
        "ms_tail": tail_ms,
    }
    lines: list[str] = []
    values = {
        "network.clip_grads.clip_ratio": ratio(notes("network.clip_grads", "clipped"),
                                               "network.clip_grads: calls clipped"),
        "network.clip_grads.norm_p50": _median(notes("network.clip_grads", "norm")),
        "pipeline.train.load_s": _median([s.seconds - s.notes["epoch_s"]
                                          for s in spans("pipeline.train")]),
        "clustering.gmm_fit.em_iters_p50": _median(notes("clustering.gmm_fit", "em_iters")),
        "clustering.gmm_fit.em_capped_ratio": ratio(
            notes("clustering.gmm_fit", "em_capped"),
            f"clustering.gmm_fit: fits at the {clustering.EM_MAX_ITER}-iteration cap"),
        "clustering.kmeans.best_iters_p50": _median(notes("clustering.kmeans", "iters")),
        "clustering.points_per_fit": _median(notes("clustering.cluster_attractors", "points")),
        "bsseval.warnings": sum(run != "setup" and path.endswith("bsseval.py")
                                for run, path in tracer.warnings),
        "dsp.read_wav.bytes": sum(notes("dsp.read_wav", "bytes")),
        "trace.overhead_pct": overhead_pct,
    }
    for name, _, _ in METRICS:
        if name not in values:
            layer, _, kind = name.rpartition(".")
            values[name] = by_kind[kind](layer)
    return {name: float(values[name]) for name, _, _ in METRICS}, lines
