"""Training-loop machinery tests: Adam, LR schedule, checkpoints, separation."""

import gc
import os
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from danet import pipeline
from danet.corpus import DatasetRecipe, build_dataset, load_manifest, synth_corpus
from danet.dsp import StftConfig, Waveform, feature_stats, log_features
from danet.network import TINY_NET, ArchSpec, init_params
from danet.pipeline import (
    AdamState,
    Checkpoint,
    HyperParams,
    TrainLog,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    separate,
    train,
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A very small corpus/manifest pair for fast training tests."""
    root = tmp_path_factory.mktemp("tinydata")
    table = synth_corpus(root / "corpus", n_speakers=4, utts_per_speaker=4,
                         dur=1.0, seed=1)
    build_dataset(table, DatasetRecipe(train_s=6.0, valid_s=2.0, test_s=2.0, seed=1),
                  root / "mix")
    return root / "mix" / "manifest.jsonl"


TINY_ARCH = ArchSpec(input_dim=129, num_layers=1, hidden_per_direction=8, embed_dim=4)


def tiny_hyper(**kw):
    base = dict(epochs=2, batch_size=4, seed=7)
    base.update(kw)
    return HyperParams(**base)


class TestAdam:
    def make(self, shape=(3, 2), seed=90):
        arch = ArchSpec(input_dim=2, num_layers=1, hidden_per_direction=2, embed_dim=1)
        params = init_params(arch, seed)
        return params, AdamState.zeros(params)

    def test_zero_gradients_change_nothing(self):
        params, state = self.make()
        before = {k: v.copy() for k, v in params.tensors.items()}
        adam_step(params, {k: np.zeros_like(v) for k, v in params.tensors.items()},
                  state, lr=0.1)
        for name in before:
            assert np.array_equal(params.tensors[name], before[name])
            assert np.all(state.m[name] == 0) and np.all(state.v[name] == 0)
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        params, state = self.make()
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.full_like(v, 3.7) for k, v in params.tensors.items()}
        adam_step(params, grads, state, lr=0.01)
        for name in before:
            delta = params.tensors[name] - before[name]
            assert np.allclose(delta, -0.01, rtol=1e-6)

    def test_two_steps_match_scalar_oracle(self):
        # Hand-rolled scalar Adam on f(x) = x^2 / 2 (gradient x).
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x = 1.0
        m = v = 0.0
        trace = []
        for t in (1, 2):
            g = x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            trace.append(x)

        arch = ArchSpec(input_dim=1, num_layers=1, hidden_per_direction=1, embed_dim=1)
        params = init_params(arch, 0)
        bias = params.tensors["fc.b"]
        bias[:] = 1.0
        state = AdamState.zeros(params)
        zeros = {k: np.zeros_like(t) for k, t in params.tensors.items()}
        for t in (0, 1):
            grads = dict(zeros)
            grads["fc.b"] = bias.copy()  # gradient of x^2/2
            adam_step(params, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            assert bias[0] == pytest.approx(trace[t], abs=1e-12)

    def test_three_steps_equal_textbook_expression_bitwise(self):
        lr, b1, b2, eps = 3e-3, 0.8, 0.99, 1e-6
        params, state = self.make(seed=91)
        rng = np.random.default_rng(91)
        ref_p = {k: v.copy() for k, v in params.tensors.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref_p.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref_p.items()}
        for t in (1, 2, 3):
            grads = {k: rng.normal(size=v.shape) for k, v in ref_p.items()}
            for k, g in grads.items():
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g * g
                ref_p[k] = ref_p[k] - lr * (ref_m[k] / (1.0 - b1 ** t)) / (
                    np.sqrt(ref_v[k] / (1.0 - b2 ** t)) + eps)
            adam_step(params, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            for k in ref_p:
                assert np.array_equal(state.m[k], ref_m[k])
                assert np.array_equal(state.v[k], ref_v[k])
                assert np.array_equal(params.tensors[k], ref_p[k])

    def test_non_finite_gradient_rejected(self):
        params, state = self.make()
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["fc.b"][0] = np.nan
        with pytest.raises(FloatingPointError):
            adam_step(params, grads, state, lr=0.1)


class TestHyperParams:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("grad_clip", -1.0), ("grad_clip", 0.0),
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("eps", 0.0),
    ])
    def test_bad_value_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            HyperParams(**{field: value})

    def test_edge_values_accepted(self):
        HyperParams(batch_size=1, grad_clip=1e-9, beta1=0.0, beta2=0.0, eps=1e-300)


class TestLrSchedule:
    """Checkpoint.end_epoch halves the rate on validation plateaus."""

    def schedule(self, lr0, patience, lr_min):
        params = init_params(TINY_ARCH, 0)
        ckpt = Checkpoint(params, AdamState.zeros(params), StftConfig(), 8000, epoch=0,
                          lr=lr0, best_val_loss=np.inf)
        return ckpt, HyperParams(lr0=lr0, lr_halve_patience=patience, lr_min=lr_min)

    def test_flat_losses_halve_after_patience(self):
        sched, hyper = self.schedule(1e-3, patience=3, lr_min=1e-6)
        lrs = []
        for epoch, loss in enumerate([5.0, 5.0, 5.0, 5.0], 1):
            sched.end_epoch(epoch, loss, hyper)
            lrs.append(sched.lr)
        assert lrs == [1e-3, 1e-3, 1e-3, 5e-4]

    def test_improvement_resets_counter(self):
        sched, hyper = self.schedule(1e-3, patience=2, lr_min=1e-6)
        for epoch, loss in enumerate([5.0, 4.0, 4.0, 3.0, 3.0], 1):
            sched.end_epoch(epoch, loss, hyper)
        assert sched.lr == 1e-3

    def test_never_below_min_and_never_increases(self):
        sched, hyper = self.schedule(1e-3, patience=1, lr_min=1e-4)
        history = []
        for epoch in range(1, 21):
            sched.end_epoch(epoch, 9.9, hyper)
            history.append(sched.lr)
        assert history == sorted(history, reverse=True)
        assert history[-1] == 1e-4

    def test_end_epoch_records_the_epoch_and_reports_a_new_best(self):
        sched, hyper = self.schedule(1e-3, patience=2, lr_min=1e-6)
        assert [sched.end_epoch(e, loss, hyper)
                for e, loss in enumerate([5.0, 6.0, 4.0], 1)] == [True, False, True]
        assert (sched.epoch, sched.best_val_loss, sched.epochs_since_best) == (3, 4.0, 0)


class TestCheckpointIO:
    def fresh(self, seed=3):
        params = init_params(TINY_ARCH, seed)
        params.feat_mean = np.random.default_rng(seed).normal(size=129)
        params.feat_std = np.random.default_rng(seed + 1).uniform(0.5, 2.0, size=129)
        adam = AdamState.zeros(params)
        adam.t = 17
        for k in adam.m:
            adam.m[k] += 0.25
        return Checkpoint(params=params, adam=adam, stft_cfg=StftConfig(),
                          sample_rate=8000, epoch=9, best_val_loss=123.456,
                          lr=2.5e-4, epochs_since_best=2)

    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = self.fresh()
        save_checkpoint(ckpt, tmp_path / "c.danc")
        back = load_checkpoint(tmp_path / "c.danc")
        assert back.arch == ckpt.arch
        assert back.stft_cfg == ckpt.stft_cfg
        assert back.epoch == 9 and back.adam.t == 17
        assert back.lr == ckpt.lr and back.best_val_loss == ckpt.best_val_loss
        assert back.epochs_since_best == 2
        for name in ckpt.params.tensors:
            assert np.array_equal(back.params.tensors[name], ckpt.params.tensors[name])
            assert np.array_equal(back.adam.m[name], ckpt.adam.m[name])
            assert np.array_equal(back.adam.v[name], ckpt.adam.v[name])
        assert np.array_equal(back.params.feat_mean, ckpt.params.feat_mean)
        assert np.array_equal(back.params.feat_std, ckpt.params.feat_std)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match=r"c\.danc: 8 trailing bytes"):
            load_checkpoint(path)

    def test_every_truncation_rejected_with_path(self, tmp_path):
        params = init_params(TINY_NET, 0)
        params.feat_mean, params.feat_std = np.zeros(5), np.ones(5)
        full = tmp_path / "full.danc"
        save_checkpoint(Checkpoint(params=params, adam=AdamState.zeros(params),
                                   stft_cfg=StftConfig(win_len=8, hop=2, fft_size=8),
                                   sample_rate=8000, epoch=1, best_val_loss=1.0, lr=1e-3),
                        full)
        blob = full.read_bytes()
        path = tmp_path / "cut.danc"
        path.write_bytes(blob)
        for n in reversed(range(len(blob))):
            os.truncate(path, n)
            with pytest.raises(ValueError, match=r"cut\.danc: "):
                load_checkpoint(path)

    def test_header_text_is_pinned(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        assert blob[12:12 + header_len].decode() == (
            "arch.input_dim=129\n"
            "arch.num_layers=1\n"
            "arch.hidden_per_direction=8\n"
            "arch.embed_dim=4\n"
            "arch.cell_kind=gru\n"
            "stft.win_len=256\n"
            "stft.hop=64\n"
            "stft.fft_size=256\n"
            "sample_rate=8000\n"
            "epoch=9\n"
            "lr=0.00025\n"
            "best_val_loss=123.456\n"
            "epochs_since_best=2\n"
            "adam_t=17\n")

    def edit_header(self, path, old: bytes, new: bytes):
        """Replace text in a saved checkpoint's header, fixing its length."""
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = blob[12:12 + header_len]
        assert old in header
        header = header.replace(old, new)
        path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header
                         + blob[12 + header_len:])

    def test_missing_header_key_named(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        self.edit_header(path, b"stft.hop=64\n", b"")
        with pytest.raises(ValueError, match=r"c\.danc: checkpoint header lacks stft\.hop"):
            load_checkpoint(path)

    def test_unparseable_header_value_named(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        self.edit_header(path, b"epoch=9\n", b"epoch=nine\n")
        with pytest.raises(ValueError, match=r"c\.danc: bad checkpoint header value epoch="):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, reason", [
        (b"arch.cell_kind=gru\n", b"arch.cell_kind=lstm\n", "only GRU cells are trainable"),
        (b"arch.num_layers=1\n", b"arch.num_layers=0\n", "non-positive architecture dimension"),
        (b"stft.hop=64\n", b"stft.hop=100\n", "hop must divide win_len"),
    ], ids=["cell_kind", "num_layers", "hop"])
    def test_unloadable_header_value_names_path(self, tmp_path, old, new, reason):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        self.edit_header(path, old, new)
        with pytest.raises(ValueError, match=rf"c\.danc: {reason}"):
            load_checkpoint(path)

    def test_header_length_past_end_rejected(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = len(blob).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"c\.danc: header length .* past the end"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.danc"
        save_checkpoint(self.fresh(seed=3), path)
        before = path.read_bytes()

        def failing_stream(ckpt):
            yield ckpt.params.feat_mean
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "_tensor_stream", failing_stream)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(self.fresh(seed=4), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.danc"]

    def test_load_holds_one_copy_of_the_file(self, tmp_path):
        # Each tensor is read into its own array: no whole-file buffer on top.
        params = init_params(ArchSpec(input_dim=129, num_layers=2, hidden_per_direction=64,
                                      embed_dim=10), 0)
        path = tmp_path / "desk.danc"
        save_checkpoint(Checkpoint(params=params, adam=AdamState.zeros(params),
                                   stft_cfg=StftConfig(), sample_rate=8000, epoch=1,
                                   best_val_loss=1.0, lr=1e-3), path)
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * path.stat().st_size, (peak, path.stat().st_size)
        for name in params.tensors:
            assert np.array_equal(back.params.tensors[name], params.tensors[name])

    def test_file_shrinking_during_the_load_named(self, tmp_path, monkeypatch):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        real_stream = pipeline._tensor_stream

        def stream_then_shrink(ckpt):
            os.truncate(path, 100)
            return real_stream(ckpt)

        monkeypatch.setattr(pipeline, "_tensor_stream", stream_then_shrink)
        with pytest.raises(ValueError, match=r"c\.danc: truncated checkpoint \(the file shrank"):
            load_checkpoint(path)

    def test_input_dim_other_than_the_stft_bins_refused_with_path(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        blob = path.read_bytes()
        assert blob.count(b"stft.fft_size=256\n") == 1
        path.write_bytes(blob.replace(b"stft.fft_size=256\n", b"stft.fft_size=512\n"))
        with pytest.raises(ValueError,
                           match=r"c\.danc: arch\.input_dim=129 .*num_freqs=257"):
            load_checkpoint(path)

    def test_checkpoint_refuses_input_dim_other_than_the_stft_bins(self):
        params = init_params(TINY_ARCH, 0)
        with pytest.raises(ValueError, match=r"arch\.input_dim=129 .*num_freqs=257"):
            Checkpoint(params, AdamState.zeros(params), StftConfig(fft_size=512), 8000,
                       epoch=0, lr=1e-3, best_val_loss=np.inf)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "c.danc"
        save_checkpoint(self.fresh(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestTrain:
    def test_fixed_seed_reproduces_log_bitwise(self, tiny_dataset):
        a = train(tiny_dataset, tiny_hyper(), TINY_ARCH)
        b = train(tiny_dataset, tiny_hyper(), TINY_ARCH)
        assert a.log.deterministic_rows() == b.log.deterministic_rows()
        for name in a.best.params.tensors:
            assert np.array_equal(a.best.params.tensors[name],
                                  b.best.params.tensors[name])

    def test_resume_equals_uninterrupted(self, tiny_dataset):
        full = train(tiny_dataset, tiny_hyper(epochs=3), TINY_ARCH)
        part = train(tiny_dataset, tiny_hyper(epochs=2), TINY_ARCH)
        resumed = train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH,
                        resume_from=part.last)
        assert resumed.log.rows[-1].epoch == 3
        assert full.log.deterministic_rows()[-1] == resumed.log.deterministic_rows()[-1]
        for name in full.last.params.tensors:
            assert np.array_equal(full.last.params.tensors[name],
                                  resumed.last.params.tensors[name])
            assert np.array_equal(full.last.adam.m[name], resumed.last.adam.m[name])
            assert np.array_equal(full.last.adam.v[name], resumed.last.adam.v[name])

    def test_resume_leaves_its_checkpoint_unchanged(self, tiny_dataset, tmp_path):
        # The saved bytes hold the parameters, the Adam moments, epoch and lr.
        part = train(tiny_dataset, tiny_hyper(epochs=2), TINY_ARCH).last
        save_checkpoint(part, tmp_path / "before.danc")
        resumed = train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH, resume_from=part)
        save_checkpoint(part, tmp_path / "after.danc")
        assert (part.epoch, resumed.last.epoch) == (2, 3)
        assert (tmp_path / "after.danc").read_bytes() == (tmp_path / "before.danc").read_bytes()

    def test_resume_via_saved_checkpoint(self, tiny_dataset, tmp_path):
        part = train(tiny_dataset, tiny_hyper(epochs=2), TINY_ARCH)
        save_checkpoint(part.last, tmp_path / "last.danc")
        resumed = train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH,
                        resume_from=load_checkpoint(tmp_path / "last.danc"))
        direct = train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH,
                       resume_from=part.last)
        for name in direct.last.params.tensors:
            assert np.array_equal(direct.last.params.tensors[name],
                                  resumed.last.params.tensors[name])

    def test_resume_at_another_stft_geometry_refused_before_reading(self, tiny_dataset,
                                                                   monkeypatch):
        part = train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH, StftConfig(hop=32))
        monkeypatch.setattr(pipeline, "read_wav",
                            lambda path: pytest.fail(f"read {path} before refusing"))
        with pytest.raises(ValueError, match=r"geometry .*hop=32.* != .*hop=64"):
            train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH, resume_from=part.last)

    def test_input_dim_other_than_the_stft_bins_refused_before_reading(self, tiny_dataset,
                                                                        monkeypatch):
        monkeypatch.setattr(pipeline, "read_wav",
                            lambda path: pytest.fail(f"read {path} before refusing"))
        with pytest.raises(ValueError, match=r"arch\.input_dim=129 .*num_freqs=257"):
            train(tiny_dataset, tiny_hyper(), TINY_ARCH, StftConfig(fft_size=512))

    def test_split_masks_are_bool_and_train_as_float_ones_do(self, tiny_dataset):
        import danet.corpus as corpus_mod
        from danet.network import batch_loss_and_grads

        records = [r for r in corpus_mod.load_manifest(tiny_dataset) if r.split == "train"]
        mags, masks = zip(*pipeline._load_split(records[:4], StftConfig()))
        features = [log_features(m) for m in mags]
        assert all(m.dtype == np.bool_ for ms in masks for m in ms)
        as_float = [[m.astype(np.float64) for m in ms] for ms in masks]
        params = init_params(TINY_ARCH, 7)
        loss, grads = batch_loss_and_grads(features, mags, masks, params)
        loss_f, grads_f = batch_loss_and_grads(features, mags, as_float, params)
        assert loss == loss_f
        for name in grads_f:
            assert np.array_equal(grads[name], grads_f[name]), name

    def test_split_utterance_holds_only_its_magnitude_and_bool_masks(self, tiny_dataset):
        import danet.corpus as corpus_mod

        records = [r for r in corpus_mod.load_manifest(tiny_dataset) if r.split == "valid"]
        for utt in pipeline._load_split(records, StftConfig()):
            assert utt._fields == ("mix_mag", "masks")
            assert utt.mix_mag.dtype == np.float64 and utt.mix_mag.shape[0] == 129
            assert all(m.dtype == np.bool_ and m.shape == utt.mix_mag.shape
                       for m in utt.masks)

    def test_feature_statistics_equal_those_of_the_stacked_log_features(self, tiny_dataset,
                                                                       monkeypatch):
        # train() pools the log features of its magnitudes one at a time; for
        # utterances of mixed lengths the statistics must equal feature_stats
        # of the whole list, and the np.concatenate reduction that defined
        # them, bit for bit.
        loaded = []

        def mixed_lengths(records, cfg):
            utts = [pipeline._Utterance(u.mix_mag[:, :128 - 9 * i],
                                        [m[:, :128 - 9 * i] for m in u.masks])
                    for i, u in enumerate(real_load(records, cfg))]
            loaded.append(utts)
            return utts

        real_load = pipeline._load_split
        monkeypatch.setattr(pipeline, "_load_split", mixed_lengths)
        params = train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH).last.params
        feats = [log_features(u.mix_mag) for u in loaded[0]]
        assert len({f.shape[1] for f in feats}) == len(feats) > 1
        stacked = np.concatenate(feats, axis=1)
        mean, std = feature_stats(feats)
        assert mean.tobytes() == stacked.mean(axis=1).tobytes()
        assert std.tobytes() == stacked.std(axis=1).tobytes()
        assert params.feat_mean.tobytes() == mean.tobytes()
        assert params.feat_std.tobytes() == std.tobytes()

    def test_single_utterance_overfit(self, tiny_dataset):
        # Toy net driven hard on one short mixture: loss collapses below 1%
        # of its first-epoch value within 200 epochs.
        import danet.corpus as corpus_mod

        from danet.dsp import log_features, magnitude, read_wav, stft
        from danet.masking import binarize, wiener_like_masks
        from danet.network import batch_loss_and_grads, init_params
        from danet.pipeline import AdamState, adam_step

        rec = [r for r in corpus_mod.load_manifest(tiny_dataset)
               if r.split == "train"][0]
        crop = lambda w: Waveform(w.samples[:4000], w.sample_rate)
        spec = stft(crop(read_wav(rec.mixture_path)))
        mag = magnitude(spec)
        masks = [binarize(m) for m in wiener_like_masks(
            [magnitude(stft(crop(read_wav(p)))) for p in rec.source_paths])]
        feats = log_features(mag)
        feats = (feats - feats.mean(axis=1)[:, None]) / \
            np.maximum(feats.std(axis=1)[:, None], 1e-8)

        arch = ArchSpec(input_dim=129, num_layers=1, hidden_per_direction=16, embed_dim=6)
        params = init_params(arch, 5)
        state = AdamState.zeros(params)
        first = None
        for step in range(200):
            loss, grads = batch_loss_and_grads([feats], [mag], [masks], params)
            if first is None:
                first = loss
            adam_step(params, grads, state, lr=2e-3)
        assert loss < 0.01 * first

    def test_wrong_sample_rate_rejected_before_training(self, tmp_path):
        from danet.corpus import scan_corpus
        from danet.dsp import read_pcm16, write_pcm16

        synth_corpus(tmp_path / "corpus", n_speakers=4, utts_per_speaker=4, dur=2.0, seed=1)
        build_dataset(scan_corpus(tmp_path / "corpus"),
                      DatasetRecipe(train_s=6.0, valid_s=2.0, test_s=2.0, seed=1),
                      tmp_path / "mix")
        # `danet mix` refuses a 16-kHz corpus, so the mixtures are rewritten after it.
        for wav in (tmp_path / "mix").glob("*/*.wav"):
            write_pcm16(wav, read_pcm16(wav)[0], 16000)
        with pytest.raises(ValueError, match=r"\.wav: audio is 16000 Hz, training expects 8000"):
            train(tmp_path / "mix" / "manifest.jsonl", tiny_hyper(), TINY_ARCH,
                  progress=lambda row: pytest.fail("an epoch ran"))

    def test_empty_split_rejected(self, tmp_path, tiny_dataset):
        import json

        lines = open(tiny_dataset).read().splitlines()
        kept = [ln for ln in lines if '"meta"' in ln or '"split": "train"' in ln]
        bad = tmp_path / "manifest.jsonl"
        bad.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match="split"):
            train(bad, tiny_hyper(), TINY_ARCH)


@pytest.fixture(scope="module")
def shard_dataset(tmp_path_factory):
    """7 train and 5 valid mixtures: at batch size 4 training ends on an odd
    batch of 3 and validation on a batch of 1, whose second shard is empty."""
    root = tmp_path_factory.mktemp("sharddata")
    table = synth_corpus(root / "corpus", n_speakers=4, utts_per_speaker=6, dur=1.0, seed=1)
    build_dataset(table, DatasetRecipe(train_s=7.0, valid_s=5.0, test_s=1.0, seed=1),
                  root / "mix")
    manifest = root / "mix" / "manifest.jsonl"
    splits = [r.split for r in load_manifest(manifest)]
    assert (splits.count("train"), splits.count("valid")) == (7, 5)
    return manifest


def use_cores(monkeypatch, n):
    """n usable cores at one BLAS thread: a shard worker when n is 2."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.mark.parametrize("fork", [True, False])
class TestWorker:
    def test_replies_come_back_in_send_order(self, fork):
        with pipeline.Worker(lambda x, y: (x * y, os.getpid()), fork) as worker:
            for x in range(5):
                worker.send(x, 3)
            replies = [worker.recv() for _ in range(5)]
        assert [product for product, _ in replies] == [0, 3, 6, 9, 12]
        # Forked, every call ran in the one worker; else each ran here.
        assert len({pid for _, pid in replies}) == 1
        assert (replies[0][1] != os.getpid()) == fork

    def test_an_exception_comes_back_with_its_type_and_message(self, fork):
        def checked(x):
            if x < 0:
                raise ValueError(f"{x} is negative")
            return x

        with pipeline.Worker(checked, fork) as worker:
            for x in (1, -2, 3):
                worker.send(x)
            assert worker.recv() == 1
            with pytest.raises(ValueError, match="^-2 is negative$"):
                worker.recv()
            assert worker.recv() == 3   # the worker serves on after an exception

    def test_an_owner_is_freed_when_its_with_block_exits(self, fork):
        # A worker running its owner's bound method must not keep the owner
        # (in training, the shared gradient mapping) alive in a cycle.
        class Owner:
            def __init__(self):
                self.worker = pipeline.Worker(self.double, fork)

            def double(self, x):
                return 2 * x

        gc.disable()
        try:
            owner = Owner()
            with owner.worker:
                owner.worker.send(4)
                assert owner.worker.recv() == 8
            freed = weakref.ref(owner)
            del owner
            assert freed() is None
        finally:
            gc.enable()


class TestShards:
    def spy_pids(self, monkeypatch, tmp_path):
        """Record the pid of every batch_loss_and_grads call train() makes."""
        pids = tmp_path / "pids"
        real = pipeline.batch_loss_and_grads

        def spy(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "batch_loss_and_grads", spy)
        return lambda: set(map(int, pids.read_text().split()))

    @pytest.mark.parametrize("resumed", [False, True])
    def test_serial_and_two_worker_runs_save_the_same_bytes(self, shard_dataset, tmp_path,
                                                            monkeypatch, resumed):
        hyper = tiny_hyper(epochs=2)
        start = None
        if resumed:
            use_cores(monkeypatch, 1)
            start = train(shard_dataset, hyper, TINY_ARCH).last
        runs = {}
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            pids = self.spy_pids(monkeypatch, tmp_path / str(cores))
            (tmp_path / str(cores)).mkdir()
            result = train(shard_dataset, hyper, TINY_ARCH, resume_from=start)
            assert len(pids() - {os.getpid()}) == cores - 1
            files = []
            for name in ("best", "last"):
                save_checkpoint(getattr(result, name), tmp_path / str(cores) / name)
                files.append((tmp_path / str(cores) / name).read_bytes())
            runs[cores] = result.log.deterministic_rows(), files
        assert runs[1] == runs[2]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_step_combines_the_two_shards_as_their_weighted_mean(self, shard_dataset,
                                                                  monkeypatch, cores):
        from danet.dsp import standardize
        from danet.network import Workspace, batch_loss, batch_loss_and_grads

        use_cores(monkeypatch, cores)
        records = [r for r in load_manifest(shard_dataset) if r.split == "train"]
        utts = pipeline._load_split(records, StftConfig())
        params = init_params(TINY_ARCH, 7)
        params.feat_mean, params.feat_std = feature_stats(
            [log_features(u.mix_mag) for u in utts])

        def direct(idx, fn):
            mags, masks = zip(*(utts[j] for j in idx))
            feats = [standardize(log_features(m), params.feat_mean, params.feat_std)
                     for m in mags]
            return fn(feats, mags, masks, params)

        with pipeline._Shards({"train": utts}, params, Workspace()) as shards:
            for idx in ([6, 2, 0, 5, 1], [3, 4], [1]):
                loss, grads = shards.loss("train", idx, with_grads=True)
                val_loss, none = shards.loss("train", idx, with_grads=False)
                n, n0 = len(idx), (len(idx) + 1) // 2
                if n == 1:
                    want, want_grads = direct(idx, batch_loss_and_grads)
                    assert (val_loss, none) == (direct(idx, batch_loss), None)
                else:
                    (l0, g0), (l1, g1) = (direct(idx[:n0], batch_loss_and_grads),
                                          direct(idx[n0:], batch_loss_and_grads))
                    want = (n0 * l0 + (n - n0) * l1) / n
                    want_grads = {k: (n0 * g0[k] + (n - n0) * g1[k]) / n for k in g0}
                    v0, v1 = direct(idx[:n0], batch_loss), direct(idx[n0:], batch_loss)
                    assert (val_loss, none) == ((n0 * v0 + (n - n0) * v1) / n, None)
                assert loss == want
                assert list(grads) == list(want_grads)
                for k in grads:
                    assert grads[k].tobytes() == want_grads[k].tobytes(), k

    def test_worker_exceptions_reach_the_caller(self, tiny_dataset, monkeypatch,
                                                running_children):
        use_cores(monkeypatch, 2)
        parent = os.getpid()
        real = pipeline.batch_loss_and_grads

        def failing_in_the_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise FloatingPointError("shard 1 went wrong")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "batch_loss_and_grads", failing_in_the_worker)
        with pytest.raises(FloatingPointError, match="^shard 1 went wrong$"):
            train(tiny_dataset, tiny_hyper(), TINY_ARCH)
        assert not running_children()

    def test_a_worker_that_dies_is_reported(self, tiny_dataset, monkeypatch,
                                            running_children):
        use_cores(monkeypatch, 2)
        parent = os.getpid()
        real = pipeline.batch_loss

        def dying_in_the_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "batch_loss", dying_in_the_worker)
        with pytest.raises(RuntimeError, match=r"shard worker \(pid \d+\) exited"):
            train(tiny_dataset, tiny_hyper(), TINY_ARCH)
        assert not running_children()

    def test_an_idle_worker_exits_when_its_pipe_closes(self, monkeypatch, still_running):
        # As when its parent dies between two batches.
        from danet.network import Workspace

        use_cores(monkeypatch, 2)
        with pipeline._Shards({}, init_params(TINY_ARCH, 0), Workspace()) as shards:
            shards.pipe.close()
            deadline = time.monotonic() + 5
            while still_running({shards.pid}):
                assert time.monotonic() < deadline, "the worker outlived its pipe"
                time.sleep(0.01)

    def test_no_worker_outlives_a_run(self, tiny_dataset, monkeypatch, tmp_path,
                                      running_children):
        use_cores(monkeypatch, 2)
        pids = self.spy_pids(monkeypatch, tmp_path)
        seen = []
        train(tiny_dataset, tiny_hyper(), TINY_ARCH,
              progress=lambda *a: seen.append(running_children()))
        assert seen[0] == pids() - {os.getpid()} and len(seen[0]) == 1
        assert not running_children()

    def test_lstm_refused_before_any_audio_is_read(self, tiny_dataset, monkeypatch):
        calls = []
        real = pipeline.read_audio
        monkeypatch.setattr(pipeline, "read_audio", lambda path: calls.append(path) or real(path))
        with pytest.raises(ValueError, match="only GRU cells are trainable"):
            train(tiny_dataset, tiny_hyper(), ArchSpec(input_dim=129, num_layers=1,
                                                       hidden_per_direction=8, embed_dim=4,
                                                       cell_kind="lstm"))
        assert calls == []


@pytest.fixture(scope="module")
def toy_ckpt(tiny_dataset):
    return train(tiny_dataset, tiny_hyper(epochs=1), TINY_ARCH).best


class TestSeparate:
    def mixture(self, seed=31):
        rng = np.random.default_rng(seed)
        t = np.arange(8000) / 8000
        x = 0.3 * np.sin(2 * np.pi * 150 * t) + 0.3 * np.sin(2 * np.pi * 460 * t)
        return Waveform(x + 0.01 * rng.normal(size=8000), 8000)

    def test_single_speaker_energy_bounded(self, toy_ckpt):
        mix = self.mixture()
        outs = separate(mix, toy_ckpt, n_speakers=1, algo="kmeans")
        assert len(outs) == 1
        assert outs[0].samples.size == mix.samples.size
        assert np.sum(outs[0].samples ** 2) <= np.sum(mix.samples ** 2) * (1 + 1e-9)

    def test_two_speaker_outputs_have_input_length(self, toy_ckpt):
        mix = self.mixture()
        outs = separate(mix, toy_ckpt, n_speakers=2, algo="gmm")
        assert len(outs) == 2
        for out in outs:
            assert out.samples.size == mix.samples.size
        residual = np.linalg.norm(outs[0].samples + outs[1].samples - mix.samples)
        assert np.isfinite(residual)

    def test_sample_rate_mismatch_rejected(self, toy_ckpt):
        with pytest.raises(ValueError, match="8000"):
            separate(Waveform(np.zeros(1000) + 0.1, 16000), toy_ckpt)

    def test_bad_speaker_count_rejected(self, toy_ckpt):
        with pytest.raises(ValueError, match="n_speakers"):
            separate(self.mixture(), toy_ckpt, n_speakers=0)

    @pytest.mark.parametrize("algo", ["gmm", "kmeans"])
    @pytest.mark.parametrize("n_speakers", [2, 5])
    @pytest.mark.parametrize("samples", [np.zeros(8000), np.full(1, 0.1), np.full(3, 0.1)],
                             ids=["silent_1s", "1_sample", "3_samples"])
    def test_degenerate_mixtures_give_finite_outputs(self, toy_ckpt, samples, n_speakers,
                                                     algo):
        mix = Waveform(samples, 8000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = separate(mix, toy_ckpt, n_speakers=n_speakers, algo=algo)
        assert len(outs) == n_speakers
        for out in outs:
            assert out.samples.size == samples.size
            assert np.all(np.isfinite(out.samples))


class TestTrainLogCsv:
    def test_csv_format(self, tmp_path):
        from danet.pipeline import EpochRecord

        log = TrainLog([EpochRecord(1, 2.5, 3.5, 1e-3, 0.123)])
        log.to_csv(tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr,seconds"
        assert lines[1].startswith("1,2.5,3.5,0.001,")
