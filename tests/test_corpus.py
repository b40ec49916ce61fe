"""Corpus scanning, mixing, dataset build, and synthetic-speaker tests."""

import wave as wavefile

import numpy as np
import pytest

from danet.corpus import (
    RECIPE_VERSION,
    DatasetRecipe,
    _partition_pools,
    build_dataset,
    load_manifest,
    make_mixture,
    scan_corpus,
    synth_corpus,
)
from danet.dsp import Waveform, read_pcm16, read_wav, write_pcm16, write_wav


def tone_wave(freq=220.0, n=8000, amp=0.3, rate=8000):
    return Waveform(amp * np.sin(2 * np.pi * freq * np.arange(n) / rate), rate)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    table = synth_corpus(root, n_speakers=6, utts_per_speaker=6, dur=1.5, seed=3)
    return root, table


class TestScanCorpus:
    def test_two_by_three_layout(self, tmp_path):
        for spk in ("alice", "bob"):
            (tmp_path / spk).mkdir()
            for i in range(3):
                write_wav(tmp_path / spk / f"u{i}.wav", tone_wave(200 + 50 * i, n=1600))
        table = scan_corpus(tmp_path)
        assert sorted(table.speakers) == ["alice", "bob"]
        assert all(len(v) == 3 for v in table.speakers.values())
        assert not table.skipped

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no speakers"):
            scan_corpus(tmp_path)

    def test_stereo_file_skipped_with_reason(self, tmp_path):
        (tmp_path / "spk").mkdir()
        write_wav(tmp_path / "spk" / "good.wav", tone_wave(n=1600))
        stereo = tmp_path / "spk" / "bad.wav"
        with wavefile.open(str(stereo), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 128)
        table = scan_corpus(tmp_path)
        assert len(table.speakers["spk"]) == 1
        assert len(table.skipped) == 1
        assert "mono" in table.skipped[0][1]


class TestMakeMixture:
    def test_equal_rms_at_zero_db(self):
        a = tone_wave(200.0, amp=0.3)
        b = tone_wave(900.0, amp=0.3)
        result = make_mixture(a, b, 0.0)
        assert result.gain == pytest.approx(1.0, abs=1e-12)

    def test_equal_rms_at_six_db(self):
        a = tone_wave(200.0, amp=0.3)
        b = tone_wave(900.0, amp=0.3)
        result = make_mixture(a, b, 20.0 * np.log10(2.0))
        assert result.gain == pytest.approx(0.5, abs=1e-12)

    def test_requested_snr_reproduced_exactly(self):
        rng = np.random.default_rng(80)
        a = Waveform(0.4 * rng.normal(size=5000), 8000)
        b = Waveform(0.2 * rng.normal(size=6000), 8000)
        result = make_mixture(a, b, -3.0)
        rms = lambda w: np.sqrt(np.mean(w.samples ** 2))
        measured = 20.0 * np.log10(rms(result.stems[0]) / rms(result.stems[1]))
        assert measured == pytest.approx(-3.0, abs=1e-9)

    def test_crops_to_shorter(self):
        a = tone_wave(n=4000)
        b = tone_wave(500.0, n=3000)
        result = make_mixture(a, b, 1.0)
        assert result.mixture.samples.size == 3000

    def test_clipping_rescales_both_stems(self):
        a = Waveform(0.9 * np.ones(100), 8000)
        b = Waveform(0.9 * np.ones(100), 8000)
        result = make_mixture(a, b, 0.0)
        assert result.scale < 1.0
        assert np.max(np.abs(result.mixture.samples)) == pytest.approx(0.9, abs=1e-12)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError, match="zero-energy"):
            make_mixture(Waveform(np.zeros(100), 8000), tone_wave(n=100), 0.0)


class TestSynthCorpus:
    def test_determinism_bytes(self, tmp_path, small_corpus):
        root, _ = small_corpus
        again = tmp_path / "again"
        synth_corpus(again, n_speakers=6, utts_per_speaker=6, dur=1.5, seed=3)
        a = (root / "spk00" / "utt00.wav").read_bytes()
        b = (again / "spk00" / "utt00.wav").read_bytes()
        assert a == b

    def test_amplitudes_in_range(self, small_corpus):
        root, table = small_corpus
        for utt in table.utterances[:6]:
            ints, _ = read_pcm16(utt.path)
            assert ints.min() >= -32768 and ints.max() <= 32767
            samples = read_wav(utt.path).samples
            assert np.max(np.abs(samples)) <= 1.0

    def test_long_term_spectra_differ(self, small_corpus):
        _, table = small_corpus
        spectra = []
        for spk in sorted(table.speakers):
            acc = np.zeros(1025)
            for utt in table.speakers[spk]:
                x = read_wav(utt.path).samples
                frames = x[:len(x) // 2048 * 2048].reshape(-1, 2048)
                acc += np.abs(np.fft.rfft(frames, axis=1)).mean(axis=0)
            spectra.append(acc / len(table.speakers[spk]))
        for i in range(len(spectra)):
            for j in range(i + 1, len(spectra)):
                corr = np.corrcoef(spectra[i], spectra[j])[0, 1]
                assert corr < 0.9, f"speakers {i},{j} too similar: r={corr:.3f}"

    def test_rejects_single_speaker(self, tmp_path):
        with pytest.raises(ValueError, match="2 speakers"):
            synth_corpus(tmp_path, n_speakers=1)


class TestBuildDataset:
    def recipe(self, **kw):
        base = dict(train_s=18.0, valid_s=6.0, test_s=6.0, seed=5)
        base.update(kw)
        return DatasetRecipe(**base)

    def test_manifest_round_trip_and_additivity(self, small_corpus, tmp_path):
        _, table = small_corpus
        built = build_dataset(table, self.recipe(), tmp_path / "mix")
        records = load_manifest(tmp_path / "mix" / "manifest.jsonl")
        assert len(records) == len(built)
        rec = records[0]
        mix_ints, _ = read_pcm16(rec.mixture_path)
        s1_ints, _ = read_pcm16(rec.source_paths[0])
        s2_ints, _ = read_pcm16(rec.source_paths[1])
        assert np.array_equal(mix_ints.astype(np.int32),
                              s1_ints.astype(np.int32) + s2_ints.astype(np.int32))

    def test_same_seed_identical_manifest(self, small_corpus, tmp_path):
        _, table = small_corpus
        build_dataset(table, self.recipe(), tmp_path / "a")
        build_dataset(table, self.recipe(), tmp_path / "b")
        a = (tmp_path / "a" / "manifest.jsonl").read_bytes()
        b = (tmp_path / "b" / "manifest.jsonl").read_bytes()
        assert a.replace(b"a/", b"") == b.replace(b"b/", b"")  # paths are relative anyway
        assert a == b

    def test_durations_within_five_percent(self, small_corpus, tmp_path):
        _, table = small_corpus
        records = build_dataset(table, self.recipe(), tmp_path / "mix")
        for split, target in self.recipe().targets().items():
            total = sum(r.duration for r in records if r.split == split)
            assert total >= target
            assert abs(total - target) <= 0.05 * target

    def test_requesting_too_much_fails_with_shortfall(self, small_corpus, tmp_path):
        _, table = small_corpus
        with pytest.raises(ValueError, match="insufficient material"):
            build_dataset(table, self.recipe(train_s=10 * table.total_duration),
                          tmp_path / "mix")

    def test_recorded_snr_matches_stored_stems_to_quantization(self, small_corpus, tmp_path):
        _, table = small_corpus
        records = build_dataset(table, self.recipe(), tmp_path / "mix")
        for rec in records[:4]:
            base = tmp_path / "mix"
            s1 = read_wav(base / rec.source_paths[0]).samples
            s2 = read_wav(base / rec.source_paths[1]).samples
            measured = 20 * np.log10(np.sqrt(np.mean(s1 ** 2)) / np.sqrt(np.mean(s2 ** 2)))
            assert measured == pytest.approx(rec.snr_db, abs=1e-2)

    def test_distinct_speakers_within_each_mixture(self, small_corpus, tmp_path):
        _, table = small_corpus
        records = build_dataset(table, self.recipe(), tmp_path / "mix")
        for rec in records:
            assert rec.speaker_ids[0] != rec.speaker_ids[1]

    def test_test_split_pairs_unique(self, small_corpus, tmp_path):
        _, table = small_corpus
        records = build_dataset(table, self.recipe(), tmp_path / "mix")
        pairs = [tuple(sorted(r.speaker_ids)) for r in records if r.split == "test"]
        assert len(pairs) == len(set(pairs))

    def test_manifest_text_is_pinned(self, small_corpus, tmp_path):
        _, table = small_corpus
        build_dataset(table, self.recipe(), tmp_path / "mix")
        lines = (tmp_path / "mix" / "manifest.jsonl").read_text().splitlines(keepends=True)
        assert "".join(lines[:2]) == (
            '{"meta": true, "recipe_version": 2, "seed": 5}\n'
            '{"utt_id": "train_0000", "split": "train", '
            '"mixture_path": "train/train_0000_mix.wav", '
            '"source_paths": ["train/train_0000_s1.wav", "train/train_0000_s2.wav"], '
            '"speaker_ids": ["spk00", "spk04"], "snr_db": 1.8992258750578301, '
            '"gain": 0.7255625864969293, "scale": 1.0, "duration": 1.5, '
            '"seed": 1494391660}\n')

    @pytest.mark.parametrize("seed", [3, 5, 6])
    def test_mixed_rates_refused_before_writing(self, tmp_path, seed):
        # One speaker at 16 kHz. make_mixture alone fails only at the first
        # mismatched pair: at these seeds, after 9, 6 and 3 WAVs are on disk.
        synth_corpus(tmp_path / "corpus", n_speakers=6, utts_per_speaker=6, dur=1.5, seed=3)
        for wav in (tmp_path / "corpus" / "spk02").glob("*.wav"):
            write_pcm16(wav, read_pcm16(wav)[0], 16000)
        table = scan_corpus(tmp_path / "corpus")
        with pytest.raises(ValueError, match="share one sample rate") as err:
            build_dataset(table, DatasetRecipe(12.0, 4.0, 4.0, seed=seed), tmp_path / "mix")
        assert "spk02" in str(err.value) and "is 16000 Hz" in str(err.value)
        assert "is 8000 Hz" in str(err.value)
        assert not list(tmp_path.glob("mix/**/*.wav"))
        assert not (tmp_path / "mix" / "manifest.jsonl").exists()

    def test_corpus_off_the_model_rate_refused_before_writing(self, tmp_path):
        # TIMIT's 16 kHz throughout: one rate, but not the one the model runs at.
        synth_corpus(tmp_path / "corpus", n_speakers=4, utts_per_speaker=4, dur=1.5, seed=3)
        for wav in (tmp_path / "corpus").glob("*/*.wav"):
            write_pcm16(wav, read_pcm16(wav)[0], 16000)
        table = scan_corpus(tmp_path / "corpus")
        with pytest.raises(ValueError, match="share one sample rate, which is 8000 Hz") as err:
            build_dataset(table, DatasetRecipe(6.0, 2.0, 2.0, seed=1), tmp_path / "mix")
        assert f"{table.utterances[0].path} is 16000 Hz" in str(err.value)
        assert not list(tmp_path.glob("mix/**/*.wav"))
        assert not (tmp_path / "mix" / "manifest.jsonl").exists()

    def test_version_1_manifest_still_loads(self, small_corpus, tmp_path):
        _, table = small_corpus
        build_dataset(table, self.recipe(), tmp_path / "mix")
        path = tmp_path / "mix" / "manifest.jsonl"
        lines = path.read_text().splitlines()
        assert f'"recipe_version": {RECIPE_VERSION}' in lines[0]
        path.write_text("\n".join([lines[0].replace(
            f'"recipe_version": {RECIPE_VERSION}', '"recipe_version": 1')] + lines[1:]) + "\n")
        records = load_manifest(path)
        assert len(records) == len(lines) - 1
        assert read_pcm16(records[0].mixture_path)[0].size > 0


class TestSplitPools:
    """Speaker-stratified partition at the determinism criterion's recipe
    (4 speakers x 4 utterances x 1 s, 6/2/2 s)."""

    @pytest.fixture(scope="class")
    def four_speakers(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("four")
        return synth_corpus(root, n_speakers=4, utts_per_speaker=4, dur=1.0, seed=9)

    @pytest.mark.parametrize("seed", range(12))
    def test_every_pool_keeps_three_of_four_speakers(self, four_speakers, tmp_path, seed):
        recipe = DatasetRecipe(train_s=6.0, valid_s=2.0, test_s=2.0, seed=seed)
        pools = _partition_pools(four_speakers, recipe)
        assert sum(len(p) for p in pools.values()) == 16
        for name, pool in pools.items():
            assert len({u.speaker_id for u in pool}) >= 3, name
        records = build_dataset(four_speakers, recipe, tmp_path / "mix")
        assert sum(r.duration for r in records if r.split == "test") >= 2.0

    def test_pair_capacity_shortfall_refused_before_writing(self, tmp_path):
        # 4 speakers give 6 distinct pairs; 4 s of 0.5-s test mixtures needs 8.
        table = synth_corpus(tmp_path / "corpus", n_speakers=4, utts_per_speaker=8,
                             dur=0.5, seed=2)
        recipe = DatasetRecipe(train_s=4.0, valid_s=4.0, test_s=4.0, seed=0)
        with pytest.raises(ValueError, match="pair capacity of 6 pairs"):
            build_dataset(table, recipe, tmp_path / "mix")
        assert not (tmp_path / "mix").exists()
