"""Signal-path tests: window COLA, STFT/ISTFT round trips, features, WAV I/O."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet.dsp import (
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    feature_stats,
    istft,
    log_features,
    magnitude,
    make_sqrt_hann,
    phase,
    quantize_pcm16,
    read_pcm16,
    read_wav,
    standardize,
    stft,
    write_pcm16,
    write_wav,
)


def am_tone(n_samples, rate=8000, carrier=440.0, mod=3.0):
    """Speech-like amplitude-modulated tone."""
    t = np.arange(n_samples) / rate
    return (0.5 + 0.5 * np.sin(2 * np.pi * mod * t)) * np.sin(2 * np.pi * carrier * t)


def reference_istft(spec, cfg):
    """Naive sample-by-sample overlap-add inverse, independent of istft()."""
    window = make_sqrt_hann(cfg.win_len)
    pad_front = cfg.win_len - cfg.hop
    n_frames = spec.num_frames
    padded_len = (n_frames - 1) * cfg.hop + cfg.win_len
    acc = np.zeros(padded_len)
    norm = np.zeros(padded_len)
    for k in range(n_frames):
        frame = np.fft.irfft(spec.bins[:, k], n=cfg.fft_size)[:cfg.win_len]
        for n in range(cfg.win_len):
            acc[k * cfg.hop + n] += frame[n] * window[n]
            norm[k * cfg.hop + n] += window[n] ** 2
    out = np.where(norm > 1e-12, acc / np.maximum(norm, 1e-12), 0.0)
    return out[pad_front:pad_front + spec.source_len]


class TestSqrtHann:
    def test_win4_closed_form(self):
        w = make_sqrt_hann(4)
        assert np.allclose(w, [0.0, np.sqrt(0.5), 1.0, np.sqrt(0.5)], atol=1e-15)

    @pytest.mark.parametrize("win_len", [4, 8, 64, 256])
    def test_first_sample_zero(self, win_len):
        assert make_sqrt_hann(win_len)[0] == 0.0

    def test_cola_default_geometry(self):
        # Direct summation oracle: sum of squared window over all hop shifts
        # must be the same at every sample position.
        win_len, hop = 256, 64
        w2 = make_sqrt_hann(win_len) ** 2
        cover = np.zeros(win_len + 8 * hop)
        for k in range(0, cover.size - win_len + 1, hop):
            cover[k:k + win_len] += w2
        interior = cover[win_len - hop:cover.size - win_len]
        assert interior.max() - interior.min() < 1e-12

    @pytest.mark.parametrize("bad", [3, 7, 1, 0, -2])
    def test_rejects_odd_or_small(self, bad):
        with pytest.raises(ValueError):
            make_sqrt_hann(bad)


class TestStft:
    def test_zero_input_gives_zero_spectrogram(self):
        spec = stft(Waveform(np.zeros(1000), 8000))
        assert np.all(spec.bins == 0)

    def test_empty_waveform_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stft(Waveform(np.zeros(0), 8000))

    def test_shape_contract(self):
        cfg = StftConfig()
        spec = stft(Waveform(np.random.default_rng(0).normal(size=777), 8000), cfg)
        assert spec.num_freqs == cfg.fft_size // 2 + 1 == 129
        assert spec.num_frames == cfg.num_frames(777)
        assert spec.source_len == 777

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=4000)
        b = rng.normal(size=4000)
        sa = stft(Waveform(a, 8000)).bins
        sb = stft(Waveform(b, 8000)).bins
        sab = stft(Waveform(a + b, 8000)).bins
        assert np.linalg.norm(sab - (sa + sb)) <= 1e-10 * np.linalg.norm(sab)

    def test_sine_energy_concentrates_at_its_bin(self):
        # Dense DFT oracle on one windowed frame, plus the concentration claim.
        cfg = StftConfig()
        k = 20
        freq = k * 8000 / cfg.fft_size
        t = np.arange(8000) / 8000
        spec = stft(Waveform(np.sin(2 * np.pi * freq * t), 8000), cfg)

        frame_idx = spec.num_frames // 2
        window = make_sqrt_hann(cfg.win_len)
        start = frame_idx * cfg.hop - (cfg.win_len - cfg.hop)
        segment = np.sin(2 * np.pi * freq * (np.arange(start, start + cfg.win_len) / 8000))
        dense = np.fft.fft(segment * window, n=cfg.fft_size)[:cfg.num_freqs]
        assert np.allclose(spec.bins[:, frame_idx], dense, atol=1e-10)

        # sqrt-Hann spreads a pure tone over a half-bin-wide mainlobe: the
        # peak sits at bin k and >= 99% of frame energy falls in k-1..k+1.
        interior = spec.bins[:, 4:-4]
        energy = np.abs(interior) ** 2
        assert np.all(np.argmax(energy, axis=0) == k)
        neighborhood = energy[k - 1:k + 2].sum(axis=0)
        assert np.all(neighborhood >= 0.99 * energy.sum(axis=0))

    def test_parseval_per_frame(self):
        # Frame energy of the windowed segment vs (1/fft_size) * sum |DFT|^2,
        # counting negative frequencies explicitly via a full FFT.
        cfg = StftConfig()
        rng = np.random.default_rng(7)
        x = rng.normal(size=2048)
        window = make_sqrt_hann(cfg.win_len)
        pad_front = cfg.win_len - cfg.hop
        padded = np.zeros((cfg.num_frames(x.size) - 1) * cfg.hop + cfg.win_len)
        padded[pad_front:pad_front + x.size] = x
        for k in range(cfg.num_frames(x.size)):
            seg = padded[k * cfg.hop:k * cfg.hop + cfg.win_len] * window
            lhs = np.sum(seg ** 2)
            rhs = np.sum(np.abs(np.fft.fft(seg, n=cfg.fft_size)) ** 2) / cfg.fft_size
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1e-12)


class TestIstft:
    def test_round_trip_white_noise(self):
        x = np.random.default_rng(2).normal(size=8000)
        wave = Waveform(x, 8000)
        back = istft(stft(wave))
        assert np.linalg.norm(back.samples - x) < 1e-6 * np.linalg.norm(x)

    def test_zero_spectrogram_gives_zero_waveform(self):
        spec = stft(Waveform(np.ones(500), 8000))
        zero = ComplexSpectrogram(np.zeros_like(spec.bins), spec.source_len, spec.cfg, 8000)
        assert np.all(istft(zero).samples == 0)

    def test_round_trip_am_tone_odd_length(self):
        n = 6001  # not a hop multiple
        x = am_tone(n)
        spec = stft(Waveform(x, 8000))
        back = istft(spec)
        assert back.samples.size == n
        assert np.linalg.norm(back.samples - x) < 1e-6 * np.linalg.norm(x)
        assert np.allclose(back.samples, reference_istft(spec, spec.cfg), atol=1e-10)

    def test_round_trip_many_lengths(self):
        rng = np.random.default_rng(3)
        for n in [1, 63, 64, 65, 255, 256, 257, 1000, 4097]:
            x = rng.normal(size=n)
            back = istft(stft(Waveform(x, 8000)))
            assert back.samples.size == n
            assert np.linalg.norm(back.samples - x) <= 1e-6 * max(np.linalg.norm(x), 1e-12)


@st.composite
def stft_geometries(draw):
    """Valid StftConfigs with hop <= win_len / 2."""
    win_len = 2 * draw(st.integers(1, 128))
    hop = draw(st.sampled_from([d for d in range(1, win_len // 2 + 1) if win_len % d == 0]))
    return StftConfig(win_len, hop, win_len + draw(st.integers(0, 64)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(cfg=stft_geometries(), n=st.integers(1, 3000), rate=st.sampled_from([8000, 16000]),
       seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(cfg, n, rate, seed):
    x = np.random.default_rng(seed).normal(size=n)
    back = istft(stft(Waveform(x, rate), cfg))
    assert back.samples.size == n
    assert back.sample_rate == rate
    assert np.linalg.norm(back.samples - x) <= 1e-6 * np.linalg.norm(x)


class TestMagnitudePhase:
    def test_three_four_five(self):
        cfg = StftConfig(win_len=2, hop=1, fft_size=2)
        bins = np.array([[3 + 4j], [0j]])
        spec = ComplexSpectrogram(bins, 1, cfg, 8000)
        assert magnitude(spec)[0, 0] == pytest.approx(5.0)
        assert phase(spec)[0, 0] == pytest.approx(np.arctan2(4, 3))

    def test_zero_entry_convention(self):
        cfg = StftConfig(win_len=2, hop=1, fft_size=2)
        spec = ComplexSpectrogram(np.zeros((2, 3), dtype=complex), 3, cfg, 8000)
        assert np.all(magnitude(spec) == 0)
        assert np.all(phase(spec) == 0)

    def test_polar_recomposition(self):
        rng = np.random.default_rng(4)
        spec = stft(Waveform(rng.normal(size=3000), 8000))
        recomposed = magnitude(spec) * np.exp(1j * phase(spec))
        assert np.max(np.abs(recomposed - spec.bins)) < 1e-12


class TestLogFeatures:
    def test_zero_magnitude_hits_floor(self):
        feats = log_features(np.zeros((4, 3)))
        assert np.allclose(feats, np.log(1e-7))

    def test_unit_magnitude_is_zero(self):
        assert np.all(log_features(np.ones((4, 3))) == 0)

    def test_floor_lower_bounds_everything(self):
        rng = np.random.default_rng(5)
        mag = rng.uniform(0, 2, size=(6, 50))
        assert np.all(log_features(mag) >= np.log(1e-7) - 1e-15)

    def test_standardized_rows(self):
        rng = np.random.default_rng(6)
        mag = rng.uniform(0.1, 3.0, size=(5, 400))
        raw = log_features(mag)
        mean, std = feature_stats([raw])
        standardized = standardize(raw, mean, std)
        assert np.allclose(standardized.mean(axis=1), 0, atol=1e-9)
        assert np.allclose(standardized.var(axis=1), 1, atol=1e-9)

    def test_stats_of_a_generator_equal_those_of_the_concatenated_list(self):
        rng = np.random.default_rng(7)
        # F-ordered, as the log magnitudes of an stft are
        feats = [log_features(np.asfortranarray(rng.uniform(0.1, 3.0, size=(9, T))))
                 for T in (40, 3, 17, 1)]
        stacked = np.concatenate(feats, axis=1)
        for mean, std in (feature_stats(feats), feature_stats(iter(feats), 61)):
            assert mean.tobytes() == stacked.mean(axis=1).tobytes()
            assert std.tobytes() == stacked.std(axis=1).tobytes()

    def test_stats_hold_one_pooled_array(self):
        # np.std would allocate a second array the size of the pooled one.
        feats = [np.asfortranarray(np.random.default_rng(8).normal(size=(129, 2000)))]
        pooled_bytes = feats[0].nbytes
        tracemalloc.start()
        try:
            feature_stats(iter(feats), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * pooled_bytes, (peak, pooled_bytes)

    def test_stats_refuse_a_wrong_frame_count_and_no_matrices(self):
        with pytest.raises(ValueError, match="hold 3 frames, not the 4"):
            feature_stats(iter([np.ones((2, 3))]), 4)
        with pytest.raises(ValueError, match="at least one"):
            feature_stats([])


class TestWavIO:
    def test_round_trip(self, tmp_path):
        x = np.clip(np.random.default_rng(8).normal(scale=0.2, size=4000), -0.99, 0.99)
        path = tmp_path / "sig.wav"
        write_wav(path, Waveform(x, 8000))
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0

    def test_quantization_is_exact_on_grid(self, tmp_path):
        ints = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
        x = ints.astype(np.float64) / 32768.0
        assert np.array_equal(quantize_pcm16(x), ints)

    def test_rejects_stereo(self, tmp_path):
        import wave as wavefile

        path = tmp_path / "stereo.wav"
        with wavefile.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 64)
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)

    @pytest.mark.parametrize("keep_bytes, reason", [
        (1544, "the header declares 1000 frames but the data chunk holds 750"),
        (1543, "the header declares 1000 frames but the data chunk holds 749"),
        (30, "the file ends inside its header"),
        (0, "the file ends inside its header")])
    def test_truncated_file_rejected_with_path(self, tmp_path, keep_bytes, reason):
        # Of a 2044-byte file: an even cut once read short in silence, an odd
        # one failed in numpy, and a cut header raised a bare EOFError.
        path = tmp_path / "cut.wav"
        write_pcm16(path, np.arange(1000, dtype=np.int16), 8000)
        path.write_bytes(path.read_bytes()[:keep_bytes])
        with pytest.raises(ValueError, match=rf"cut\.wav: truncated WAV, {reason}$"):
            read_pcm16(path)

    def test_non_wav_rejected_with_path(self, tmp_path):
        path = tmp_path / "notes.wav"
        path.write_bytes(b"these are not audio samples, just text" * 4)
        with pytest.raises(ValueError, match=r"notes\.wav: not a PCM WAV"):
            read_pcm16(path)
