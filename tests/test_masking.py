"""Mask construction and application tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from danet.dsp import ComplexSpectrogram, StftConfig, Waveform, istft, magnitude, stft
from danet.masking import apply_mask, binarize, wiener_like_masks


class TestWienerLikeMasks:
    def test_equal_magnitudes_split_evenly(self):
        m = wiener_like_masks([np.full((3, 4), 2.0), np.full((3, 4), 2.0)])
        assert np.allclose(m[0], 0.5) and np.allclose(m[1], 0.5)

    def test_two_to_one_ratio(self):
        m = wiener_like_masks([np.full((2, 2), 2.0), np.full((2, 2), 1.0)])
        assert np.allclose(m[0], 0.8)
        assert np.allclose(m[1], 0.2)

    def test_silent_bin_convention(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[0.0, 3.0]])
        m = wiener_like_masks([a, b])
        assert m[0][0, 0] == 0.5 and m[1][0, 0] == 0.5
        assert m[0][0, 1] == pytest.approx(0.1)
        assert m[1][0, 1] == pytest.approx(0.9)

    @pytest.mark.parametrize("n_sources", [1, 2, 3, 4])
    def test_masks_sum_to_one_everywhere(self, n_sources):
        rng = np.random.default_rng(n_sources)
        mags = [rng.uniform(0, 1, size=(5, 7)) for _ in range(n_sources)]
        mags[0][2, 3] = 0.0  # force one degenerate bin when alone
        for m in mags:
            m[1, 1] = 0.0
        masks = wiener_like_masks(mags)
        assert np.allclose(sum(masks), 1.0, atol=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            wiener_like_masks([np.ones((2, 2)), np.ones((2, 3))])

    def test_huge_magnitudes_give_finite_masks(self):
        # 1e160 squared overflows; the per-bin power-of-two scale keeps it finite.
        m = wiener_like_masks([np.array([[1e160]]), np.array([[1e150]])])
        assert m[0][0, 0] == 1.0 and m[1][0, 0] == pytest.approx(1e-20, rel=1e-12)
        assert m[0][0, 0] + m[1][0, 0] == 1.0

    @pytest.mark.parametrize("tiny", [1e-170, 1e-300, 5e-324])
    def test_tiny_single_source_bin_is_not_silent(self, tiny):
        # Squaring alone underflows to 0 below about 1e-162.
        m = wiener_like_masks([np.array([[0.0, tiny]]), np.array([[tiny, tiny]])])
        assert m[0][0, 0] == 0.0 and m[1][0, 0] == 1.0
        assert m[0][0, 1] == 0.5 and m[1][0, 1] == 0.5

    def test_power_of_two_scale_keeps_pcm_range_bits(self):
        rng = np.random.default_rng(12)
        mags = [rng.uniform(0, 300, size=(129, 40)) * rng.integers(0, 2, size=(129, 40))
                for _ in range(3)]
        powers = np.stack([m * m for m in mags])
        total = powers.sum(axis=0)
        expect = powers / np.where(total == 0, 1.0, total)
        expect[:, total == 0] = 1.0 / 3
        assert np.array_equal(np.stack(wiener_like_masks(mags)), expect)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), n_sources=st.integers(1, 4),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 6)))
def test_masks_sum_to_one_property(data, n_sources, shape):
    # Magnitudes draw zeros, subnormals and values up to 1e6; bin (0, 0) is
    # silent in every source and gets the uniform 1/N share.
    mags = [data.draw(arrays(np.float64, shape, elements=st.floats(0, 1e6)))
            for _ in range(n_sources)]
    for m in mags:
        m[0, 0] = 0.0
    masks = wiener_like_masks(mags)
    assert np.all(np.abs(sum(masks) - 1.0) <= 1e-12)
    assert all(np.all((m >= 0) & (m <= 1)) for m in masks)
    assert all(m[0, 0] == 1.0 / n_sources for m in masks)


class TestBinarize:
    def test_above_threshold(self):
        assert binarize(np.array([[0.8]]))[0, 0] == 1.0

    def test_exact_tie_goes_to_zero(self):
        assert binarize(np.array([[0.5]]))[0, 0] == 0.0

    def test_below_threshold(self):
        assert binarize(np.array([[0.2]]))[0, 0] == 0.0

    def test_binary_masks_are_disjoint(self):
        # Soft masks sum to 1, so at a threshold of 0.5 at most one speaker can win a bin.
        rng = np.random.default_rng(11)
        for n_sources in (2, 3):
            mags = [rng.uniform(0, 1, size=(6, 9)) for _ in range(n_sources)]
            hard = [binarize(m) for m in wiener_like_masks(mags)]
            assert np.all(sum(hard) <= 1.0)
            assert set(np.unique(np.concatenate(hard))) <= {0.0, 1.0}


class TestApplyMask:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.wave = Waveform(rng.normal(scale=0.2, size=4000), 8000)
        self.spec = stft(self.wave)

    def test_all_ones_mask_is_identity(self):
        out = apply_mask(self.spec, np.ones(self.spec.bins.shape))
        assert np.max(np.abs(out.bins - self.spec.bins)) < 1e-12
        assert (out.source_len, out.cfg, out.sample_rate) == \
            (self.spec.source_len, self.spec.cfg, self.spec.sample_rate)

    def test_all_zeros_mask(self):
        out = apply_mask(self.spec, np.zeros(self.spec.bins.shape))
        assert np.all(out.bins == 0)

    def test_half_mask_on_unit_magnitudes(self):
        cfg = StftConfig()
        ph = np.random.default_rng(13).uniform(-np.pi, np.pi, size=(cfg.num_freqs, 4))
        spec = ComplexSpectrogram(np.exp(1j * ph), 256, cfg, 8000)
        out = apply_mask(spec, np.full(ph.shape, 0.5))
        assert np.allclose(np.abs(out.bins), 0.5)
        assert np.allclose(np.angle(out.bins), ph)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            apply_mask(self.spec, np.ones((2, 2)))

    def test_oracle_masks_beat_the_mixture(self):
        # Continuous ratio masks applied to a two-tone mixture recover each
        # source much better than using the mixture itself as the estimate.
        t = np.arange(8000) / 8000
        s1 = 0.4 * np.sin(2 * np.pi * 400 * t) * (0.6 + 0.4 * np.sin(2 * np.pi * 2 * t))
        s2 = 0.4 * np.sin(2 * np.pi * 1100 * t) * (0.6 + 0.4 * np.cos(2 * np.pi * 3 * t))
        mix = Waveform(s1 + s2, 8000)
        spec = stft(mix)
        mags = [magnitude(stft(Waveform(s, 8000))) for s in (s1, s2)]
        masks = wiener_like_masks(mags)

        def err(est, ref):
            return np.sum((est - ref) ** 2) / np.sum(ref ** 2)

        for mask, ref in zip(masks, (s1, s2)):
            est = istft(apply_mask(spec, mask))
            assert err(est.samples, ref) < err(mix.samples, ref)
