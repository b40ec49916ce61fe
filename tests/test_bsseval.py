"""BSS-eval decomposition and metric tests."""

import dataclasses
import itertools
import json
import os
import re
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


@contextmanager
def warnings_catcher():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught

from danet.bsseval import (
    EvalConfig,
    _Projector,
    bss_decompose,
    resolve_permutation,
    sdr_sir_sar,
)

L1 = EvalConfig(proj_len=1)


def orthogonal_pair(n=4000):
    ref0 = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
    ref1 = np.tile([1.0, -1.0], n // 2)
    assert abs(ref0 @ ref1) == 0.0
    return ref0, ref1


class TestDecompose:
    def test_self_projection(self):
        rng = np.random.default_rng(60)
        ref = rng.normal(size=2000)
        other = rng.normal(size=2000)
        s, ei, ea = bss_decompose(ref, [ref, other], 0, L1)
        assert np.allclose(s, ref, atol=1e-8)
        assert np.linalg.norm(ei) < 1e-8 * np.linalg.norm(ref)
        assert np.linalg.norm(ea) < 1e-8 * np.linalg.norm(ref)

    def test_pure_interference(self):
        ref0, ref1 = orthogonal_pair()
        s, ei, ea = bss_decompose(ref1, [ref0, ref1], 0, L1)
        assert np.linalg.norm(s) < 1e-9 * np.linalg.norm(ref1)
        assert np.allclose(ei, ref1, atol=1e-9)
        assert np.linalg.norm(ea) < 1e-9 * np.linalg.norm(ref1)

    def test_additivity_and_orthogonality_vs_dense_oracle(self):
        # Dense oracle: build the explicit delayed-copy matrix and use lstsq.
        rng = np.random.default_rng(61)
        n, L = 400, 4
        refs = [rng.normal(size=n), rng.normal(size=n)]
        est = (0.8 * refs[0] + 0.3 * refs[1] + 0.1 * rng.normal(size=n))
        cfg = EvalConfig(proj_len=L)
        s, ei, ea = bss_decompose(est, refs, 0, cfg)

        padded_len = n + L - 1
        est_pad = np.concatenate([est, np.zeros(L - 1)])
        total = s + ei + ea
        assert np.linalg.norm(total - est_pad) < 1e-9 * np.linalg.norm(est_pad)

        scale = np.linalg.norm(est_pad) ** 2
        assert abs(s @ ei) < 1e-9 * scale
        assert abs(s @ ea) < 1e-9 * scale
        assert abs(ei @ ea) < 1e-9 * scale

        def delayed_matrix(which):
            cols = []
            for i in which:
                for tau in range(L):
                    col = np.zeros(padded_len)
                    col[tau:tau + n] = refs[i]
                    cols.append(col)
            return np.stack(cols, axis=1)

        a_target = delayed_matrix([0])
        c0, *_ = np.linalg.lstsq(a_target, est_pad, rcond=None)
        oracle_s = a_target @ c0
        a_all = delayed_matrix([0, 1])
        c_all, *_ = np.linalg.lstsq(a_all, est_pad, rcond=None)
        oracle_all = a_all @ c_all
        assert np.allclose(s, oracle_s, atol=1e-7)
        assert np.allclose(ei, oracle_all - oracle_s, atol=1e-7)
        assert np.allclose(ea, est_pad - oracle_all, atol=1e-7)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            bss_decompose(np.ones(10), [np.ones(12)], 0, L1)

    def test_rank_deficient_refs_warn_but_run(self):
        ref = np.sin(np.arange(500) * 0.1)
        with pytest.warns(UserWarning, match="rank-deficient"):
            s, ei, ea = bss_decompose(ref, [ref, ref.copy()], 0, EvalConfig(proj_len=2))
        assert np.allclose(s + ei + ea, np.concatenate([ref, [0.0]]), atol=1e-6)

    def test_healthy_refs_do_not_warn(self):
        rng = np.random.default_rng(70)
        refs = [rng.normal(size=500), rng.normal(size=500)]
        with warnings_catcher() as caught:
            bss_decompose(refs[0] + refs[1], refs, 0, EvalConfig(proj_len=4))
        assert not caught


def ridge_oracle(est, refs, L, target):
    """(s_target, e_interf, e_artif) from dense lstsq on the explicit matrix
    of delayed reference copies, with the projector's diagonal lift
    (1e-10 x the largest reference energy, or 1e-10 when every reference is
    silent) as ridge rows.
    Plain lstsq differs from it only where the references are nearly
    collinear: by up to 1e-3 on 7-sample draws, before this projector too."""
    n = est.size
    padded = np.concatenate([est, np.zeros(L - 1)])
    ridge = np.sqrt(1e-10 * (max(r @ r for r in refs) or 1.0))

    def project(which):
        a = np.zeros((n + L - 1, len(which) * L))
        for k, i in enumerate(which):
            for tau in range(L):
                a[tau:tau + n, k * L + tau] = refs[i]
        lifted = np.vstack([a, ridge * np.eye(a.shape[1])])
        rhs = np.concatenate([padded, np.zeros(a.shape[1])])
        return a @ np.linalg.lstsq(lifted, rhs, rcond=None)[0]

    s, p_all = project([target]), project(range(len(refs)))
    return s, p_all - s, padded - p_all


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n_refs=st.integers(1, 3), L=st.integers(1, 8), n_ests=st.integers(1, 3),
       n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_projector_matches_dense_oracle_property(n_refs, L, n_ests, n, seed):
    rng = np.random.default_rng(seed)
    refs = [rng.normal(size=n) for _ in range(n_refs)]
    ests = [rng.normal(size=n) for _ in range(n_ests)]
    with warnings_catcher():   # references shorter than L are rank-deficient
        parts = _Projector(refs, EvalConfig(proj_len=L)).decompose(ests)
    for est, per_target in zip(ests, parts):
        padded = np.concatenate([est, np.zeros(L - 1)])
        for j, got in enumerate(per_target):
            assert np.allclose(sum(got), padded, rtol=0, atol=1e-9)
            for part, want in zip(got, ridge_oracle(est, refs, L, j)):
                assert np.allclose(part, want, rtol=0, atol=1e-7)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n_refs=st.integers(1, 3), L=st.integers(1, 8), n=st.integers(1, 299),
       log_scale=st.floats(-6, 6), seed=st.integers(0, 2**32 - 1))
def test_scores_and_warnings_do_not_depend_on_the_scale_property(n_refs, L, n, log_scale,
                                                                  seed):
    rng = np.random.default_rng(seed)
    refs = [rng.normal(size=n) for _ in range(n_refs)]
    ests = [rng.normal(size=n) for _ in range(n_refs)]
    runs = []
    for a in (1.0, 10.0 ** log_scale):
        with warnings_catcher() as caught:
            m = resolve_permutation([a * e for e in ests], [a * r for r in refs],
                                    EvalConfig(proj_len=L))
        runs.append((np.stack([m.sdr, m.sir, m.sar]), [str(w.message) for w in caught]))
    (unit, unit_warnings), (scaled, scaled_warnings) = runs
    assert np.max(np.abs(scaled - unit)) <= 1e-9
    assert scaled_warnings == unit_warnings


class TestProjector:
    def test_batch_equals_each_estimate_alone(self):
        rng = np.random.default_rng(71)
        refs = [rng.normal(size=900) for _ in range(3)]
        ests = [rng.normal(size=900) + refs[i] for i in range(3)]
        projector = _Projector(refs, EvalConfig(proj_len=32))
        together = projector.decompose(ests)
        for est, parts in zip(ests, together):
            alone = projector.decompose([est])[0]
            for got, want in zip(parts, alone):
                assert np.allclose(np.stack(got), np.stack(want), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 31, 32])
    def test_short_references_match_the_oracle(self, n):
        # n <= L: the delayed copies overhang, and every lag still counts once.
        rng = np.random.default_rng(72 + n)
        refs = [rng.normal(size=n), rng.normal(size=n)]
        est = 0.8 * refs[0] + 0.3 * refs[1] + 0.1 * rng.normal(size=n)
        with warnings_catcher():
            parts = _Projector(refs, EvalConfig(proj_len=32)).decompose([est])[0]
        for j in range(2):
            for got, want in zip(parts[j], ridge_oracle(est, refs, 32, j)):
                assert np.allclose(got, want, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("n", [1, 3, 100, 511, 512])
    def test_short_mixture_scores_at_default_taps(self, n):
        rng = np.random.default_rng(73)
        refs = [rng.normal(size=n), rng.normal(size=n)]
        with warnings_catcher():
            m = resolve_permutation([refs[1] + 0.1 * refs[0], refs[0].copy()], refs)
        assert np.all(np.isfinite(m.sdr) & np.isfinite(m.sir) & np.isfinite(m.sar))
        if n >= 100:   # below that, 512 delays of either reference fit either estimate
            assert m.permutation == (1, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_named(self, bad):
        refs = [np.ones(50), np.arange(50.0)]
        est = np.ones(50)
        est[7] = bad
        with pytest.raises(ValueError, match="estimate 1 contains NaN or inf"):
            resolve_permutation([np.ones(50), est], refs, EvalConfig(proj_len=4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_named(self, bad):
        refs = [np.ones(50), np.arange(50.0)]
        refs[0][3] = bad
        with pytest.raises(ValueError, match="reference 0 contains NaN or inf"):
            bss_decompose(np.ones(50), refs, 0, EvalConfig(proj_len=4))

    def test_failed_factor_falls_back_to_least_squares(self, monkeypatch):
        from danet import bsseval

        rng = np.random.default_rng(75)
        refs = [rng.normal(size=400), rng.normal(size=400)]
        ests = [refs[0] + 0.2 * refs[1], refs[1] + 0.1 * rng.normal(size=400)]
        cfg = EvalConfig(proj_len=8)
        expect = _Projector(refs, cfg).decompose(ests)
        factor = bsseval.cho_factor

        def refuse_all_refs(a, **kwargs):
            if a.shape[0] > 8:
                raise np.linalg.LinAlgError("not positive definite")
            return factor(a, **kwargs)

        monkeypatch.setattr(bsseval, "cho_factor", refuse_all_refs)
        with warnings_catcher() as caught:
            got = _Projector(refs, cfg).decompose(ests)
        assert [str(w.message) for w in caught] == [
            "singular projection system; falling back to least squares"]
        for got_parts, want_parts in zip(got, expect):
            for g, w in zip(got_parts, want_parts):
                assert np.allclose(np.stack(g), np.stack(w), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("case, expected", [
        ("silent reference 0", 2),   # the all-references factor and target 0's
        ("silent reference 1", 2),   # the all-references factor and target 1's
        ("identical stems", 1),      # the all-references factor only
    ])
    def test_one_warning_per_deficient_factor(self, case, expected):
        rng = np.random.default_rng(74)
        a, b = rng.normal(size=600), rng.normal(size=600)
        refs = {"silent reference 0": [np.zeros(600), b],
                "silent reference 1": [a, np.zeros(600)],
                "identical stems": [a, a.copy()]}[case]
        for L in (1, 8, 64):
            with warnings_catcher() as caught:
                resolve_permutation([a + b, a - b], refs, EvalConfig(proj_len=L))
            assert [str(w.message) for w in caught] == (
                ["rank-deficient references; projection is regularized"] * expected)

    def test_one_workspace_scores_like_fresh_projectors(self, monkeypatch):
        from danet import bsseval

        factor = bsseval.cho_factor

        def refusing(size):
            """cho_factor, refusing every matrix of `size` rows."""
            def refuse(a, **kwargs):
                if a.shape[0] == size:
                    raise np.linalg.LinAlgError("not positive definite")
                return factor(a, **kwargs)
            return refuse

        rng = np.random.default_rng(76)
        # (N, n, L, what to break): the buffers grow, serve smaller sets and
        # grow again; the singular fallbacks run in the middle of the run.
        cases = [(1, 300, 8, None), (2, 900, 64, None), (2, 500, 16, "silent"),
                 (3, 700, 32, "all refs refused"), (2, 400, 8, None),
                 (3, 800, 16, "own blocks refused"), (3, 1200, 64, None),
                 (1, 600, 128, None), (2, 1000, 96, None)]
        workspace = bsseval.Workspace()
        for N, n, L, broken in cases:
            refs = [rng.normal(size=n) for _ in range(N)]
            if broken == "silent":
                refs[1] = np.zeros(n)
            ests = [refs[(i + 1) % N] + 0.3 * rng.normal(size=n) for i in range(N)]
            cfg = EvalConfig(proj_len=L)
            with warnings_catcher():
                unbroken = _Projector(refs, cfg).decompose(ests)
            runs = []
            with monkeypatch.context() as patch:
                if broken is not None and broken.endswith("refused"):
                    patch.setattr(bsseval, "cho_factor",
                                  refusing(N * L if broken == "all refs refused" else L))
                for ws in (None, workspace):
                    with warnings_catcher() as caught:
                        m = resolve_permutation(ests, refs, cfg, workspace=ws)
                        parts = _Projector(refs, cfg, ws).decompose(ests)
                    runs.append(([v.tobytes() for v in (m.sdr, m.sir, m.sar)], m.permutation,
                                 [str(w.message) for w in caught],
                                 [p.tobytes() for est_parts in parts
                                  for target in est_parts for p in target]))
            assert runs[1] == runs[0], (N, n, L, broken)
            if broken is not None:
                assert runs[0][2], broken
            # A least-squares fallback solves what the factors it replaces solve.
            for got_parts, want_parts in zip(parts, unbroken):
                for g, w in zip(got_parts, want_parts):
                    assert np.allclose(np.stack(g), np.stack(w), rtol=0, atol=1e-9), broken
            buffers = list(workspace._flat.values())
            assert not any(np.shares_memory(p, b) for est_parts in parts
                           for target in est_parts for p in target for b in buffers)


class TestSdrSirSar:
    def test_exact_estimate_hits_cap(self):
        ref = np.sin(np.arange(3000) * 0.05)
        other = np.cos(np.arange(3000) * 0.11)
        sdr, sir, sar = sdr_sir_sar(ref.copy(), [ref, other], 0, L1)
        assert sdr == sir == sar == 100.0

    def test_ten_percent_orthogonal_noise_is_20db(self):
        rng = np.random.default_rng(62)
        ref = np.sin(2 * np.pi * 440 * np.arange(8000) / 8000)
        noise = rng.normal(size=8000)
        noise -= (noise @ ref) / (ref @ ref) * ref
        noise *= 0.1 * np.linalg.norm(ref) / np.linalg.norm(noise)
        sdr, _, sar = sdr_sir_sar(ref + noise, [ref], 0, L1)
        assert sdr == pytest.approx(20.0, abs=0.01)
        assert sar == pytest.approx(20.0, abs=0.01)

    def test_zero_estimate_reports_minus_cap(self):
        ref = np.sin(np.arange(1000) * 0.07)
        sdr, sir, sar = sdr_sir_sar(np.zeros(1000), [ref], 0, L1)
        assert sdr == -100.0 and sir == -100.0 and sar == -100.0

    @pytest.mark.parametrize("cap", [0.0, -1.0, float("nan")])
    def test_non_positive_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="sdr_cap"):
            EvalConfig(sdr_cap=cap)

    def test_scale_invariance(self):
        rng = np.random.default_rng(63)
        refs = [rng.normal(size=1500), rng.normal(size=1500)]
        est = refs[0] + 0.4 * refs[1] + 0.05 * rng.normal(size=1500)
        for cfg in (L1, EvalConfig(proj_len=8)):
            base = sdr_sir_sar(est, refs, 0, cfg)
            scaled = sdr_sir_sar(7.3 * est, refs, 0, cfg)
            assert np.allclose(base, scaled, atol=1e-6)

    def test_matches_dense_reference_for_two_sources(self):
        # Independent dense-matrix implementation of the same L-tap metrics.
        rng = np.random.default_rng(64)
        n, L = 600, 6
        refs = [rng.normal(size=n), rng.normal(size=n)]
        est = 0.9 * refs[0] + 0.2 * refs[1] + 0.05 * rng.normal(size=n)
        cfg = EvalConfig(proj_len=L)
        got = sdr_sir_sar(est, refs, 0, cfg)

        padded_len = n + L - 1
        est_pad = np.concatenate([est, np.zeros(L - 1)])
        cols = []
        for r in refs:
            for tau in range(L):
                col = np.zeros(padded_len)
                col[tau:tau + n] = r
                cols.append(col)
        a_all = np.stack(cols, axis=1)
        a_tgt = a_all[:, :L]
        s = a_tgt @ np.linalg.lstsq(a_tgt, est_pad, rcond=None)[0]
        p_all = a_all @ np.linalg.lstsq(a_all, est_pad, rcond=None)[0]
        ei, ea = p_all - s, est_pad - p_all
        expect = (10 * np.log10(np.sum(s**2) / np.sum((ei + ea)**2)),
                  10 * np.log10(np.sum(s**2) / np.sum(ei**2)),
                  10 * np.log10(np.sum((s + ei)**2) / np.sum(ea**2)))
        assert np.allclose(got, expect, atol=1e-6)


class TestResolvePermutation:
    def make_pair(self, seed=65):
        rng = np.random.default_rng(seed)
        refs = [rng.normal(size=2000), rng.normal(size=2000)]
        return refs

    def test_identity(self):
        refs = self.make_pair()
        m = resolve_permutation([r.copy() for r in refs], refs, L1)
        assert m.permutation == (0, 1)
        assert np.all(m.sdr == 100.0)

    def test_swap(self):
        refs = self.make_pair()
        m_swap = resolve_permutation([refs[1].copy(), refs[0].copy()], refs, L1)
        assert m_swap.permutation == (1, 0)
        assert np.all(m_swap.sdr == 100.0)

    def test_matches_brute_force_on_perturbed_estimates(self):
        rng = np.random.default_rng(66)
        refs = self.make_pair(67)
        ests = [refs[1] + 0.2 * rng.normal(size=2000),
                refs[0] + 0.3 * rng.normal(size=2000)]
        m = resolve_permutation(ests, refs, L1)

        best_perm, best_sir = None, -np.inf
        for perm in itertools.permutations(range(2)):
            sirs = [sdr_sir_sar(ests[i], refs, perm[i], L1)[1] for i in range(2)]
            if np.mean(sirs) > best_sir:
                best_perm, best_sir = perm, np.mean(sirs)
        assert m.permutation == best_perm == (1, 0)

    def test_symmetric_relabeling_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(68)
        refs = self.make_pair(69)
        ests = [refs[0] + 0.1 * rng.normal(size=2000),
                refs[1] + 0.1 * rng.normal(size=2000)]
        m = resolve_permutation(ests, refs, L1)
        m_flipped = resolve_permutation(ests[::-1], refs[::-1], L1)
        assert sorted(m.sdr) == pytest.approx(sorted(m_flipped.sdr), abs=1e-9)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="estimates"):
            resolve_permutation([np.ones(10)], [np.ones(10), np.ones(10)], L1)

    def test_too_many_sources_rejected(self):
        sigs = [np.random.default_rng(i).normal(size=50) for i in range(5)]
        with pytest.raises(ValueError, match="limited"):
            resolve_permutation(sigs, sigs, L1)


class TestEvaluateSet:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        from danet.corpus import DatasetRecipe, build_dataset, synth_corpus

        root = tmp_path_factory.mktemp("evalset")
        table = synth_corpus(root / "corpus", n_speakers=5, utts_per_speaker=4,
                             dur=1.5, seed=21)
        build_dataset(table, DatasetRecipe(train_s=9.0, valid_s=3.0, test_s=4.5,
                                           seed=21), root / "mix")
        return root / "mix" / "manifest.jsonl"

    def test_mixture_baseline_sdr_tracks_mixing_snr(self, dataset, tmp_path):
        # With the mixture as the estimate and L=1, speaker 1 scores about
        # +snr and speaker 2 about -snr (its stem carries the mixing gain).
        import csv

        from danet.bsseval import evaluate_set
        from danet.corpus import load_manifest

        out = tmp_path / "mixture.csv"
        evaluate_set(dataset, None, "mixture", L1, out)
        recs = {r.utt_id: r for r in load_manifest(dataset) if r.split == "test"}
        checked = 0
        with open(out) as fh:
            for row in csv.DictReader(fh):
                if row["utt_id"] == "MEAN":
                    continue
                rec = recs[row["utt_id"]]
                expected = rec.snr_db if row["permuted_to"] == "0" else -rec.snr_db
                assert abs(float(row["sdr_db"]) - expected) < 1.0
                checked += 1
        assert checked >= 2

    def test_oracle_report_structure(self, dataset, tmp_path):
        from danet.bsseval import evaluate_set

        out = tmp_path / "oracle.csv"
        summary = evaluate_set(dataset, None, "oracle_wfm", EvalConfig(proj_len=64), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "utt_id,speaker,permuted_to,sdr_db,sir_db,sar_db,pesq"
        assert lines[-1].startswith("MEAN,")
        assert 2 * summary["count"] == len(lines) - 2  # two speakers per utterance
        assert summary["sdr"] > 5.0

    # The fan-out: with two usable cores and one BLAS thread per worker
    # evaluate_set scores in forked workers; with one core it scores in this
    # process, the serial reference.

    @staticmethod
    def use_cores(monkeypatch, n, blas_threads="1"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)

    @pytest.mark.parametrize("cores, blas_threads, records, workers", [
        (2, "1", 40, 2), (2, "1", 1, 1), (1, "1", 40, 1), (8, "2", 40, 4),
        (2, None, 40, 1), (2, "4", 40, 1), (2, "auto", 40, 1)])
    def test_worker_count_leaves_one_core_per_blas_thread(self, monkeypatch, cores,
                                                         blas_threads, records, workers):
        from danet.bsseval import _worker_count

        self.use_cores(monkeypatch, cores, blas_threads)
        assert _worker_count(records) == workers

    @pytest.fixture(scope="class")
    def tiny_ckpt(self, dataset):
        from danet.network import ArchSpec
        from danet.pipeline import HyperParams, train

        arch = ArchSpec(input_dim=129, num_layers=1, hidden_per_direction=8, embed_dim=4)
        return train(dataset, HyperParams(epochs=1, batch_size=4), arch).best

    @pytest.mark.parametrize("algo", ["oracle_wfm", "oracle_ibm", "mixture", "kmeans", "gmm"])
    def test_workers_match_the_in_process_run(self, dataset, tiny_ckpt, tmp_path,
                                              monkeypatch, algo):
        from danet import bsseval

        pids = tmp_path / "pids"
        scored = bsseval.resolve_permutation

        def spy(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return scored(*args, **kwargs)

        monkeypatch.setattr(bsseval, "resolve_permutation", spy)
        ckpt = tiny_ckpt if algo in ("kmeans", "gmm") else None
        reports = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            out = tmp_path / f"{cores}.csv"
            summary = bsseval.evaluate_set(dataset, ckpt, algo, EvalConfig(proj_len=64), out)
            reports.append((out.read_bytes(), summary))
        assert reports[0] == reports[1]
        assert reports[0][1]["count"] >= 2
        # The two-core run scored in processes other than this one.
        assert set(pids.read_text().split()) - {str(os.getpid())}

    def test_one_workspace_per_process(self, dataset, tmp_path, monkeypatch):
        from danet import bsseval

        rows = [json.loads(line) for line in dataset.read_text().splitlines()]
        for r in rows[1:]:
            r["mixture_path"] = str(dataset.parent / r["mixture_path"])
            r["source_paths"] = [str(dataset.parent / p) for p in r["source_paths"]]
        five = [r for r in rows if r.get("split") == "test"]
        five += [dict(r, split="test") for r in rows if r.get("split") == "valid"]
        assert len(five) == 5
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows[:1] + five))

        made, scored = tmp_path / "made", tmp_path / "scored"

        class Spy(bsseval.Workspace):
            def __init__(self):
                super().__init__()
                with open(made, "a") as fh:
                    fh.write(f"{os.getpid()} {id(self)}\n")

        score = bsseval.resolve_permutation

        def spy(*args, workspace=None, **kwargs):
            with open(scored, "a") as fh:
                fh.write(f"{os.getpid()} {id(workspace)}\n")
            return score(*args, workspace=workspace, **kwargs)

        monkeypatch.setattr(bsseval, "Workspace", Spy)
        monkeypatch.setattr(bsseval, "resolve_permutation", spy)
        for cores in (1, 2):
            made.write_text("")
            scored.write_text("")
            self.use_cores(monkeypatch, cores)
            bsseval.evaluate_set(manifest, None, "mixture", EvalConfig(proj_len=8),
                                 tmp_path / "r.csv")
            made_by = [line.split()[0] for line in made.read_text().splitlines()]
            uses = scored.read_text().splitlines()
            assert len(uses) == 5
            # Each process made one workspace and scored every record it took in it.
            assert len(made_by) == len(set(made_by)) == cores
            assert set(uses) <= set(made.read_text().splitlines())
            if cores == 2:
                assert str(os.getpid()) not in made_by

    def test_worker_warnings_reach_the_caller(self, dataset, tmp_path, monkeypatch):
        from danet.bsseval import evaluate_set

        rows = [json.loads(line) for line in dataset.read_text().splitlines()]
        tests = [r for r in rows if r.get("split") == "test"][:2]
        for r in tests:
            r["mixture_path"] = str(dataset.parent / r["mixture_path"])
            r["source_paths"] = [str(dataset.parent / p) for p in r["source_paths"]]
        tests[1]["source_paths"] = [tests[1]["source_paths"][0]] * 2  # identical stems
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows[:1] + tests))

        seen = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            with pytest.warns(UserWarning, match="rank-deficient") as caught:
                evaluate_set(manifest, None, "mixture", EvalConfig(proj_len=8),
                             tmp_path / "r.csv")
            seen.append([(w.category, w.filename, w.lineno, str(w.message)) for w in caught])
        assert seen[0] == seen[1]
        assert all(filename.endswith("bsseval.py") for _, filename, _, _ in seen[1])

    def test_worker_errors_reach_the_caller(self, dataset, tiny_ckpt, tmp_path, monkeypatch):
        from danet.bsseval import evaluate_set

        wrong_rate = dataclasses.replace(tiny_ckpt, sample_rate=16000)
        errors = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            with pytest.raises(ValueError, match="16000 Hz") as info:
                evaluate_set(dataset, wrong_rate, "gmm", EvalConfig(proj_len=8),
                             tmp_path / "r.csv")
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_a_worker_that_dies_is_reported(self, dataset, tmp_path, monkeypatch,
                                            running_children):
        from danet import bsseval, pipeline

        self.use_cores(monkeypatch, 2)
        parent = os.getpid()
        real = pipeline.estimate

        def dying_in_the_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "estimate", dying_in_the_worker)
        with pytest.raises(RuntimeError, match=r"evaluation worker \(pid (\d+)\) exited") as info:
            bsseval.evaluate_set(dataset, None, "oracle_wfm", EvalConfig(proj_len=8),
                                 tmp_path / "r.csv")
        assert int(re.search(r"pid (\d+)", str(info.value)).group(1)) != parent
        assert not running_children()

    def test_off_rate_stem_refused_by_name(self, dataset, tmp_path, monkeypatch):
        from danet.bsseval import evaluate_set
        from danet.dsp import read_pcm16, write_pcm16

        rows = [json.loads(line) for line in dataset.read_text().splitlines()]
        tests = [r for r in rows if r.get("split") == "test"]
        for r in tests:
            r["mixture_path"] = str(dataset.parent / r["mixture_path"])
            r["source_paths"] = [str(dataset.parent / p) for p in r["source_paths"]]
        stem = tmp_path / "stem16k.wav"
        write_pcm16(stem, read_pcm16(tests[0]["source_paths"][0])[0], 16000)
        tests[0]["source_paths"][0] = str(stem)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows[:1] + tests))

        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            with pytest.raises(ValueError, match=re.escape(f"{stem}: audio is 16000 Hz")):
                evaluate_set(manifest, None, "oracle_wfm", EvalConfig(proj_len=8),
                             tmp_path / "r.csv")

    def test_bad_algo_rejected_before_scoring(self, dataset, tmp_path):
        from danet.bsseval import evaluate_set

        with pytest.raises(ValueError, match="needs a checkpoint"):
            evaluate_set(dataset, None, "gmm", L1, tmp_path / "r.csv")
        with pytest.raises(ValueError, match="unknown evaluation algo"):
            evaluate_set(dataset, None, "nope", L1, tmp_path / "r.csv")
