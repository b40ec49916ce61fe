"""Acceptance suite: one test (or test group) per release criterion.

The desk-scale checkpoint is trained once per session and shared by the
criteria that score it, as is its `gmm` evaluation, which criteria 6 and 7
both read. Each criterion prints a PASS/FAIL line in the terminal summary
(see conftest).
"""

import itertools
import time

import numpy as np
import pytest

from danet.bsseval import EvalConfig, evaluate_set, resolve_permutation, sdr_sir_sar
from danet.clustering import GmmModel, gmm_fit, gmm_posterior, kmeans
from danet.corpus import DatasetRecipe, build_dataset, synth_corpus
from danet.dsp import StftConfig, Waveform, istft, stft
from danet.network import (
    ArchSpec,
    TINY_NET,
    count_params,
    finite_difference_check,
)
from danet.pipeline import (
    HyperParams,
    load_checkpoint,
    save_checkpoint,
    train,
)

DESK_ARCH = ArchSpec(input_dim=129, num_layers=2, hidden_per_direction=64,
                     embed_dim=10)
DESK_HYPER = HyperParams(epochs=50, seed=0)


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    """Synthetic corpus and mixture set at the desk-scale recipe (6/2/2 min)."""
    root = tmp_path_factory.mktemp("desk")
    table = synth_corpus(root / "corpus", seed=0)
    build_dataset(table, DatasetRecipe(seed=0), root / "mix")
    return root / "mix" / "manifest.jsonl"


@pytest.fixture(scope="session")
def desk_checkpoint(desk_dataset, tmp_path_factory):
    """The criterion-6 training run (50 epochs, reduced architecture)."""
    result = train(desk_dataset, DESK_HYPER, DESK_ARCH)
    path = tmp_path_factory.mktemp("ckpt") / "desk.danc"
    save_checkpoint(result.best, path)
    return {"log": result.log, "path": path}


@pytest.fixture(scope="session")
def desk_gmm(desk_dataset, desk_checkpoint, tmp_path_factory):
    """The `gmm` evaluation of the criterion-6 checkpoint, run once for
    criteria 6 and 7, with its wall time: each criterion's time bound covers
    these seconds plus its own."""
    started = time.perf_counter()
    ckpt = load_checkpoint(desk_checkpoint["path"])
    summary = evaluate_set(desk_dataset, ckpt, "gmm", EvalConfig(),
                           tmp_path_factory.mktemp("gmm") / "gmm.csv")
    return {"summary": summary, "seconds": time.perf_counter() - started}


@pytest.mark.criterion(1, "parameter count reproduces both published totals exactly")
def test_criterion_1_parameter_count_oracle():
    started = time.perf_counter()
    assert count_params(ArchSpec(cell_kind="gru")) == 7_197_180
    assert count_params(ArchSpec(cell_kind="lstm")) == 9_079_380
    assert time.perf_counter() - started < 1.0


@pytest.mark.criterion(2, "analytic gradients match finite differences to 1e-4")
def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    max_err, per_tensor = finite_difference_check(TINY_NET, seed=0, step=1e-5)
    assert max_err < 1e-4, f"max relative error {max_err:.3e}"
    assert set(per_tensor) == {f"l0.{d}.{t}" for d in ("fw", "bw")
                               for t in ("W", "U", "b_i", "b_h")} | {"fc.W", "fc.b"}
    assert time.perf_counter() - started < 30.0


@pytest.mark.criterion(3, "istft(stft(x)) is the identity to 1e-6 relative L2")
def test_criterion_3_stft_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    cfg = StftConfig()
    for trial in range(100):
        n = int(rng.integers(64, 12000))
        x = rng.normal(size=n)
        back = istft(stft(Waveform(x, 8000), cfg))
        assert back.samples.size == n
        err = np.linalg.norm(back.samples - x) / max(np.linalg.norm(x), 1e-300)
        assert err < 1e-6, f"trial {trial}: n={n}, relative error {err:.2e}"
    assert time.perf_counter() - started < 10.0


@pytest.mark.criterion(4, "EM log-likelihood is monotone; small-sigma GMM = k-means")
def test_criterion_4_em_monotonicity_and_reduction():
    started = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        parts = [rng.normal(size=(30, 4)) * rng.uniform(0.4, 1.5)
                 + rng.uniform(-4, 4, size=4) for _ in range(k)]
        model = gmm_fit(np.vstack(parts), k, seed=seed)
        hist = model.ll_history
        assert len(hist) >= 2
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev)), f"seed {seed}"

    rng = np.random.default_rng(777)
    blob_a = rng.normal(size=(80, 3)) * 0.5
    blob_b = rng.normal(size=(80, 3)) * 0.5 + 6.0
    points = np.vstack([blob_a, blob_b])
    km = kmeans(points, 2, seed=0)
    sigma = 1e-3 * float(np.std(points))
    frozen = GmmModel(weights=np.array([0.5, 0.5]), means=km.centers,
                      covariances=np.stack([sigma ** 2 * np.eye(3)] * 2),
                      log_likelihood=0.0)
    labels = np.argmax(gmm_posterior(frozen, points), axis=1)
    assert np.array_equal(labels, km.assignments)
    assert time.perf_counter() - started < 30.0


@pytest.mark.criterion(5, "ideal masks reach mean SDR >= 10 dB (soft) / 5 dB (binary)")
def test_criterion_5_oracle_separation_bound(desk_dataset, tmp_path):
    started = time.perf_counter()
    wfm = evaluate_set(desk_dataset, None, "oracle_wfm", EvalConfig(),
                       tmp_path / "wfm.csv")
    ibm = evaluate_set(desk_dataset, None, "oracle_ibm", EvalConfig(),
                       tmp_path / "ibm.csv")
    assert wfm["sdr"] >= 10.0, f"soft-mask oracle SDR {wfm['sdr']:.2f} dB"
    assert ibm["sdr"] >= 5.0, f"binary-mask oracle SDR {ibm['sdr']:.2f} dB"
    assert time.perf_counter() - started < 120.0


@pytest.mark.criterion(6, "desk-scale training halves validation loss and beats "
                          "the mixture baseline by 3 dB")
def test_criterion_6_end_to_end_learning(desk_dataset, desk_checkpoint, desk_gmm,
                                        tmp_path):
    started = time.perf_counter() - desk_gmm["seconds"]
    rows = desk_checkpoint["log"].rows
    assert len(rows) == 50
    ratio = rows[-1].val_loss / rows[0].val_loss
    assert ratio < 0.5, f"epoch-50/epoch-1 validation loss ratio {ratio:.3f}"

    model = desk_gmm["summary"]
    baseline = evaluate_set(desk_dataset, None, "mixture", EvalConfig(),
                            tmp_path / "baseline.csv")
    margin = model["sdr"] - baseline["sdr"]
    assert margin >= 3.0, (f"model SDR {model['sdr']:.2f} dB vs baseline "
                           f"{baseline['sdr']:.2f} dB (margin {margin:.2f})")
    assert time.perf_counter() - started < 7200.0


@pytest.mark.criterion(7, "GMM clustering is non-inferior to k-means (0.1 dB)")
def test_criterion_7_gmm_vs_kmeans(desk_dataset, desk_checkpoint, desk_gmm, tmp_path):
    started = time.perf_counter() - desk_gmm["seconds"]
    ckpt = load_checkpoint(desk_checkpoint["path"])
    gmm = desk_gmm["summary"]
    km = evaluate_set(desk_dataset, ckpt, "kmeans", EvalConfig(), tmp_path / "km.csv")
    assert gmm["sdr"] >= km["sdr"] - 0.1, (
        f"GMM SDR {gmm['sdr']:.2f} dB vs k-means {km['sdr']:.2f} dB")
    assert time.perf_counter() - started < 600.0


@pytest.mark.criterion(8, "fixed seeds reproduce training bit-exactly; "
                          "checkpoints round-trip and resume losslessly")
def test_criterion_8_determinism_and_persistence(tmp_path):
    started = time.perf_counter()
    table = synth_corpus(tmp_path / "corpus", n_speakers=4, utts_per_speaker=4,
                         dur=1.0, seed=9)
    build_dataset(table, DatasetRecipe(train_s=6.0, valid_s=2.0, test_s=2.0, seed=9),
                  tmp_path / "mix")
    manifest = tmp_path / "mix" / "manifest.jsonl"
    arch = ArchSpec(input_dim=129, num_layers=1, hidden_per_direction=8, embed_dim=4)
    hyper = HyperParams(epochs=3, batch_size=4, seed=11)

    run_a = train(manifest, hyper, arch)
    run_b = train(manifest, hyper, arch)
    assert run_a.log.deterministic_rows() == run_b.log.deterministic_rows()

    path = tmp_path / "last.danc"
    save_checkpoint(run_a.last, path)
    loaded = load_checkpoint(path)
    for name in run_a.last.params.tensors:
        assert np.array_equal(loaded.params.tensors[name],
                              run_a.last.params.tensors[name])
        assert np.array_equal(loaded.adam.m[name], run_a.last.adam.m[name])
        assert np.array_equal(loaded.adam.v[name], run_a.last.adam.v[name])

    short = train(manifest, HyperParams(epochs=2, batch_size=4, seed=11), arch)
    resumed = train(manifest, HyperParams(epochs=1, batch_size=4, seed=11), arch,
                    resume_from=short.last)
    for name in run_a.last.params.tensors:
        assert np.array_equal(resumed.last.params.tensors[name],
                              run_a.last.params.tensors[name])
    assert resumed.log.deterministic_rows()[-1] == run_a.log.deterministic_rows()[-1]
    assert time.perf_counter() - started < 600.0


@pytest.mark.criterion(9, "BSS-eval decomposition, analytic cases, and "
                          "permutation search are correct")
def test_criterion_9_bsseval_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(900)
    L1 = EvalConfig(proj_len=1)

    # Decomposition additivity at L = 8 on random material.
    from danet.bsseval import bss_decompose

    refs = [rng.normal(size=3000), rng.normal(size=3000)]
    est = 0.7 * refs[0] + 0.2 * refs[1] + 0.1 * rng.normal(size=3000)
    cfg8 = EvalConfig(proj_len=8)
    s, ei, ea = bss_decompose(est, refs, 0, cfg8)
    est_pad = np.concatenate([est, np.zeros(7)])
    assert np.linalg.norm(s + ei + ea - est_pad) < 1e-9 * np.linalg.norm(est_pad)

    # est == ref hits the cap on all three metrics.
    vals = sdr_sir_sar(refs[0].copy(), refs, 0, L1)
    assert vals == (100.0, 100.0, 100.0)

    # ref + 10% orthogonal noise scores 20.00 +/- 0.01 dB at L = 1.
    ref = np.sin(2 * np.pi * 313 * np.arange(8000) / 8000)
    noise = rng.normal(size=8000)
    noise -= (noise @ ref) / (ref @ ref) * ref
    noise *= 0.1 * np.linalg.norm(ref) / np.linalg.norm(noise)
    sdr, _, _ = sdr_sir_sar(ref + noise, [ref], 0, L1)
    assert abs(sdr - 20.0) <= 0.01

    # Permutation search agrees with brute force for N = 2.
    ests = [refs[1] + 0.15 * rng.normal(size=3000),
            refs[0] + 0.25 * rng.normal(size=3000)]
    metrics = resolve_permutation(ests, refs, L1)
    best_perm, best_sir = None, -np.inf
    for perm in itertools.permutations(range(2)):
        mean_sir = np.mean([sdr_sir_sar(ests[i], refs, perm[i], L1)[1]
                            for i in range(2)])
        if mean_sir > best_sir:
            best_perm, best_sir = perm, mean_sir
    assert metrics.permutation == best_perm
    assert time.perf_counter() - started < 30.0
