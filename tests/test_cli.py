"""Command-line interface tests (exit codes, artifacts, reproducibility)."""

import os
import shutil
import signal
import subprocess
import sys
import time
import wave as wavefile
from pathlib import Path

import numpy as np
import pytest
import scipy

from danet import cli
from danet.bsseval import EvalConfig, evaluate_set
from danet.cli import DEFAULTS, echo_config, load_config, main
from danet.dsp import StftConfig, Waveform, read_wav, write_wav
from danet.network import ArchSpec, count_params, finite_difference_check
from danet.pipeline import HyperParams, load_checkpoint, save_checkpoint, train


def subprocess_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + mixtures + a toy trained run, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    assert main(["synth", "--out", str(root / "corpus"), "--speakers", "4",
                 "--utts", "4", "--dur", "1.0", "--seed", "2"]) == 0
    assert main(["mix", "--corpus", str(root / "corpus"), "--out", str(root / "mix"),
                 "--train-min", "0.1", "--valid-min", "0.04", "--test-min", "0.04",
                 "--seed", "2"]) == 0
    assert main(["train", "--manifest", str(root / "mix" / "manifest.jsonl"),
                 "--out", str(root / "run"), "--epochs", "2", "--batch-size", "4",
                 "--layers", "1", "--hidden", "8", "--embed-dim", "4",
                 "--seed", "2"]) == 0
    return root


class TestSynthAndMix:
    def test_synth_writes_playable_wavs(self, workspace):
        wav = next((workspace / "corpus" / "spk00").glob("*.wav"))
        with wavefile.open(str(wav)) as fh:
            assert fh.getframerate() == 8000
            assert fh.getnchannels() == 1
            assert fh.getsampwidth() == 2

    def test_mix_is_reproducible(self, workspace, tmp_path):
        rc = main(["mix", "--corpus", str(workspace / "corpus"),
                   "--out", str(tmp_path / "mix2"), "--train-min", "0.1",
                   "--valid-min", "0.04", "--test-min", "0.04", "--seed", "2"])
        assert rc == 0
        a = (workspace / "mix" / "manifest.jsonl").read_bytes()
        b = (tmp_path / "mix2" / "manifest.jsonl").read_bytes()
        assert a == b

    def test_mix_reports_skipped_corpus_files(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        bad = sorted((corpus / "spk01").glob("*.wav"))[1]
        bad.write_bytes(bad.read_bytes()[:30])
        rc = main(["mix", "--corpus", str(corpus), "--out", str(tmp_path / "mix"),
                   "--train-min", "0.1", "--valid-min", "0.04", "--test-min", "0.04",
                   "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"; skipped 1 unreadable or empty corpus file(s), first {bad}: " in out

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        rc = main(["mix", "--corpus", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "mix.corpus" in capsys.readouterr().err

    def test_effective_config_echoed(self, workspace):
        text = (workspace / "mix" / "effective_config.txt").read_text()
        assert "mix.seed=2" in text
        assert "train.lr0=0.001" in text


class TestTrainCommand:
    def test_artifacts_written(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint.danc").is_file()
        assert (run / "last.danc").is_file()
        log_lines = (run / "trainlog.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,train_loss,val_loss,lr,seconds"
        assert len(log_lines) == 3

    def test_zero_epochs_exits_2(self, workspace, tmp_path):
        rc = main(["train", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                   "--out", str(tmp_path), "--epochs", "0"])
        assert rc == 2

    def test_resume_continues_epoch_numbering(self, workspace):
        rc = main(["train", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                   "--out", str(workspace / "run"), "--epochs", "1",
                   "--batch-size", "4", "--layers", "1", "--hidden", "8",
                   "--embed-dim", "4", "--seed", "2", "--resume"])
        assert rc == 0
        lines = (workspace / "run" / "trainlog.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_resume_without_improvement_keeps_best_and_log(self, workspace, tmp_path):
        run = tmp_path / "run"
        args = ["train", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                "--out", str(run), "--epochs", "2", "--batch-size", "4", "--layers", "1",
                "--hidden", "8", "--embed-dim", "4", "--lr0", "0.1", "--seed", "1"]
        assert main(args) == 0
        best = (run / "checkpoint.danc").read_bytes()
        assert main(args + ["--resume"]) == 0
        rows = [line.split(",") for line in (run / "trainlog.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        val = [float(r[2]) for r in rows]
        assert min(val[2:]) > val[1] == min(val)  # the recipe peaks at epoch 2
        assert (run / "checkpoint.danc").read_bytes() == best

    def test_resume_at_another_stft_geometry_exits_1(self, workspace, tmp_path, capsys):
        args = ["train", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                "--out", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "4",
                "--layers", "1", "--hidden", "8", "--embed-dim", "4", "--seed", "2"]
        assert main(["--set", "stft.hop=32", *args]) == 0
        last = (tmp_path / "run" / "last.danc").read_bytes()
        assert main([*args, "--resume"]) == 1
        assert "hop=32" in capsys.readouterr().err
        assert (tmp_path / "run" / "last.danc").read_bytes() == last

    @pytest.mark.parametrize("k", [1, 2])
    def test_interrupted_run_resumes_to_the_same_files(self, workspace, tmp_path,
                                                       monkeypatch, k):
        # The best is epoch 2, and epoch 3 halves the rate.
        args = ["--set", "train.patience=1", "train",
                "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                "--batch-size", "4", "--layers", "1", "--hidden", "8", "--embed-dim", "4",
                "--lr0", "0.1", "--seed", "3"]
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        assert main([*args, "--out", str(whole), "--epochs", "3"]) == 0

        real_save = cli.save_checkpoint

        def save_then_stop(ckpt, path):
            real_save(ckpt, path)
            if path.name == "last.danc" and ckpt.epoch == k:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_checkpoint", save_then_stop)
        with pytest.raises(KeyboardInterrupt):
            main([*args, "--out", str(cut), "--epochs", "3"])
        monkeypatch.undo()
        assert len((cut / "trainlog.csv").read_text().splitlines()) == 1 + k
        assert main([*args, "--out", str(cut), "--epochs", str(3 - k), "--resume"]) == 0

        for name in ("checkpoint.danc", "last.danc"):
            assert (cut / name).read_bytes() == (whole / name).read_bytes(), name

        def without_seconds(run):
            return [line.rsplit(",", 1)[0]
                    for line in (run / "trainlog.csv").read_text().splitlines()]

        assert without_seconds(cut) == without_seconds(whole)
        assert [line.split(",")[0] for line in without_seconds(whole)] == [
            "epoch", "1", "2", "3"]
        assert (load_checkpoint(whole / "checkpoint.danc").epoch,
                load_checkpoint(whole / "last.danc").lr) == (2, 0.05)

    def test_best_is_a_snapshot_of_its_epoch(self, workspace, tmp_path):
        # The recipe above, whose best is epoch 2 of 3, run through the library.
        def progress(row, ckpt, is_best):
            save_checkpoint(ckpt, tmp_path / f"epoch{row.epoch}.danc")

        result = train(workspace / "mix" / "manifest.jsonl",
                       HyperParams(lr0=0.1, lr_halve_patience=1, epochs=3, batch_size=4,
                                   seed=3),
                       ArchSpec(num_layers=1, hidden_per_direction=8, embed_dim=4),
                       progress=progress)
        save_checkpoint(result.best, tmp_path / "best.danc")
        save_checkpoint(result.last, tmp_path / "last.danc")
        best = (tmp_path / "best.danc").read_bytes()
        assert result.best.epoch == 2
        assert best == (tmp_path / "epoch2.danc").read_bytes()
        assert best != (tmp_path / "last.danc").read_bytes()
        assert not all(np.array_equal(result.best.params.tensors[k], t)
                       for k, t in result.last.params.tensors.items())

    def test_lstm_cells_refused(self, workspace, tmp_path, capsys):
        rc = main(["--set", "arch.cell=lstm", "train",
                   "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                   "--out", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "4",
                   "--layers", "1", "--hidden", "8", "--embed-dim", "4"])
        assert rc == 1
        assert "only GRU cells are trainable" in capsys.readouterr().err
        assert not list((tmp_path / "run").iterdir())

    def test_refused_resume_keeps_the_earlier_config(self, workspace, tmp_path):
        args = ["train", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                "--out", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "4",
                "--layers", "1", "--hidden", "8", "--embed-dim", "4", "--seed", "2"]
        assert main(["--set", "stft.hop=32", *args]) == 0
        config = (tmp_path / "run" / "effective_config.txt").read_bytes()
        assert b"stft.hop=32\n" in config
        assert main([*args, "--resume"]) == 1
        assert (tmp_path / "run" / "effective_config.txt").read_bytes() == config

    def test_killed_subprocess_resumes_to_the_same_files(self, tmp_path):
        # 30 training mixtures of 2 s, so an epoch far outlasts the polling.
        assert main(["synth", "--out", str(tmp_path / "corpus"), "--speakers", "6",
                     "--utts", "8", "--dur", "2.0", "--seed", "2"]) == 0
        assert main(["mix", "--corpus", str(tmp_path / "corpus"),
                     "--out", str(tmp_path / "mix"), "--train-min", "1.0",
                     "--valid-min", "0.1", "--test-min", "0", "--seed", "2"]) == 0
        args = ["train", "--manifest", str(tmp_path / "mix" / "manifest.jsonl"),
                "--batch-size", "4", "--layers", "1", "--hidden", "8", "--embed-dim", "4",
                "--seed", "3"]
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        assert main([*args, "--out", str(whole), "--epochs", "3"]) == 0

        child = subprocess.Popen(
            [sys.executable, "-m", "danet.cli", *args, "--out", str(cut), "--epochs", "3"],
            env=subprocess_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            # last.danc follows the epoch-1 row, so epoch 1 is then resumable.
            deadline = time.monotonic() + 120
            while not (cut / "last.danc").is_file():
                assert child.poll() is None, child.stderr.read()
                assert time.monotonic() < deadline, "no epoch finished in 120 s"
                time.sleep(0.002)
            child.kill()
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stderr.close()

        assert (cut / "effective_config.txt").is_file()
        k = load_checkpoint(cut / "last.danc").epoch
        assert 1 <= k < 3
        assert len((cut / "trainlog.csv").read_text().splitlines()) >= 1 + k
        assert main([*args, "--out", str(cut), "--epochs", str(3 - k), "--resume"]) == 0
        for name in ("checkpoint.danc", "last.danc"):
            assert (cut / name).read_bytes() == (whole / name).read_bytes(), name

    def test_resume_without_checkpoint_exits_2(self, workspace, tmp_path):
        rc = main(["train", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                   "--out", str(tmp_path / "fresh"), "--resume"])
        assert rc == 2


class TestSeparateCommand:
    def test_writes_per_speaker_wavs(self, workspace, tmp_path):
        mix_wav = next((workspace / "mix" / "test").glob("*_mix.wav"))
        rc = main(["separate", "--checkpoint", str(workspace / "run" / "checkpoint.danc"),
                   "--input", str(mix_wav), "--out-dir", str(tmp_path)])
        assert rc == 0
        outs = sorted(tmp_path.glob("*_spk*.wav"))
        assert len(outs) == 2
        mix = read_wav(mix_wav)
        for out in outs:
            assert read_wav(out).samples.size == mix.samples.size

    def test_cluster_choices_differ(self, workspace, tmp_path):
        mix_wav = next((workspace / "mix" / "test").glob("*_mix.wav"))
        for algo in ("kmeans", "gmm"):
            rc = main(["separate", "--checkpoint",
                       str(workspace / "run" / "checkpoint.danc"),
                       "--input", str(mix_wav), "--out-dir", str(tmp_path / algo),
                       "--cluster", algo])
            assert rc == 0
        a = (tmp_path / "kmeans" / (mix_wav.stem + "_spk1.wav")).read_bytes()
        b = (tmp_path / "gmm" / (mix_wav.stem + "_spk1.wav")).read_bytes()
        assert a != b

    def test_incomplete_checkpoint_header_reported(self, workspace, tmp_path, capsys):
        blob = (workspace / "run" / "checkpoint.danc").read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = blob[12:12 + header_len].replace(b"arch.embed_dim=4\n", b"")
        bad = tmp_path / "bad.danc"
        bad.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header
                        + blob[12 + header_len:])
        mix_wav = next((workspace / "mix" / "test").glob("*_mix.wav"))
        rc = main(["separate", "--checkpoint", str(bad), "--input", str(mix_wav),
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "bad.danc: checkpoint header lacks arch.embed_dim" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        mix_wav = next((workspace / "mix" / "test").glob("*_mix.wav"))
        rc = main(["separate", "--checkpoint", str(tmp_path / "none.danc"),
                   "--input", str(mix_wav)])
        assert rc == 2

    def test_wrong_sample_rate_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        write_wav(bad, Waveform(0.1 * np.ones(16000), 16000))
        rc = main(["separate", "--checkpoint", str(workspace / "run" / "checkpoint.danc"),
                   "--input", str(bad)])
        assert rc == 1
        assert "8000" in capsys.readouterr().err

    def test_wrong_sample_rate_names_the_file(self, workspace, tmp_path, capsys):
        mix_wav = next((workspace / "mix" / "test").glob("*_mix.wav"))
        bad = tmp_path / "x16.wav"
        write_wav(bad, Waveform(read_wav(mix_wav).samples, 16000))
        rc = main(["separate", "--checkpoint", str(workspace / "run" / "checkpoint.danc"),
                   "--input", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"{bad}: audio is 16000 Hz" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvalCommand:
    def test_oracle_eval_writes_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["eval", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                   "--algo", "oracle_wfm", "--out", str(out), "--proj-len", "32"])
        assert rc == 0
        assert "mean SDR" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "utt_id,speaker,permuted_to,sdr_db,sir_db,sar_db,pesq"
        assert lines[-1].startswith("MEAN,")
        assert lines[1].endswith("n/a")

    def test_oracle_uses_the_run_stft_geometry(self, workspace, tmp_path):
        manifest = str(workspace / "mix" / "manifest.jsonl")
        ckpt = str(workspace / "run" / "checkpoint.danc")

        def report(name, overrides=(), checkpoint=()):
            out = tmp_path / f"{name}.csv"
            assert main([*overrides, "eval", "--manifest", manifest, "--algo", "oracle_wfm",
                         "--out", str(out), "--proj-len", "32", *checkpoint]) == 0
            return out.read_text()

        default = report("default")
        hop32 = report("hop32", ["--set", "stft.hop=32"])
        assert hop32 != default
        evaluate_set(manifest, None, "oracle_wfm", EvalConfig(proj_len=32),
                     tmp_path / "direct.csv", stft_cfg=StftConfig(hop=32))
        assert hop32 == (tmp_path / "direct.csv").read_text()
        # A checkpoint's own geometry (256/64 here) wins over stft.* keys.
        assert report("ckpt", ["--set", "stft.hop=32"], ["--checkpoint", ckpt]) == default

    def test_model_eval_requires_checkpoint(self, workspace, tmp_path):
        rc = main(["eval", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                   "--algo", "gmm", "--out", str(tmp_path / "r.csv")])
        assert rc == 2

    def test_empty_split_is_not_an_error(self, workspace, tmp_path):
        rc = main(["eval", "--manifest", str(workspace / "mix" / "manifest.jsonl"),
                   "--algo", "mixture", "--split", "nosuch",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert len(lines) == 1  # header only


class TestDiagnostics:
    def test_count_params_gru_default(self, capsys):
        assert main(["count-params", "--cell", "gru"]) == 0
        assert capsys.readouterr().out.strip() == "7197180"

    def test_count_params_lstm(self, capsys):
        assert main(["count-params", "--cell", "lstm"]) == 0
        assert capsys.readouterr().out.strip() == "9079380"

    def test_count_params_flags_reach_the_arch(self, capsys):
        assert main(["count-params", "--cell", "lstm", "--layers", "2", "--hidden", "3",
                     "--embed-dim", "4", "--input-dim", "5"]) == 0
        expected = count_params(ArchSpec(input_dim=5, num_layers=2, hidden_per_direction=3,
                                         embed_dim=4, cell_kind="lstm"))
        assert capsys.readouterr().out.strip() == str(expected)

    def test_gradcheck_flags_reach_the_check(self, capsys):
        assert main(["gradcheck", "--seed", "3", "--step", "1e-6"]) == 0
        max_err, _ = finite_difference_check(seed=3, step=1e-6)
        assert f"max relative gradient error {max_err:.3e}" in capsys.readouterr().out

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert "PASS" in out


class TestConfigPlumbing:
    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("arch.hidden=100\narch.layers=2\n")
        assert main(["--config", str(cfg), "count-params"]) == 0
        base = int(capsys.readouterr().out)
        assert main(["--config", str(cfg), "--set", "arch.hidden=50",
                     "count-params"]) == 0
        overridden = int(capsys.readouterr().out)
        assert overridden < base

    def test_defaults_are_pinned(self):
        """The user-facing keys; renaming a dataclass field must not rename one."""
        assert sorted(DEFAULTS.items()) == [
            ("arch.cell", "gru"), ("arch.embed_dim", 20), ("arch.hidden", 300),
            ("arch.input_dim", 129), ("arch.layers", 4),
            ("eval.algo", "gmm"), ("eval.proj_len", 512), ("eval.sdr_cap", 100.0),
            ("eval.seed", 0), ("eval.split", "test"),
            ("gradcheck.seed", 0), ("gradcheck.step", 1e-5),
            ("mix.seed", 0), ("mix.snr_hi", 3.0), ("mix.snr_lo", -3.0),
            ("mix.test_min", 2.0), ("mix.train_min", 6.0), ("mix.valid_min", 2.0),
            ("separate.cluster", "gmm"), ("separate.n_speakers", 2), ("separate.seed", 0),
            ("stft.fft_size", 256), ("stft.hop", 64), ("stft.win_len", 256),
            ("synth.dur", 3.0), ("synth.seed", 0), ("synth.speakers", 12), ("synth.utts", 20),
            ("train.batch_size", 8), ("train.beta1", 0.9), ("train.beta2", 0.999),
            ("train.epochs", 50), ("train.eps", 1e-8), ("train.grad_clip", 200.0),
            ("train.lr0", 1e-3), ("train.lr_min", 1e-6), ("train.patience", 3),
            ("train.seed", 0),
        ]
        assert {k: type(v) for k, v in DEFAULTS.items() if isinstance(v, float)} == {
            k: float for k in ("eval.sdr_cap", "gradcheck.step", "mix.snr_hi", "mix.snr_lo",
                               "mix.test_min", "mix.train_min", "mix.valid_min",
                               "synth.dur", "train.beta1", "train.beta2", "train.eps",
                               "train.grad_clip", "train.lr0", "train.lr_min")}

    def test_echoed_config_records_run_context_and_loads_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = load_config(None, ["train.lr0=0.05", "eval.algo=kmeans", "stft.hop=32"])
        path = tmp_path / "effective_config.txt"
        echo_config(cfg, path)
        assert path.read_text().splitlines()[:3] == [
            f"# numpy {np.__version__}, scipy {scipy.__version__}",
            "# OPENBLAS_NUM_THREADS=1", "# OMP_NUM_THREADS=unset"]
        assert load_config(str(path), []) == cfg

    def test_unknown_key_rejected(self, tmp_path, capsys):
        rc = main(["--set", "train.warp=9", "count-params"])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_rejected(self, capsys):
        rc = main(["--set", "train.epochs=soon", "count-params"])
        assert rc == 2

    def test_negative_grad_clip_exits_2(self, workspace, tmp_path, capsys):
        rc = main(["--set", "train.grad_clip=-1", "train", "--manifest",
                   str(workspace / "mix" / "manifest.jsonl"), "--out", str(tmp_path)])
        assert rc == 2
        assert "grad_clip" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.danc").exists()

    def test_bad_choice_from_set_rejected_before_reading_data(self, workspace, tmp_path,
                                                               capsys):
        out = tmp_path / "r.csv"
        rc = main(["--set", "eval.algo=nope", "eval", "--manifest",
                   str(workspace / "mix" / "manifest.jsonl"), "--out", str(out)])
        assert rc == 2
        assert "eval.algo" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_choice_from_config_file_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("separate.cluster=nope\n")
        mix_wav = next((workspace / "mix" / "test").glob("*_mix.wav"))
        rc = main(["--config", str(cfg), "separate", "--checkpoint",
                   str(workspace / "run" / "checkpoint.danc"), "--input", str(mix_wav),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "separate.cluster" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_spk*.wav"))


def test_package_import_leaves_scipy_signal_unloaded():
    # scipy.signal alone added about 43 MB and 1 s to every danet process.
    code = ("import sys, danet.cli, danet.pipeline, danet.bsseval; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
