"""Dataset construction: corpus scanning, SNR-controlled two-speaker mixing,
JSONL manifests, and a synthetic harmonic-speaker corpus for desk-scale runs."""

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE, Waveform, quantize_pcm16, read_pcm16, write_pcm16

# 1: utterance-level shuffled split pools; 2: speaker-stratified pools.
# Records are laid out the same in both, so load_manifest reads either.
RECIPE_VERSION = 2
READABLE_RECIPE_VERSIONS = (1, 2)
SNR_RANGE_DB = (-3.0, 3.0)

# Keep q_a + q_b representable in int16 even after per-stem rounding.
PEAK_LIMIT = 32766.0 / 32768.0


@dataclass(frozen=True)
class UttInfo:
    path: str
    speaker_id: str
    n_samples: int
    sample_rate: int

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass
class SpeakerTable:
    speakers: dict[str, list[UttInfo]]
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def utterances(self) -> list[UttInfo]:
        return [u for spk in sorted(self.speakers) for u in self.speakers[spk]]

    @property
    def total_duration(self) -> float:
        return sum(u.duration for u in self.utterances)


@dataclass(frozen=True)
class MixtureRecord:
    utt_id: str
    split: str
    mixture_path: str
    source_paths: tuple[str, str]
    speaker_ids: tuple[str, str]
    snr_db: float
    gain: float
    scale: float
    duration: float
    seed: int


@dataclass(frozen=True)
class DatasetRecipe:
    """Target seconds per split plus the SNR draw range."""

    train_s: float = 360.0
    valid_s: float = 120.0
    test_s: float = 120.0
    snr_range: tuple[float, float] = SNR_RANGE_DB
    seed: int = 0

    def targets(self) -> dict[str, float]:
        return {"train": self.train_s, "valid": self.valid_s, "test": self.test_s}


def scan_corpus(root) -> SpeakerTable:
    """Index a root/<speaker_id>/<utt>.wav tree, recording rejects with reasons."""
    root = Path(root)
    speakers: dict[str, list[UttInfo]] = {}
    skipped: list[tuple[str, str]] = []
    for spk_dir in sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []:
        utts = []
        for wav_path in sorted(spk_dir.glob("*.wav")):
            try:
                ints, rate = read_pcm16(wav_path)
            except ValueError as exc:
                skipped.append((str(wav_path), str(exc)))
                continue
            if ints.size == 0:
                skipped.append((str(wav_path), "empty file"))
                continue
            utts.append(UttInfo(str(wav_path), spk_dir.name, ints.size, rate))
        if utts:
            speakers[spk_dir.name] = utts
    if not speakers:
        raise ValueError(f"no speakers found under {root}")
    return SpeakerTable(speakers, skipped)


@dataclass
class MixResult:
    mixture: Waveform
    stems: tuple[Waveform, Waveform]
    snr_db: float
    gain: float
    scale: float


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


def make_mixture(utt_a: Waveform, utt_b: Waveform, snr_db: float) -> MixResult:
    """Mix two utterances at an exact stem-RMS ratio of snr_db.

    Both are cropped to the shorter length; the gain lands on the second
    source. If the sum would clip, one scalar rescales both stems (the SNR is
    unaffected) so the peak sits at 0.9.
    """
    if utt_a.sample_rate != utt_b.sample_rate:
        raise ValueError(f"sample rates differ: {utt_a.sample_rate} vs {utt_b.sample_rate}")
    n = min(utt_a.samples.size, utt_b.samples.size)
    a = utt_a.samples[:n].copy()
    b = utt_b.samples[:n].copy()
    rms_a, rms_b = _rms(a), _rms(b)
    if rms_a == 0.0 or rms_b == 0.0:
        raise ValueError("cannot mix a zero-energy utterance")
    gain = rms_a / (rms_b * 10.0 ** (snr_db / 20.0))
    b *= gain

    peak = float(np.max(np.abs(a + b)))
    scale = 1.0
    if peak > PEAK_LIMIT:
        scale = 0.9 / peak
        a *= scale
        b *= scale
    rate = utt_a.sample_rate
    return MixResult(Waveform(a + b, rate), (Waveform(a, rate), Waveform(b, rate)),
                     snr_db, gain, scale)


def _partition_pools(table: SpeakerTable, recipe: DatasetRecipe) -> dict[str, list[UttInfo]]:
    """Deterministically split utterances into per-split pools, sized in
    proportion to the requested durations (no utterance serves two splits).

    Speaker-stratified: each speaker's utterances are shuffled, then dealt
    one per speaker per round in a shuffled speaker order, and the splits
    take consecutive runs of that sequence (test first, train last). A pool
    of m utterances thus spans min(m, n_speakers) speakers while every
    speaker still has utterances left.
    """
    rng = np.random.default_rng([recipe.seed, 101])
    queues = []
    for spk in sorted(table.speakers):
        utts = list(table.speakers[spk])
        rng.shuffle(utts)
        queues.append(utts)
    queues = [queues[i] for i in rng.permutation(len(queues))]
    dealt = [q[r] for r in range(max(len(q) for q in queues)) for q in queues if r < len(q)]

    order = ("test", "valid", "train")
    targets = recipe.targets()
    total_target = sum(targets.values())
    total_audio = sum(u.duration for u in dealt)
    bounds = {}
    acc = 0.0
    for name in order:
        acc += targets[name] / total_target
        bounds[name] = acc * total_audio
    pools = {name: [] for name in targets}
    cursor = 0.0
    for u in dealt:
        # An utterance joins the split its midpoint falls in.
        middle = cursor + 0.5 * u.duration
        pools[next((n for n in order if middle < bounds[n]), "train")].append(u)
        cursor += u.duration
    return pools


def _pair_capacity(pool: list[UttInfo]) -> tuple[int, float]:
    """Distinct speaker pairs in a pool, and the most mixture seconds they
    can give at one mixture per pair (each cropped to its shorter source)."""
    longest: dict[str, float] = {}
    for u in pool:
        longest[u.speaker_id] = max(longest.get(u.speaker_id, 0.0), u.duration)
    durs = sorted(longest.values())
    seconds = sum(durs[i] * (len(durs) - 1 - i) for i in range(len(durs)))
    return len(durs) * (len(durs) - 1) // 2, seconds


def build_dataset(table: SpeakerTable, recipe: DatasetRecipe, out_dir) -> list[MixtureRecord]:
    """Render seeded two-speaker mixtures to disk and write the manifest: one
    JSON record per line after a first line of recipe metadata.

    The stored mixture WAV is the integer sum of the stored stem WAVs, so
    additivity holds exactly on disk. Per split, the total mixture duration
    may not exceed the audio available in that split's utterance pool, and
    every utterance must be at SAMPLE_RATE; both are checked before any WAV is written.
    """
    out_dir = Path(out_dir)
    for u in table.utterances:
        if u.sample_rate != SAMPLE_RATE:
            raise ValueError(f"utterances must share one sample rate, which is "
                             f"{SAMPLE_RATE} Hz: {u.path} is {u.sample_rate} Hz")
    pools = _partition_pools(table, recipe)
    for split, target in recipe.targets().items():
        capacity = sum(u.duration for u in pools[split])
        speakers = {u.speaker_id for u in pools[split]}
        if target > capacity:
            raise ValueError(
                f"insufficient material for split {split!r}: requested {target:.1f} s "
                f"but only {capacity:.1f} s available (short {target - capacity:.1f} s)")
        if target > 0 and len(speakers) < 2:
            raise ValueError(f"split {split!r} needs utterances from >= 2 speakers")
        if split == "test" and target > 0:
            n_pairs, pair_s = _pair_capacity(pools[split])
            if target > pair_s:
                raise ValueError(
                    f"insufficient speaker pairs for split 'test': requested {target:.1f} s "
                    f"of distinct-pair mixtures but the pool's {len(speakers)} speakers give "
                    f"a pair capacity of {n_pairs} pairs, at most {pair_s:.1f} s")

    records: list[MixtureRecord] = []
    for split, target in recipe.targets().items():
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        pool = pools[split]
        by_speaker: dict[str, list[UttInfo]] = {}
        for u in pool:
            by_speaker.setdefault(u.speaker_id, []).append(u)
        speakers = sorted(by_speaker)
        rng = np.random.default_rng([recipe.seed, {"train": 1, "valid": 2, "test": 3}[split]])
        used_pairs: set[tuple[str, str]] = set()
        produced = 0.0
        index = 0
        while produced < target:
            spk_a, spk_b = rng.choice(len(speakers), size=2, replace=False)
            pair = tuple(sorted((speakers[spk_a], speakers[spk_b])))
            if split == "test" and pair in used_pairs:
                if len(used_pairs) >= len(speakers) * (len(speakers) - 1) // 2:
                    raise ValueError(
                        f"test split exhausted all {len(used_pairs)} distinct speaker "
                        f"pairs after {produced:.1f} of {target:.1f} s")
                continue
            used_pairs.add(pair)
            utt_a = by_speaker[speakers[spk_a]][rng.integers(len(by_speaker[speakers[spk_a]]))]
            utt_b = by_speaker[speakers[spk_b]][rng.integers(len(by_speaker[speakers[spk_b]]))]
            snr = float(rng.uniform(*recipe.snr_range))
            mix_seed = int(rng.integers(2 ** 31))  # only recorded; later draws depend on it

            from .dsp import read_wav
            result = make_mixture(read_wav(utt_a.path), read_wav(utt_b.path), snr)

            utt_id = f"{split}_{index:04d}"
            names = {kind: f"{utt_id}_{kind}.wav" for kind in ("mix", "s1", "s2")}
            q1 = quantize_pcm16(result.stems[0].samples)
            q2 = quantize_pcm16(result.stems[1].samples)
            rate = result.mixture.sample_rate
            write_pcm16(split_dir / names["s1"], q1, rate)
            write_pcm16(split_dir / names["s2"], q2, rate)
            write_pcm16(split_dir / names["mix"], q1.astype(np.int32) + q2, rate)

            records.append(MixtureRecord(
                utt_id=utt_id,
                split=split,
                mixture_path=f"{split}/{names['mix']}",
                source_paths=(f"{split}/{names['s1']}", f"{split}/{names['s2']}"),
                speaker_ids=(utt_a.speaker_id, utt_b.speaker_id),
                snr_db=snr,
                gain=result.gain,
                scale=result.scale,
                duration=result.mixture.duration,
                seed=mix_seed,
            ))
            produced += result.mixture.duration
            index += 1

    with open(out_dir / "manifest.jsonl", "w") as fh:
        fh.write(json.dumps({"meta": True, "recipe_version": RECIPE_VERSION,
                             "seed": recipe.seed}) + "\n")
        fh.writelines(json.dumps(asdict(rec)) + "\n" for rec in records)
    return records


def load_manifest(path) -> list[MixtureRecord]:
    """Read manifest records; relative audio paths resolve against the manifest."""
    path = Path(path)
    base = path.parent
    records = []
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("meta"):
                if row.get("recipe_version") not in READABLE_RECIPE_VERSIONS:
                    raise ValueError(f"unsupported recipe version {row.get('recipe_version')}")
                continue
            row["mixture_path"] = str(base / row["mixture_path"])
            row["source_paths"] = tuple(str(base / p) for p in row["source_paths"])
            row["speaker_ids"] = tuple(row["speaker_ids"])
            records.append(MixtureRecord(**row))
    return records


def _speaker_voice(rng: np.random.Generator, f0: float) -> dict:
    """Random formant-like band gains defining one synthetic speaker."""
    centers = np.sort(rng.uniform(300.0, 3200.0, size=3))
    widths = rng.uniform(120.0, 400.0, size=3)
    gains = rng.uniform(0.5, 1.0, size=3)
    tilt = rng.uniform(0.2, 0.5)
    return {"f0": f0, "centers": centers, "widths": widths, "gains": gains, "tilt": tilt}


def _voice_envelope(voice: dict, freqs: np.ndarray) -> np.ndarray:
    env = np.full_like(freqs, 0.03)
    for c, w, g in zip(voice["centers"], voice["widths"], voice["gains"]):
        env += g / (1.0 + ((freqs - c) / w) ** 2)
    return env


AM_FLOOR = 0.3       # modulation never fully silences a speaker
NOISE_LEVEL = 0.015  # breathiness RMS relative to the harmonic part


def _render_utterance(voice: dict, dur: float, rng: np.random.Generator) -> np.ndarray:
    n = int(round(dur * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE

    f0 = voice["f0"] * (1.0 + rng.uniform(-0.01, 0.01))
    vib_rate = rng.uniform(4.0, 6.5)
    vib_phase = rng.uniform(0, 2 * np.pi)
    inst_f0 = f0 * (1.0 + 0.004 * np.sin(2 * np.pi * vib_rate * t + vib_phase))
    base_phase = 2.0 * np.pi * np.cumsum(inst_f0) / SAMPLE_RATE

    k_max = int(3700.0 // f0)
    harmonics = np.arange(1, k_max + 1)
    amps = _voice_envelope(voice, harmonics * f0) / harmonics ** voice["tilt"]
    phases = rng.uniform(0, 2 * np.pi, size=k_max)
    voiced = np.zeros(n)
    for k, amp, ph in zip(harmonics, amps, phases):
        voiced += amp * np.sin(k * base_phase + ph)

    # Syllable-like amplitude modulation.
    r1, r2 = rng.uniform(1.5, 3.0), rng.uniform(4.0, 7.0)
    p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
    env = AM_FLOOR + (1.0 - AM_FLOOR) * (0.5 + 0.5 * np.sin(2 * np.pi * r1 * t + p1)) \
        * (0.5 + 0.5 * np.sin(2 * np.pi * r2 * t + p2))

    # Faint noise shaped by the same spectral envelope. Kept well below the
    # harmonics: broadband overlap between speakers blurs per-bin ownership.
    spectrum = np.fft.rfft(rng.normal(size=n))
    spectrum *= _voice_envelope(voice, np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE))
    noise = np.fft.irfft(spectrum, n=n)
    noise *= NOISE_LEVEL * _rms(voiced) / max(_rms(noise), 1e-12)

    out = env * (voiced + noise)
    return 0.7 * out / np.max(np.abs(out))


def synth_corpus(out_dir, n_speakers: int = 12, utts_per_speaker: int = 20,
                 dur: float = 3.0, seed: int = 0) -> SpeakerTable:
    """Generate a corpus of synthetic harmonic 'speakers' at 8 kHz.

    Fundamentals sit on a jittered grid over 90-250 Hz so any two speakers
    stay spectrally distinct enough for ideal-mask separation.
    """
    if n_speakers < 2:
        raise ValueError(f"need at least 2 speakers, got {n_speakers}")
    out_dir = Path(out_dir)
    rng = np.random.default_rng([seed, 7])
    grid = np.linspace(92.0, 248.0, n_speakers)
    spacing = (248.0 - 92.0) / max(n_speakers - 1, 1)
    f0s = rng.permutation(grid) + rng.uniform(-0.2, 0.2, size=n_speakers) * spacing

    for s in range(n_speakers):
        spk_dir = out_dir / f"spk{s:02d}"
        spk_dir.mkdir(parents=True, exist_ok=True)
        voice = _speaker_voice(np.random.default_rng([seed, s, 11]), float(f0s[s]))
        for u in range(utts_per_speaker):
            samples = _render_utterance(voice, dur, np.random.default_rng([seed, s, u]))
            write_pcm16(spk_dir / f"utt{u:02d}.wav", quantize_pcm16(samples), SAMPLE_RATE)
    return scan_corpus(out_dir)
