"""Synthetic benchmark data with ground truth, plus record/truth file I/O.

The generator emulates the construction of the classic labeled extracellular
benchmarks: a train of 2 ms biphasic template spikes at unit peak, placed at
Poisson times thinned to a minimum inter-spike interval, over background
noise built half (in variance) from superimposed low-amplitude spike shapes
and half from white Gaussian noise.  Pure Gaussian background would misstate
the difficulty: spike-shaped noise is band-limited and survives smoothing,
white noise is what the energy operator amplifies.  The noise trace is
rescaled so its measured standard deviation over the mean placed-spike peak
equals ``noise_level`` exactly.

Everything is deterministic given the config seed, and ``noise_level`` enters
only in that last rescale.  :func:`generate_levels` therefore builds the
spike train and background of one seed once and composes a record per noise
level from them; :func:`generate` is its one-config case.  Ground truth is a
sorted list of spike-peak sample indices with optional per-spike template ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .signal_model import SignalRecord, _data_lines, _int64, _validated, is_finite_real, load_record, save_record

__all__ = [
    "GroundTruth",
    "SyntheticConfig",
    "MAX_SAMPLES",
    "MAX_TEMPLATES",
    "generate",
    "generate_levels",
    "resample",
    "rescale_ground_truth",
    "save_ground_truth",
    "load_ground_truth",
    "save_dataset",
    "load_dataset",
    "load_record",
]

TEMPLATE_DURATION_S = 0.002
NOISE_SPIKE_RATE_HZ = 8000.0      # density of the spike-shaped background
NOISE_SPIKE_AMP_RANGE = (0.05, 0.3)  # relative, before variance normalization (sub-detection units)
GAUSSIAN_VARIANCE_SHARE = 0.5
GAUSSIAN_BAND_HZ = (300.0, 2000.0)  # recording-chain band for the Gaussian part


@dataclass(frozen=True)
class GroundTruth:
    """Sorted spike-peak sample indices, optionally tagged with template ids."""

    spike_indices: np.ndarray
    template_ids: np.ndarray | None = None

    def __post_init__(self):
        idx = np.asarray(self.spike_indices, dtype=np.int64)
        object.__setattr__(self, "spike_indices", idx)
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("spike indices must be strictly increasing")
        if idx.size and idx[0] < 0:
            raise ValueError("spike indices must be non-negative")
        if self.template_ids is not None:
            tids = np.asarray(self.template_ids, dtype=np.int64)
            if len(tids) != len(idx):
                raise ValueError("template_ids length must match spike_indices")
            object.__setattr__(self, "template_ids", tids)

    def __len__(self) -> int:
        return len(self.spike_indices)


# about 23 min at 24 kHz; generate() holds the clean train, the background and
# each level's record, float64 arrays this long, and its transients stay within
# a few more (the Gaussian part's FFT), never in proportion to the spike count
MAX_SAMPLES = 1 << 25
MAX_TEMPLATES = 1024  # generate() draws and places each template in a Python loop


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of one synthetic record.

    Every float field must be a finite real number, and the record must hold
    between 1 and ``MAX_SAMPLES`` samples (``n_samples``); both are checked
    here, before :func:`generate` allocates anything.  So are the bounds of
    its Python loops: at most ``MAX_TEMPLATES`` templates, and a firing rate
    no higher than the sampling rate, so the spike train draws no more
    arrivals than the record has samples.
    """

    duration_s: float = 10.0
    rate_hz: float = 24000.0
    noise_level: float = 0.1
    firing_rate_hz: float = 20.0
    n_templates: int = 3
    min_isi_s: float = 0.002
    seed: int = 0

    def __post_init__(self):
        for name in ("n_templates", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("duration_s", "rate_hz", "noise_level", "firing_rate_hz", "min_isi_s"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.noise_level < 0:
            raise ValueError("noise_level must be >= 0")
        if self.firing_rate_hz <= 0:
            raise ValueError("firing_rate_hz must be positive")
        if not 2 <= self.n_templates <= MAX_TEMPLATES:
            raise ValueError(f"n_templates must lie in 2..{MAX_TEMPLATES}, got {self.n_templates}")
        if self.firing_rate_hz > self.rate_hz:
            raise ValueError("firing_rate_hz must not exceed rate_hz")
        if self.min_isi_s < 0:
            raise ValueError("min_isi_s must be >= 0")
        if self.min_isi_s * self.firing_rate_hz >= 1:
            raise ValueError("infeasible ISI constraint: min_isi_s * firing_rate_hz must be < 1")
        n = self.duration_s * self.rate_hz  # finite factors can still overflow
        if not math.isfinite(n) or not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(
                f"duration_s * rate_hz must round to 1..{MAX_SAMPLES} samples, got {n:g}"
            )

    @property
    def n_samples(self) -> int:
        return round(self.duration_s * self.rate_hz)


MAIN_LOBE_TAU_S = (0.045e-3, 0.065e-3)
NOISE_LOBE_TAU_S = (0.08e-3, 0.13e-3)  # background units are distant, tissue-filtered, broader


def _make_templates(
    rng: np.random.Generator,
    n_templates: int,
    rate_hz: float,
    tau_range=MAIN_LOBE_TAU_S,
):
    """Distinct positive-dominant biphasic shapes, 2 ms long, unit peak.

    A fast main lobe followed by a slower opposite lobe; the fast lobe width
    (``tau_range``) sets the energy-operator signature.  Background-unit
    shapes are drawn with a broader range than target units.
    """
    n_t = max(4, round(TEMPLATE_DURATION_S * rate_hz))
    t = np.arange(n_t) / rate_hz
    templates = []
    peak_offsets = []
    for _ in range(n_templates):
        t_main = rng.uniform(0.45e-3, 0.65e-3)
        tau_main = rng.uniform(*tau_range)
        t_second = t_main + rng.uniform(0.45e-3, 0.70e-3)
        tau_second = rng.uniform(0.20e-3, 0.35e-3)
        depth = rng.uniform(0.35, 0.65)
        w = np.exp(-0.5 * ((t - t_main) / tau_main) ** 2)
        w -= depth * np.exp(-0.5 * ((t - t_second) / tau_second) ** 2)
        w /= np.max(w)
        templates.append(w)
        peak_offsets.append(int(np.argmax(w)))
    return templates, peak_offsets, n_t


def _poisson_arrivals(rng, duration_s, rate_hz):
    """Unthinned Poisson arrival times on [0, duration)."""
    times = []
    t = rng.exponential(1.0 / rate_hz)
    while t < duration_s:
        times.append(t)
        t += rng.exponential(1.0 / rate_hz)
    return np.asarray(times)


def min_isi_samples(cfg: SyntheticConfig) -> int:
    """Smallest integer peak-index gap satisfying the ISI floor."""
    return max(1, int(np.ceil(cfg.min_isi_s * cfg.rate_hz - 1e-9)))


# (index, value) cells per np.add.at call in _add_at: one template's 26,666
# background spikes in a 10 s, 24 kHz record took 5.7-5.8 ms (median) at
# 2**15 cells, 5.9-7.4 ms at 2**14 and 2**16-2**19, and 9.5-9.6 ms in one call
_ADD_AT_CELLS = 1 << 15


def _add_at(out, starts, template, amps):
    """Accumulate amp-scaled copies of one template at the given start samples.

    The copies go in runs of consecutive spikes, about ``_ADD_AT_CELLS``
    (index, value) cells per ``np.add.at`` call, so the transient stays near
    0.5 MB whatever the spike count.  ``np.add.at`` applies its updates one
    by one in index order, so consecutive runs add every sample's
    contributions in the order one call over all spikes would, and the sums
    are the same to the byte.
    """
    offsets = np.arange(len(template))
    step = max(1, _ADD_AT_CELLS // len(template))
    for lo in range(0, len(starts), step):
        idx = starts[lo : lo + step, None] + offsets
        np.add.at(out, idx.ravel(), (amps[lo : lo + step, None] * template).ravel())


def _bandlimit(x: np.ndarray, rate_hz: float, lo_hz: float, hi_hz: float) -> np.ndarray:
    """Restrict a sequence to [lo, hi] Hz with raised-cosine band edges.

    Models the recording-chain bandpass the Gaussian noise component arrives
    through; an FFT-domain window keeps it dependency-free and deterministic.
    """
    n = len(x)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate_hz)
    lo_width = max(1.0, 0.5 * lo_hz)
    hi_width = max(1.0, 0.2 * hi_hz)
    gain = np.ones_like(freqs)
    rising = (freqs < lo_hz) & (freqs >= lo_hz - lo_width)
    gain[freqs < lo_hz - lo_width] = 0.0
    gain[rising] = 0.5 * (1 + np.cos(np.pi * (lo_hz - freqs[rising]) / lo_width))
    falling = (freqs > hi_hz) & (freqs <= hi_hz + hi_width)
    gain[freqs > hi_hz + hi_width] = 0.0
    gain[falling] = 0.5 * (1 + np.cos(np.pi * (freqs[falling] - hi_hz) / hi_width))
    return np.fft.irfft(np.fft.rfft(x) * gain, n)


def generate(cfg: SyntheticConfig) -> tuple[SignalRecord, GroundTruth]:
    """Build one labeled synthetic record; deterministic given ``cfg.seed``."""
    return generate_levels([cfg])[0]


def generate_levels(cfgs) -> list[tuple[SignalRecord, GroundTruth]]:
    """Build one labeled record per config, for configs that differ only in ``noise_level``.

    The templates, spike train and unit-variance background depend on the
    seed alone, so they are built once; each config then rescales the shared
    background to its own noise level.  Every ``(record, truth)`` pair equals
    :func:`generate` of its config bit for bit and owns its arrays.  Raises
    ``ValueError`` if two configs differ in any other field.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    cfg = cfgs[0]
    for other in cfgs[1:]:
        if replace(other, noise_level=cfg.noise_level) != cfg:
            raise ValueError(f"configs must differ only in noise_level: {cfg} and {other}")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    templates, peak_offsets, n_t = _make_templates(rng, cfg.n_templates, cfg.rate_hz)

    # Target spikes: Poisson arrivals, template fully inside the record, then
    # greedy thinning so ground-truth peak indices respect the ISI floor.
    times = _poisson_arrivals(rng, cfg.duration_s, cfg.firing_rate_hz)
    tids = rng.integers(0, cfg.n_templates, size=len(times))
    starts = np.round(times * cfg.rate_hz).astype(np.int64)
    keep = (starts >= 0) & (starts + n_t <= n)
    starts, tids = starts[keep], tids[keep]
    cand_peaks = starts + np.asarray(peak_offsets)[tids]
    order = np.argsort(cand_peaks, kind="stable")
    gap = min_isi_samples(cfg)
    chosen = []
    last_peak = None
    for i in order:
        if last_peak is None or cand_peaks[i] - last_peak >= gap:
            chosen.append(i)
            last_peak = cand_peaks[i]
    starts, tids = starts[chosen], tids[chosen]

    clean = np.zeros(n)
    for tid in range(cfg.n_templates):
        sel = tids == tid
        _add_at(clean, starts[sel], templates[tid], np.ones(int(sel.sum())))
    peaks = starts + np.asarray(peak_offsets)[tids]

    # Background: dense superposition of distant-unit spike shapes plus
    # band-limited Gaussian, equal variance, normalized to unit variance once
    # and rescaled per config to the requested noise level.
    noise_templates, _, _ = _make_templates(
        rng, cfg.n_templates, cfg.rate_hz, tau_range=NOISE_LOBE_TAU_S
    )
    n_noise = rng.poisson(NOISE_SPIKE_RATE_HZ * cfg.duration_s) if n > n_t else 0
    noise_starts = rng.integers(0, max(1, n - n_t), size=n_noise)
    noise_tids = rng.integers(0, cfg.n_templates, size=n_noise)
    noise_amps = rng.uniform(*NOISE_SPIKE_AMP_RANGE, size=n_noise)
    spiky = np.zeros(n)
    for tid in range(cfg.n_templates):
        sel = noise_tids == tid
        _add_at(spiky, noise_starts[sel], noise_templates[tid], noise_amps[sel])
    del noise_starts, noise_tids, noise_amps
    gauss = _bandlimit(rng.standard_normal(n), cfg.rate_hz, *GAUSSIAN_BAND_HZ)

    # in place, in the order of the expressions ``x / std * share`` and
    # ``clean + unit * level``, so every byte is theirs
    spiky -= spiky.mean()  # dense superposition leaves a DC pedestal; recordings are AC-coupled
    spiky_std = float(np.std(spiky))
    if spiky_std > 0:
        spiky /= spiky_std
        spiky *= np.sqrt(1.0 - GAUSSIAN_VARIANCE_SHARE)
    gauss_std = float(np.std(gauss))
    if gauss_std > 0:
        gauss /= gauss_std
        gauss *= np.sqrt(GAUSSIAN_VARIANCE_SHARE)
    unit = spiky
    unit += gauss
    del gauss
    raw_std = float(np.std(unit))
    if raw_std > 0:
        unit /= raw_std
    else:
        unit *= 0.0

    order = np.argsort(peaks, kind="stable")
    out = []
    for c in cfgs:
        samples = unit * c.noise_level
        samples += clean
        record = SignalRecord(samples=samples, rate_hz=c.rate_hz, channel_id=0)
        # fancy indexing copies, so no two truths share an array
        out.append((record, GroundTruth(spike_indices=peaks[order], template_ids=tids[order])))
    return out


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


# the most phases a rate ratio is resampled by, one slice each: at q = 8 the
# slices are no slower than np.interp on 0.3 s and 10 s records, at q = 16 they
# are (records of a few hundred samples lose some microseconds at any q)
_EXACT_GRID_PHASES = 8


def _interp_exact_grid(x: np.ndarray, p: int, q: int, n_new: int) -> np.ndarray:
    """``np.interp`` of ``x`` on its index grid at the exact positions ``k * p / q``, ``k < n_new``.

    Output ``m*q + phi`` lies ``frac = (phi*p mod q) / q`` past sample
    ``j + m*p``, ``j = phi*p // q``, so each phase is one strided slice in
    ``np.interp``'s own operations and order: a copy where ``frac`` is 0,
    else ``(x[j+1] - x[j]) * frac + x[j]``.  At or past the last sample
    every output is ``x[-1]``.
    """
    out = np.empty(n_new)
    last = len(x) - 1
    for phi in range(min(q, n_new)):
        j, r = divmod(phi * p, q)
        dst = out[phi::q]
        if r == 0:
            inside = x[j::p][: len(dst)]
            dst[: len(inside)] = inside
        else:
            left = x[j:last:p][: len(dst)]
            inside = dst[: len(left)]
            with np.errstate(over="ignore"):  # as silent as np.interp; the record refuses the inf
                np.subtract(x[j + 1 :: p][: len(left)], left, out=inside)
            inside *= r / q
            inside += left
        dst[len(inside) :] = x[-1]
    return out


def resample(record: SignalRecord, new_rate_hz: float) -> SignalRecord:
    """Linear interpolation at the new sample instants.

    Duration is preserved to within one output sample period.  Band-limited
    resampling is deliberately not attempted; rate sweeps target trends.
    An output longer than both the input and ``MAX_SAMPLES`` is refused
    before anything is allocated; downsampling never is.

    The samples equal ``np.interp`` at ``k * rate_hz / new_rate_hz`` byte for
    byte.  A step ``p/q`` in lowest terms with ``q`` at most 8 and every
    ``k*p`` below 2**53 (24, 30 or 48 kHz to 16 kHz, 24 to 8 kHz, any
    upsampling by 2, 4 or 8) puts every position exactly on a grid that
    repeats every ``q`` outputs; those take one strided slice per phase.
    Every other ratio (44.1 or 25 kHz to 16 kHz, say) calls ``np.interp``.
    """
    if new_rate_hz <= 0:
        raise ValueError("new_rate_hz must be positive")
    if new_rate_hz == record.rate_hz:
        return record
    n_old = len(record)
    if n_old == 0:
        return SignalRecord(samples=np.zeros(0), rate_hz=new_rate_hz, channel_id=record.channel_id)
    n_new = n_old * new_rate_hz / record.rate_hz
    if not math.isfinite(n_new):
        raise ValueError(f"resampling {record.rate_hz} Hz to {new_rate_hz} Hz gives a non-finite length")
    n_new = round(n_new)
    if n_new > max(n_old, MAX_SAMPLES):
        raise ValueError(
            f"resampling {n_old} samples from {record.rate_hz} Hz to {new_rate_hz} Hz "
            f"gives {n_new}, more than {MAX_SAMPLES}"
        )
    step = record.rate_hz / new_rate_hz
    # a finite float is p/q with q a power of two; an infinite step gives no samples
    p, q = step.as_integer_ratio() if math.isfinite(step) else (1, math.inf)
    if q <= _EXACT_GRID_PHASES and n_new * p < 1 << 53:
        samples = _interp_exact_grid(record.samples, p, q, n_new)
    else:
        # float64 grids from the start: every index below 2**53 converts exactly,
        # and np.interp would convert integer grids to float64 itself
        positions = np.arange(n_new, dtype=np.float64)
        positions *= step
        samples = np.interp(positions, np.arange(n_old, dtype=np.float64), record.samples)
    return SignalRecord(samples=samples, rate_hz=new_rate_hz, channel_id=record.channel_id)


def rescale_ground_truth(
    truth: GroundTruth, old_rate_hz: float, new_rate_hz: float, n_new: int
) -> GroundTruth:
    """Rescale truth indices by the rate ratio with rounding.

    Indices clipped into range; collisions (possible only under extreme
    downsampling) merge.
    """
    if len(truth) == 0:
        return GroundTruth(spike_indices=np.zeros(0, dtype=np.int64))
    # clipped before the cast, so an index scaled past int64 lands on the last sample
    idx = np.round(truth.spike_indices * (new_rate_hz / old_rate_hz))
    idx = np.clip(idx, 0, max(0, n_new - 1)).astype(np.int64)
    idx, keep = np.unique(idx, return_index=True)
    tids = truth.template_ids[keep] if truth.template_ids is not None else None
    return GroundTruth(spike_indices=idx, template_ids=tids)


# ---------------------------------------------------------------------------
# Ground-truth and dataset files
# ---------------------------------------------------------------------------


# one spike per line; the template id is left off when the truth has none
_TRUTH_COLUMNS = (("sample_index", _int64), ("template_id", _int64))


def save_ground_truth(truth: GroundTruth, path) -> None:
    """CSV, one spike per line: ``sample_index[,template_id]``, no header."""
    columns = [truth.spike_indices] + ([] if truth.template_ids is None else [truth.template_ids])
    rows = zip(*(column.tolist() for column in columns))
    Path(path).write_text("".join(",".join(map(str, row)) + "\n" for row in rows))


def load_ground_truth(path) -> GroundTruth:
    rows = [line.fields(_TRUTH_COLUMNS, ",", optional=1) for line in _data_lines(path)]
    tids = [row[1] for row in rows if len(row) == 2]
    if tids and len(tids) != len(rows):
        raise ValueError(f"{path}: template ids present on only some lines")
    indices = [row[0] for row in rows]
    return _validated(lambda k: GroundTruth(indices[:k], tids[:k] if tids else None), path, len(rows))


def save_dataset(record: SignalRecord, truth: GroundTruth, cfg: SyntheticConfig, out_dir, name: str) -> dict:
    """Write record + truth + manifest; returns the file paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / f"{name}.f32"
    truth_path = out_dir / f"{name}_truth.csv"
    manifest_path = out_dir / f"{name}.manifest.json"
    save_record(record, record_path)
    save_ground_truth(truth, truth_path)
    manifest = {"name": name, "config": asdict(cfg), "n_samples": len(record), "n_spikes": len(truth)}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"record": record_path, "truth": truth_path, "manifest": manifest_path}


def load_dataset(out_dir, name: str) -> tuple[SignalRecord, GroundTruth]:
    out_dir = Path(out_dir)
    record = load_record(out_dir / f"{name}.f32")
    truth = load_ground_truth(out_dir / f"{name}_truth.csv")
    if len(truth) and truth.spike_indices[-1] >= len(record):
        raise ValueError(f"{name}: ground truth index beyond record end")
    return record, truth
