"""Online noise-scale estimation and adaptive threshold computation.

After its first frame the estimator computes no standard deviation.  It
keeps a scalar ``sigma`` and, over 256-sample frames, counts how many smoothed
samples strictly exceed it.  At each frame boundary sigma moves by
``gamma * (count - 20)``, so the loop converges to the level exceeded by 20
samples per frame, i.e. the (1 - 20/256) quantile of the observed
distribution.  ``gamma`` is ``SCALING_FACTOR`` in the float pipeline and
2**-10 in the integer one.  Small steps make the estimate stable at the cost
of convergence latency, which is why detection is suppressed for the first
16 frames (``WARMUP_SAMPLES``).  These are the chip's design point, fixed
here as module constants that both pipelines read.

A frame's count has two kernels, chosen by column count, not by shape.  A
single column's frames are sorted once; each count is then the frame's
length less one bisection for the level, stopping at the first NaN, which
sorts last and never exceeds.  Two or more columns compare once per frame.

Thresholds for the two energy streams are low-order polynomials in sigma,

    thr_x = c1 * sigma
    thr_s = c2 * sigma + c3 * sigma**2

with coefficients restricted to signed dyadic rationals (numerator * 2**-shift,
numerator holding at most two set bits) so the integer pipeline can realize
them with shifts and adds.  The quadratic term lets thr_s track the noise
floor of the energy domain, which grows with sigma squared.

Shipped default coefficients are the output of :func:`calibrate_coefficients`
on the bundled synthetic corpus; see ``data/`` and ``scripts/calibrate_defaults.py``.
Both threshold evaluators take one candidate or a stack of them; a stack
gives one row per candidate, bit-identical to the one-candidate call.
Calibration scores the whole grid in one batched pass per record.  Each
path's distinct crossing maps (one per ``c1`` on the raw path, one per
``(c2, c3)`` on the smoothed path) come from one stacked threshold
evaluation: each live frame's levels are sorted once, and a live sample's
rank among them names the maps it crosses.  Each map is reduced to its
crossing runs, and maps with identical runs form one class.  A candidate's
events are merged from its two maps' runs, so each distinct pair of
classes is merged and matched once, in blocks, with whole-array kernels,
and every candidate takes its pair's accuracy.  Both merges, crossings
into runs and runs into events, go through the detectors' one event
former, ``detector._merge_runs``.  The result equals scoring every
candidate on its own through
:func:`~dualteo.detector.finish_dual` and
:func:`~dualteo.metrics.score_record`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import ClassVar

import numpy as np

from .signal_model import _data_lines, datapath_codes, is_integer

__all__ = [
    "ThresholdCoefficients",
    "Dyadic",
    "sigma_frames",
    "sigma_frames_q10",
    "initial_sigma_q10",
    "compute_thresholds",
    "compute_thresholds_q10",
    "calibrate_coefficients",
    "default_coefficient_grid",
    "dyadic_ladder",
    "save_coefficients",
    "load_coefficients",
    "default_float_coefficients",
    "default_hw_coefficients",
]

FRAME_LEN = 256
CONVERGENCE_FACTOR = 20
SCALING_FACTOR = 0.001
SIGMA_FRACTION_BITS = 10  # integer pipelines keep sigma in Q.10, gamma = 2**-10
WARMUP_FRAMES = 16
WARMUP_SAMPLES = WARMUP_FRAMES * FRAME_LEN
UNMEASURED = -1  # a sigma register before its measurement frame; sigma never falls below 0


@dataclass(frozen=True)
class EstimatorConfig:
    """The estimator's warm-up, read-only; the package itself reads ``WARMUP_SAMPLES``."""

    warmup_samples: ClassVar[int] = WARMUP_SAMPLES


def _sigma_track(values: np.ndarray, measure, step, shift=None, register=None) -> np.ndarray:
    """The one frame loop of both pipelines, in the domain of ``values``.

    Sigma reads 0 over frame 0 and ``measure(frame 0)`` from frame 1 on; each
    later full frame moves it by ``step * (count - CONVERGENCE_FACTOR)``,
    clamped at zero, where ``count`` is the number of samples strictly above
    sigma, or above ``sigma >> shift`` for a fixed-point sigma with ``shift``
    fraction bits.  A partial tail frame never triggers an update.

    One channel ``(n,)`` and a block ``(n, channels)`` both run as columns:
    ``measure`` gives one sigma per column of frame 0, and the trajectory
    comes back in the input's layout: float64 for float samples, int32 for
    int8 codes, whose Q.10 sigma fits the chip's register.  The count's
    kernel follows the column count, not the shape: one column walks by
    bisection (:func:`_sigma_walk`), more compare per frame
    (:func:`_sigma_compare`).

    ``register`` carries the loop across pieces of one stream, each starting
    on a frame boundary: one sigma per column (0-d for one channel), or
    ``UNMEASURED`` before the measurement frame.  It is left holding the
    sigma that takes effect after the piece's last full frame.
    """
    L = FRAME_LEN
    block = values[:, None] if values.ndim == 1 else values
    full, n_frames = len(block) // L, -(-len(block) // L)
    # row f is the sigma over frame f; the extra last row is the sigma after frame full - 1
    out = np.zeros((full + 1, block.shape[1]), dtype=np.result_type(values.dtype, np.int32))
    first = int(register is None or bool((register == UNMEASURED).any()))  # frame 0 measures
    if full >= first:  # a sigma to step from: carried in, or measured on frame 0
        out[first] = measure(block[:L]) if first else register.reshape(-1)
        kernel = _sigma_walk if block.shape[1] == 1 else _sigma_compare
        kernel(block[first * L:full * L], step, shift, out[first:])
        if register is not None:
            register[...] = out[full].reshape(register.shape)
    return out[:n_frames].reshape(n_frames, *values.shape[1:])


def _sigma_walk(frames: np.ndarray, step, shift, track: np.ndarray) -> None:
    """Step one column's sigma from ``track[0]`` through ``frames``, into ``track[1:]``.

    The frames are sorted once, int8 codes as int16; a frame's count is its
    length less one bisection for the level over its sorted samples, up to
    its first NaN, which sorts last and never exceeds.
    """
    L = FRAME_LEN
    column = frames[:, 0]
    # int8 widens: numpy has no SIMD sort for it, and sorts a record's frames 40 times slower
    if column.dtype == np.int8:
        column = column.astype(np.int16)
    ranked = np.sort(column.reshape(-1, L), axis=1)
    ends = np.arange(L, ranked.size + 1, L)
    if ranked.dtype.kind == "f" and np.isnan(ranked[:, -1]).any():
        ends -= np.isnan(ranked).sum(axis=1)
    view = memoryview(ranked.reshape(-1))
    sigma, steps = track[0, 0].item(), []
    for lo, end in zip(range(0, ranked.size, L), ends.tolist()):
        level = sigma if shift is None else sigma >> shift
        sigma = max(0, sigma + step * (end - bisect_right(view, level, lo, end) - CONVERGENCE_FACTOR))
        steps.append(sigma)
    track[1:, 0] = steps


def _sigma_compare(frames: np.ndarray, step, shift, track: np.ndarray) -> None:
    """Step a block's sigmas from ``track[0]`` through ``frames``, into ``track[1:]``.

    Each frame is compared with every column's level at once, in the samples'
    dtype (int8 for a stream chunk's half-sums), which the level fits: sigma
    climbs only while more than ``CONVERGENCE_FACTOR`` samples exceed it.
    The compare writes one bool buffer, reused frame after frame, and its
    bytes are counted as uint8 into int16 with ``np.add.reduce``, which holds
    a frame's count.  ``np.fmax`` clamps a NaN sigma to 0, as the walk's
    ``max`` does.
    """
    sigma = track[0]
    above = np.empty((FRAME_LEN, frames.shape[1]), dtype=bool)
    for f, frame in enumerate(frames.reshape(len(track) - 1, FRAME_LEN, frames.shape[1]), 1):
        level = sigma if shift is None else sigma >> shift
        np.greater(frame, level.astype(frames.dtype), out=above)
        count = np.add.reduce(above.view(np.uint8), axis=0, dtype=np.int16)
        sigma = track[f] = np.fmax(sigma + step * (count - CONVERGENCE_FACTOR), 0)


def sigma_frames(s, register=None) -> np.ndarray:
    """Per-frame sigma trajectory: entry ``f`` is the sigma in effect over frame ``f``.

    Frame ``f`` covers samples ``[f*FRAME_LEN, (f+1)*FRAME_LEN)``.  The first
    frame is a measurement frame: sigma reads 0 while the frame's empirical
    (population) standard deviation is accumulated, and that value takes
    effect from frame 1.  This keeps the loop causal and self-scaling; the
    measurement frame falls inside the warm-up anyway.  Later frames step by
    ``SCALING_FACTOR``.  Takes one channel or a time-major block ``(n,
    channels)``, whose every column equals that channel's own trajectory.
    A float64 ``register`` carries the loop across pieces of one record, as
    the float detectors walk it (see :func:`_sigma_track`); ``UNMEASURED``
    works for a float sigma, which is never negative.
    """
    return _sigma_track(np.asarray(s, dtype=np.float64), _column_std, SCALING_FACTOR, register=register)


def _column_std(frame: np.ndarray) -> list:
    """``np.std`` of each column on its own; ``frame.std(axis=0)`` can differ in the last bit."""
    return [np.std(column) for column in frame.T]


def initial_sigma_q10(s_codes):
    """Q.10 empirical standard deviation of the first frame, in exact integers.

    With ``v = n*sum(s**2) - sum(s)**2`` (so the variance is ``v / n**2``),
    ``floor(1024 * sqrt(v) / n) == isqrt(1024**2 * v) // n`` exactly.  The
    frame's codes are admitted by :func:`~dualteo.signal_model.datapath_codes`,
    so ``v << 20`` stays within ``2**50``: its float64 root, floored, is the
    integer root or one off it, and two int64 compares correct it, every
    column at once.  One channel gives an ``int``; a time-major block
    ``(n, channels)`` gives an int64 array with one value per column.
    """
    s = datapath_codes(np.asarray(s_codes)[:FRAME_LEN])
    n = max(len(s), 1)
    # an int8 square fits int16, and a frame's sums int64, so no int64 copy of the frame is made
    total, squares = s.sum(axis=0, dtype=np.int64), np.square(s, dtype=np.int16).sum(axis=0, dtype=np.int64)
    v = (n * squares - total * total) << (2 * SIGMA_FRACTION_BITS)
    root = np.floor(np.sqrt(v)).astype(np.int64)
    root -= root * root > v
    root += (root + 1) * (root + 1) <= v
    sigma = root // n
    return int(sigma) if s.ndim == 1 else sigma


def sigma_frames_q10(s_codes, register=None) -> np.ndarray:
    """Integer twin of :func:`sigma_frames`: sigma held in a Q.10 register.

    The measurement frame yields :func:`initial_sigma_q10` of the codes; each
    later correction is exactly ``count - CONVERGENCE_FACTOR`` register LSBs
    (gamma = 2**-10).  The exceedance comparison ``s << 10 > sigma_q`` is
    made as ``s > sigma_q >> 10``, which is the same integer compare (an
    arithmetic shift is a floor), so the codes are never shifted up.  Takes
    one channel or a time-major block ``(n, channels)`` of codes, admitted by
    :func:`~dualteo.signal_model.datapath_codes`, and compares them as int8:
    the level ``sigma_q >> 10`` never passes their top code, so it fits
    int8.  A ``register`` carries the loop across pieces of one stream (see
    :func:`_sigma_track`).
    """
    return _sigma_track(datapath_codes(s_codes), initial_sigma_q10, 1, SIGMA_FRACTION_BITS, register)


# ---------------------------------------------------------------------------
# Dyadic threshold coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dyadic:
    """Signed dyadic rational ``numerator * 2**-shift``, at most two set bits.

    The two-set-bit restriction keeps every coefficient realizable as one or
    two shift-and-add terms.
    """

    numerator: int
    shift: int

    def __post_init__(self):
        for name in ("numerator", "shift"):
            if not is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy unsigned shift would wrap when negated
        if not 0 <= self.shift < 64:  # a shift of 64 or more empties a 64-bit register
            raise ValueError(f"shift must lie in 0..63, got {self.shift}")
        if bin(abs(self.numerator)).count("1") > 2:
            raise ValueError(
                f"numerator {self.numerator} needs more than two power-of-two terms"
            )

    @property
    def value(self) -> float:
        return self.numerator * 2.0 ** -self.shift

    @property
    def terms(self) -> int:
        return bin(abs(self.numerator)).count("1")


@dataclass(frozen=True)
class ThresholdCoefficients:
    """The three threshold coefficients of :func:`compute_thresholds`.

    Construction rejects a triple whose Q.10 thresholds would leave int64 or
    their register at any sigma (:func:`_check_q10_range`), so every triple,
    from a file, :meth:`make`, a default grid or a caller's grid, is exact
    in :func:`compute_thresholds_q10` and fits the chip.
    """

    c1: Dyadic
    c2: Dyadic
    c3: Dyadic

    def __post_init__(self):
        _check_q10_range(self, type(self).__name__)

    @staticmethod
    def make(c1: tuple, c2: tuple, c3: tuple) -> "ThresholdCoefficients":
        return ThresholdCoefficients(Dyadic(*c1), Dyadic(*c2), Dyadic(*c3))


def _tiebreak_fields(c: ThresholdCoefficients) -> tuple:
    """The calibration tie-break of ``c``: its power-of-two terms, then its shifts, in total."""
    return c.c1.terms + c.c2.terms + c.c3.terms, c.c1.shift + c.c2.shift + c.c3.shift


class _CandidateStack(tuple):
    """A stack of candidates that keeps what is derived from it.

    Calibration evaluates the same candidates on every record, so a stack
    builds each field table (:func:`_candidate_columns`) and its distinct
    crossing maps (:func:`_distinct`) once.  Each default grid is one cached
    stack; a caller's grid becomes one per calibration.
    """

    def table(self, fields, dtype) -> np.ndarray:
        """``fields`` of every candidate, one row each; read-only, as every evaluation shares it."""
        tables = self.__dict__.setdefault("tables", {})
        if fields not in tables:
            tables[fields] = np.array([fields(c) for c in self], dtype=dtype)
            tables[fields].flags.writeable = False
        return tables[fields]

    @cached_property
    def crossing_maps(self) -> tuple:
        """The distinct raw-path maps (one per ``c1``) and smoothed-path maps (one per ``(c2, c3)``)."""
        return (
            _distinct(self, lambda c: (c.c1.numerator, c.c1.shift)),
            _distinct(self, lambda c: (c.c2.numerator, c.c2.shift, c.c3.numerator, c.c3.shift)),
        )


def _stack(coeffs) -> _CandidateStack:
    return coeffs if isinstance(coeffs, _CandidateStack) else _CandidateStack(coeffs)


def _candidate_columns(coeffs, fields, sigma, dtype):
    """``fields(coeffs)`` of one candidate, or one column per field for a stack.

    ``coeffs`` is a :class:`ThresholdCoefficients` or a non-empty sequence of
    them.  One candidate gives the fields' plain Python numbers.  A stack of
    ``k`` gives a ``dtype`` array of shape ``(k, 1, ...)`` per field, with a
    unit axis per sigma axis, so a threshold broadcasts into
    ``(k,) + sigma.shape``.
    """
    if isinstance(coeffs, ThresholdCoefficients):
        return fields(coeffs)
    table = _stack(coeffs).table(fields, dtype)
    return table.T.reshape((table.shape[1], len(table)) + (1,) * np.ndim(sigma))


def _float_fields(c: ThresholdCoefficients) -> tuple:
    return c.c1.value, c.c2.value, c.c3.value


def compute_thresholds(sigma, coeffs):
    """Evaluate ``thr_x = c1*sigma`` and ``thr_s = c2*sigma + c3*sigma**2``.

    Float twin of :func:`compute_thresholds_q10`: takes an array of per-frame
    sigma values (or a scalar) and returns the ``(thr_x, thr_s)`` arrays.
    ``coeffs`` is one candidate, or a stack of them, which gives
    ``(candidates,) + sigma.shape`` arrays whose rows equal the one-candidate
    results bit for bit.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size and sigma.min() < 0:
        raise ValueError("sigma must be non-negative")
    c1, c2, c3 = _candidate_columns(coeffs, _float_fields, sigma, np.float64)
    thr_x = c1 * sigma
    thr_s = c2 * sigma + c3 * sigma * sigma
    return thr_x, thr_s


def compute_thresholds_q10(sigma_q, coeffs):
    """Integer thresholds from a Q.10 sigma, exact up to one final floor per value.

    Both results are Q.10.  ``thr_x = (c1n * sigma_q) >> s1``; for ``thr_s`` the
    two terms are brought to a common denominator before a single arithmetic
    right shift, so no precision is lost between them:

        thr_s_q = (c2n*sigma_q << (d - s2)) + (c3n*sigma_q**2 << (d - s3 - 10)) >> d,
        d = max(s2, s3 + 10)

    Accepts a scalar or an array of sigma values, and one candidate or a
    stack of them, as :func:`compute_thresholds` does.  Sigma registers hold
    less than 2**17, and coefficients whose terms would leave int64 there
    are rejected on construction, so int64 arithmetic is exact.
    """
    x, s1, lin, quad, d = _q10_terms(np.asarray(sigma_q, dtype=np.int64), coeffs)
    return x >> s1, (lin + quad) >> d


def _q10_fields(c: ThresholdCoefficients) -> tuple:
    """Numerators and shifts, and the common shift ``d`` of ``thr_s``."""
    c1, c2, c3 = c.c1, c.c2, c.c3
    d = max(c2.shift, c3.shift + SIGMA_FRACTION_BITS)
    return c1.numerator, c1.shift, c2.numerator, c2.shift, c3.numerator, c3.shift, d


def _q10_terms(sigma_q, coeffs):
    """``c1n * sigma_q`` and its shift, the two ``thr_s`` terms over their common denominator, and its shift ``d``."""
    n1, s1, n2, s2, n3, s3, d = _candidate_columns(coeffs, _q10_fields, sigma_q, np.int64)
    lin = (n2 * sigma_q) << (d - s2)
    quad = (n3 * sigma_q * sigma_q) << (d - s3 - SIGMA_FRACTION_BITS)
    return n1 * sigma_q, s1, lin, quad, d


def _check_q10_range(coeffs: ThresholdCoefficients, origin: str) -> None:
    """Reject coefficients whose Q.10 thresholds are not exact in int64 or could leave their register.

    Each term grows in magnitude with sigma, so its value at the sigma register's bound bounds it, in
    Python integers; a register's top bounds its bottom too: ``-t >> s >= -(t >> s) - 1``.
    """
    from .hw_model import HwConfig

    x, s1, lin, quad, d = _q10_terms(HwConfig.sigma_format.max_code + 1, coeffs)
    x, s = abs(x), abs(lin) + abs(quad)
    if max(x, s) >= 1 << 63:
        raise ValueError(f"{origin}: coefficients overflow the int64 Q.10 thresholds")
    register = HwConfig.threshold_format
    if max(x >> s1, s >> d) > register.max_code:
        raise ValueError(f"{origin}: coefficients overflow the {register.total_bits}-bit Q.10 threshold register")


# ---------------------------------------------------------------------------
# Coefficient fixture files: one "name numerator shift" line per coefficient
# ---------------------------------------------------------------------------


_COEFFICIENT_COLUMNS = (("name", str), ("numerator", int), ("shift", int))
_COEFFICIENT_NAMES = ("c1", "c2", "c3")


def save_coefficients(coeffs: ThresholdCoefficients, path) -> None:
    Path(path).write_text("".join(
        f"{name} {getattr(coeffs, name).numerator} {getattr(coeffs, name).shift}\n"
        for name in _COEFFICIENT_NAMES
    ))


def load_coefficients(path) -> ThresholdCoefficients:
    found: dict[str, Dyadic] = {}
    for line in _data_lines(path):
        name, numerator, shift = line.fields(_COEFFICIENT_COLUMNS)
        if name not in _COEFFICIENT_NAMES:
            raise line.error(f"unknown coefficient {name!r}")
        if name in found:
            raise line.error(f"repeated coefficient {name!r}")
        try:
            found[name] = Dyadic(numerator, shift)
        except ValueError as exc:
            raise line.error(f"{name}: {exc}") from None
    missing = set(_COEFFICIENT_NAMES) - set(found)
    if missing:
        raise ValueError(f"{path}: missing coefficients {sorted(missing)}")
    try:
        return ThresholdCoefficients(*(found[name] for name in _COEFFICIENT_NAMES))
    except ValueError as exc:  # the Q.10 range check; name the file
        raise ValueError(f"{path}: {exc}") from None


@cache
def _load_bundled(name: str) -> ThresholdCoefficients:
    """The coefficients of a bundled file, parsed once per process; they are frozen."""
    return load_coefficients(resources.files("dualteo").joinpath("data").joinpath(name))


def default_float_coefficients() -> ThresholdCoefficients:
    """Calibrated defaults for the floating-point pipeline."""
    return _load_bundled("threshold_coeffs_float.txt")


def default_hw_coefficients() -> ThresholdCoefficients:
    """Calibrated defaults for the integer (7-bit, 16 kHz) pipeline."""
    return _load_bundled("threshold_coeffs_hw.txt")


# ---------------------------------------------------------------------------
# Calibration: exhaustive argmax over a dyadic grid
# ---------------------------------------------------------------------------


def dyadic_ladder(lo_exp: int, hi_exp: int, include_zero: bool = False) -> list[Dyadic]:
    """Candidate values m * 2**e for m in {1, 3}, e in [lo_exp, hi_exp], by value, after an optional zero.

    Two points per octave, no two equal.  Positive exponents fold into the numerator
    (still one or two power-of-two terms), negative ones into the shift.
    """
    ladder = [Dyadic(m << e, 0) if e >= 0 else Dyadic(m, -e) for e in range(lo_exp, hi_exp + 1) for m in (1, 3)]
    return ([Dyadic(0, 0)] if include_zero else []) + sorted(ladder, key=lambda d: d.value)


def default_coefficient_grid(pipeline: str = "float") -> list[ThresholdCoefficients]:
    """Cartesian candidate grid, two points per octave in each coefficient.

    c2 and c3 include zero so either term of thr_s can drop out.  The hw grid
    sits lower because its sigma lives in input-code units while the energies
    carry their truncation shifts.
    """
    return list(_coefficient_grid(pipeline))


@cache
def _coefficient_grid(pipeline: str) -> _CandidateStack:
    """The grid of :func:`default_coefficient_grid`, built once per pipeline."""
    if pipeline == "float":
        c1s = dyadic_ladder(-3, 2)                      # 1/8 .. 12
        c2s = dyadic_ladder(-5, 1, include_zero=True)   # 0, 1/32 .. 6
        c3s = dyadic_ladder(-2, 3, include_zero=True)   # 0, 1/4 .. 24
    elif pipeline == "hw":
        c1s = dyadic_ladder(-4, 1)                      # 1/16 .. 6
        c2s = dyadic_ladder(-5, 0, include_zero=True)   # 0, 1/32 .. 3
        c3s = dyadic_ladder(-6, 0, include_zero=True)   # 0, 1/64 .. 3
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return _CandidateStack(
        ThresholdCoefficients(a, b, c)
        for a in c1s
        for b in c2s
        for c in c3s
    )


RUN_BLOCK = 1 << 19  # crossing runs merged at once; bounds the working set


def _distinct(grid, key) -> tuple[_CandidateStack, np.ndarray]:
    """One representative candidate per distinct ``key``, and each candidate's row among them."""
    rows: dict = {}
    row = np.array([rows.setdefault(key(cand), len(rows)) for cand in grid], dtype=np.intp)
    row.flags.writeable = False  # a stack keeps it for every calibration
    # rows are numbered in order of first appearance
    first = np.unique(row, return_index=True)[1]
    return _CandidateStack(grid[i] for i in first), row


def _crossings(energy: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (map, sample) where ``energy`` strictly exceeds the map's level, sorted by map, then sample.

    ``levels`` holds one row per map and one column per frame of ``energy``,
    whose last frame may be partial.  Each frame's levels are sorted once,
    and a sample's rank, ``np.searchsorted`` of its energy among them on the
    left, counts the levels strictly below it: exactly the maps that
    ``np.greater`` says it crosses.  A NaN level sorts last, where no rank
    reaches it; a NaN energy crosses nothing and takes rank 0.  Each sample then
    stands for the first ``rank`` maps of its frame's order, and a stable
    sort on the map keeps every map's samples ascending.
    """
    L = FRAME_LEN
    by_frame = np.ascontiguousarray(levels.T)
    order = np.argsort(by_frame, axis=1)
    ranked = np.take_along_axis(by_frame, order, axis=1)
    ranks = np.zeros(len(energy), dtype=np.intp)
    for row, lo in zip(ranked, range(0, len(energy), L)):
        ranks[lo:lo + L] = row.searchsorted(energy[lo:lo + L], side="left")
    if energy.dtype.kind == "f":
        ranks[np.isnan(energy)] = 0
    # sample j reads entries [0, ranks[j]) of its frame's row of ``order``
    base = np.arange(len(energy)) // L * len(levels) - (np.cumsum(ranks) - ranks)
    maps = order.reshape(-1)[np.repeat(base, ranks) + np.arange(ranks.sum())]
    samples = np.repeat(np.arange(len(energy)), ranks)
    # small map numbers sort by radix, and stably
    by_map = np.argsort(maps.astype(np.min_scalar_type(len(levels))), kind="stable")
    return maps[by_map], samples[by_map]


def _map_runs(rows, cols, maps: int, align, gap: int, width: int) -> tuple:
    """The crossing runs of ``maps`` maps from their (map, column) crossings, map after map.

    ``rows`` and ``cols`` come sorted by map, then column, as
    :func:`_crossings` gives them.  A run is a maximal cluster of a map's
    crossings whose neighbour gaps are below ``gap``.  Returns each map's run
    count, and each run's first and last crossing and its peak: the earliest
    maximum of ``align`` over its crossings (a NaN counts as the maximum),
    as column and value.  Maps are laid ``width`` apart, at least a gap past
    any map's last crossing, so one ``_merge_runs`` pass over the single
    crossings splits them all.
    """
    from . import detector as _detector

    pos = rows * width + cols
    values = align[cols]
    first, peak = _detector._merge_runs(pos, pos, np.arange(len(pos)), values, gap)
    last = np.append(first, len(cols))[1:] - 1
    counts = np.bincount(rows[first], minlength=maps)
    return counts, cols[first], cols[last], cols[peak], values[peak]


def _record_accuracies(prep, truth, raw, smoothed) -> np.ndarray:
    """Accuracy of every grid candidate on one prepared record, as :func:`calibrate_coefficients` scores it.

    Scoring starts after the warm-up, which is ``WARMUP_FRAMES`` whole
    frames: crossings there are cleared and truth spikes there dropped.  The
    raw-path crossing map depends on ``c1`` alone and the smoothed-path map
    on ``(c2, c3)`` alone, so each distinct map is built once: ``raw`` and
    ``smoothed`` are :func:`_distinct` of the grid under those keys.  All of
    a path's maps come from one stacked ``detector._frame_levels``, whose
    per-frame levels rank the live energies (:func:`_crossings`), and each
    map is reduced to its crossing runs (:func:`_map_runs`).

    A candidate's crossings are the union of its two maps', so its events
    are unions of their runs: a run's crossings are already closer than the
    refractory gap, so it never splits.  Maps whose runs are identical form
    one class, and a candidate's accuracy depends only on its pair of
    classes, so each distinct pair is scored once, through its classes'
    first maps.  Sorted by first crossing, a pair's runs merge through
    ``detector._merge_runs``: a run starts a new event where it begins at
    least a gap past the last crossing of every run before it, and the
    event's peak is the largest run peak, earliest on ties.  Pairs are
    merged in blocks of about ``RUN_BLOCK`` runs, each pair's runs ``width``
    apart from the next one's, and the events' true positives are counted
    in one pass per block.
    """
    from . import detector as _detector
    from . import metrics as _metrics

    (x_reps, x_row), (s_reps, s_row) = raw, smoothed
    n = max(0, prep.n - WARMUP_SAMPLES)
    # any gap above n merges all of a map's crossings into one event, as
    # n + 1 does; the bound keeps the map spacing within the record's
    # length whatever the header rate
    gap = min(_detector.EventFormationConfig.for_rate(prep.rate_hz).refractory_samples, n + 1)
    # maps and pairs lie this far apart, so a gap always separates one's
    # last crossing from the next one's first
    width = n + gap - 1

    crossings = []
    for path, reps in ((0, x_reps), (1, s_reps)):
        levels = _detector._frame_levels(prep, reps)[path][:, WARMUP_FRAMES:]
        rows, cols = _crossings((prep.x_energy, prep.s_energy)[path][WARMUP_SAMPLES:], levels)
        crossings.append((rows + path * len(x_reps), cols))
    n_maps = len(x_reps) + len(s_reps)
    rows, cols = (np.concatenate(part) for part in zip(*crossings))
    counts, run_first, run_last, run_peak, run_value = _map_runs(
        rows, cols, n_maps, prep.align[WARMUP_SAMPLES:], gap, width)
    offset = np.cumsum(counts) - counts  # each map's first run

    # each map's class is named by its first map with the same runs
    triples = np.stack([run_first, run_last, run_peak], axis=1)
    keys, bounds = triples.tobytes(), (np.append(0, np.cumsum(counts)) * triples.strides[0]).tolist()
    named: dict = {}
    cls = np.array([named.setdefault(keys[a:b], m) for m, (a, b) in enumerate(zip(bounds, bounds[1:]))])
    code = cls[x_row] * n_maps + cls[len(x_reps) + s_row]
    distinct = np.sort(code)
    distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
    maps = np.stack(np.divmod(distinct, n_maps), axis=1)  # each distinct pair's two map rows

    runs = counts[maps].sum(axis=1)
    ends = np.cumsum(runs)
    tol = _metrics.match_window(prep.rate_hz, prep.n)
    tru = truth.spike_indices[truth.spike_indices >= WARMUP_SAMPLES] - WARMUP_SAMPLES
    acc = np.empty(len(maps))
    lo = 0
    while lo < len(acc):
        # at least one pair, however many runs it has
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - runs[lo] + RUN_BLOCK, side="right")))
        block = maps[lo:hi].ravel()
        c = counts[block]
        idx = np.repeat(offset[block] - (np.cumsum(c) - c), c) + np.arange(int(c.sum()))
        base = np.repeat(np.arange(hi - lo) * width, runs[lo:hi])
        first = base + run_first[idx]
        # each pair's runs are two ascending lists; sorting keeps the
        # pairs in order, so ``base`` needs no reordering
        order = np.argsort(first, kind="stable")
        first, idx = first[order], idx[order]
        _, peaks = _detector._merge_runs(first, base + run_last[idx], base + run_peak[idx], run_value[idx], gap)
        rows, cols = np.divmod(peaks, width)
        tp = _metrics._true_positives(cols, rows, hi - lo, tru, tol)
        # tp + fp + fn = detections + truths - tp
        denom = np.bincount(rows, minlength=hi - lo) + len(tru) - tp
        np.divide(tp, denom, out=acc[lo:hi], where=denom > 0)
        acc[lo:hi][denom == 0] = 1.0
        lo = hi
    return acc[np.searchsorted(distinct, code)]


def _mean_accuracies(prepared, truths, grid) -> np.ndarray:
    """Mean accuracy of every grid candidate over the prepared training set."""
    raw, smoothed = _stack(grid).crossing_maps
    total = np.zeros(len(grid))
    for prep, truth in zip(prepared, truths):
        total += _record_accuracies(prep, truth, raw, smoothed)
    return total / len(prepared)


def calibrate_coefficients(
    training_set,
    search_grid=None,
    *,
    pipeline: str = "float",
    hw_cfg=None,
    return_score: bool = False,
):
    """Pick the grid point maximizing mean detection accuracy on the training set.

    ``training_set`` is a sequence of ``(SignalRecord, GroundTruth)`` pairs.
    Detections match truth within 1 ms, scored after the warm-up.  Ties break
    toward fewer power-of-two terms, then smaller shifts, then grid order.
    With ``pipeline="hw"`` each pair first goes through
    :func:`~dualteo.hw_model.chip_input`, and ``hw_cfg`` sets the energy shifts.

    The transforms and the sigma trajectory do not depend on the
    coefficients, so each record is prepared once.  All candidates are then
    scored together, record by record: each distinct raw-path and
    smoothed-path crossing map is built once and reduced to its crossing
    runs, and blocks of distinct map pairs merge their two maps' runs into
    events and match them in a few whole-array passes, each pair once (see
    :func:`_record_accuracies`).  The grid's distinct maps and coefficient
    tables are derived once per grid: once per process for a default grid,
    once per call for ``search_grid``.  The result equals scoring each
    candidate through :func:`~dualteo.detector.finish_dual` and
    :func:`~dualteo.metrics.score_record`; the winner's returned score is
    computed that way.
    """
    from . import detector as _detector
    from . import metrics as _metrics

    training_set = list(training_set)
    if not training_set:
        raise ValueError("training set must not be empty")
    grid = _coefficient_grid(pipeline) if search_grid is None else _CandidateStack(search_grid)
    if not grid:
        raise ValueError("search grid must not be empty")

    if pipeline == "hw":
        from .hw_model import chip_input
        training_set = [chip_input(record, truth) for record, truth in training_set]

    prepared = [
        _detector.prepare_dual(record, pipeline=pipeline, hw_cfg=hw_cfg)
        for record, _ in training_set
    ]
    truths = [truth for _, truth in training_set]

    means = _mean_accuracies(prepared, truths, grid)
    tied = np.flatnonzero(means == means.max())
    terms, shifts = grid.table(_tiebreak_fields, np.int64)[tied].T
    best = int(tied[np.lexsort((shifts, terms))[0]])  # a stable sort keeps grid order among equals
    winner = grid[best]
    total = 0.0
    for prep, truth in zip(prepared, truths):
        events = _detector.finish_dual(prep, winner)
        total += _metrics.score_record(events, truth, prep.rate_hz, prep.n)[1]
    score = total / len(prepared)
    assert score == means[best], "batched scoring disagrees with the public path"
    if return_score:
        return winner, score
    return winner
