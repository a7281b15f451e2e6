import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualteo import metrics, threshold
from dualteo.dataio import GroundTruth, SyntheticConfig, generate
from dualteo.detector import (
    EventFormationConfig,
    PreparedDual,
    dual_crossing_streams,
    event_indices,
    finish_dual,
    prepare_dual,
)
from dualteo.signal_model import SignalRecord
from loop_oracles import calibration_means, sigma_track
from serial_oracle import SigmaEstimatorState, estimator_step
from dualteo.threshold import (
    CONVERGENCE_FACTOR,
    FRAME_LEN,
    SCALING_FACTOR,
    WARMUP_SAMPLES,
    Dyadic,
    _check_q10_range,
    _crossings,
    SIGMA_FRACTION_BITS,
    UNMEASURED,
    ThresholdCoefficients,
    _mean_accuracies,
    calibrate_coefficients,
    compute_thresholds,
    compute_thresholds_q10,
    default_coefficient_grid,
    default_float_coefficients,
    default_hw_coefficients,
    dyadic_ladder,
    initial_sigma_q10,
    load_coefficients,
    save_coefficients,
    sigma_frames,
    sigma_frames_q10,
)

dyadics = st.builds(
    Dyadic,
    numerator=st.sampled_from([-12, -6, -3, -2, -1, 0, 1, 2, 3, 5, 6, 12]),
    shift=st.integers(min_value=0, max_value=12),
)

SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan]


class TestEstimatorStep:
    def test_exactly_k_exceedances_leaves_sigma_unchanged(self):
        state = SigmaEstimatorState(sigma=1.0, frame_len=256)
        for i in range(256):
            sample = 2.0 if i < state.convergence_factor else 0.0
            state = estimator_step(state, sample)
        assert state.sigma == 1.0
        assert state.samples_in_frame == 0 and state.exceed_count == 0

    def test_counters_reset_at_frame_boundary(self):
        state = SigmaEstimatorState(sigma=0.5, frame_len=4)
        for _ in range(4):
            state = estimator_step(state, 1.0)
        assert state.samples_in_frame == 0
        assert state.exceed_count == 0
        assert state.sigma == pytest.approx(0.5 + 0.001 * (4 - 20))

    def test_comparison_is_strict(self):
        state = SigmaEstimatorState(sigma=1.0, frame_len=4)
        state = estimator_step(state, 1.0)  # equal, must not count
        assert state.exceed_count == 0
        state = estimator_step(state, 1.0000001)
        assert state.exceed_count == 1

    def test_sigma_clamped_at_zero(self):
        state = SigmaEstimatorState(sigma=0.001, frame_len=2, scaling_factor=0.01)
        state = estimator_step(state, -1.0)
        state = estimator_step(state, -1.0)
        assert state.sigma == 0.0

    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=256, max_size=256))
    def test_bounded_update_per_frame(self, frame):
        state = SigmaEstimatorState(sigma=1.0, frame_len=256)
        for v in frame:
            state = estimator_step(state, v)
        bound = 0.001 * max(256 - 20, 20)
        assert abs(state.sigma - 1.0) <= bound + 1e-12

    @given(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=256, max_size=256),
        st.randoms(use_true_random=False),
    )
    def test_permutation_within_frame_is_irrelevant(self, frame, rnd):
        def run(samples):
            state = SigmaEstimatorState(sigma=0.7, frame_len=256)
            for v in samples:
                state = estimator_step(state, v)
            return state.sigma

        shuffled = list(frame)
        rnd.shuffle(shuffled)
        assert run(frame) == run(shuffled)


class TestSigmaTrajectories:
    def test_matches_stepwise_fold_with_explicit_start(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=2000)
        L = FRAME_LEN
        traj = sigma_frames(s)
        # frame 0 measures; the step model starts from that measurement at frame 1
        state = SigmaEstimatorState(sigma=float(np.std(s[:L])), frame_len=L)
        expected = [0.0]
        for i, v in enumerate(s[L:]):
            if i % L == 0:
                expected.append(state.sigma)
            state = estimator_step(state, v)
        np.testing.assert_array_equal(traj, expected)

    def test_measurement_frame_semantics(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=700)
        traj = sigma_frames(s)
        assert traj[0] == 0.0
        assert traj[1] == pytest.approx(np.std(s[:256]))

    def test_integer_twin_measurement_frame(self):
        rng = np.random.default_rng(5)
        s = rng.integers(-64, 64, size=1000)
        traj = sigma_frames_q10(s)
        assert traj[0] == 0
        assert traj[1] == initial_sigma_q10(s[:256])

    def test_integer_twin_matches_python_reference(self):
        rng = np.random.default_rng(6)
        s = rng.integers(-64, 64, size=2048).tolist()
        got = sigma_frames_q10(s).tolist()
        sigma_q = 0
        expected = []
        for f in range(len(s) // 256):
            expected.append(sigma_q)
            frame = s[f * 256:(f + 1) * 256]
            if f == 0:
                sigma_q = initial_sigma_q10(frame)
            else:
                count = sum(1 for v in frame if (v << 10) > sigma_q)
                sigma_q = max(0, sigma_q + count - CONVERGENCE_FACTOR)
        assert got == expected

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=0, max_value=2000),
        channels=st.integers(min_value=1, max_value=40),
    )
    @settings(deadline=None)
    def test_block_steps_every_column_as_its_own_channel(self, seed, n, channels):
        rng = np.random.default_rng(seed)
        # per-column amplitudes, so columns converge to different sigmas
        block = (rng.integers(-64, 64, size=(n, channels)) // rng.integers(1, 64, size=channels)).astype(np.int8)
        block[:, 0] = 0  # sigma stays 0 and every sample sits exactly on it
        traj = sigma_frames_q10(block)
        first = initial_sigma_q10(block)
        assert traj.dtype == np.int32 and traj.shape == (-(-n // FRAME_LEN), channels)
        assert first.shape == (channels,)
        for c in range(channels):
            column = block[:, c]
            assert np.array_equal(traj[:, c], sigma_frames_q10(column))
            assert first[c] == initial_sigma_q10(column)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=0, max_value=2000),
        channels=st.integers(min_value=1, max_value=40),
        specials=st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=6),
    )
    @settings(deadline=None)
    def test_float_block_steps_every_column_as_its_own_channel(self, seed, n, channels, specials):
        # per-column scales, so each column measures and converges to its own sigma
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(n, channels)) * rng.uniform(0.01, 10, size=channels)
        for value in specials if n else []:
            block[rng.integers(n), rng.integers(channels)] = value
        with np.errstate(invalid="ignore"):  # the std of a frame holding inf
            traj = sigma_frames(block)
            columns = [sigma_frames(block[:, c]) for c in range(channels)]
        assert traj.dtype == np.float64 and traj.shape == (-(-n // FRAME_LEN), channels)
        for c, column in enumerate(columns):
            np.testing.assert_array_equal(traj[:, c], column)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.float64])
    def test_one_column_block_equals_one_channel(self, dtype):
        s = np.random.default_rng(12).integers(-64, 64, size=2000).astype(dtype)
        if dtype == np.float64:
            s[700:720] = np.nan  # a frame holding NaN
        trajectory = sigma_frames if dtype == np.float64 else sigma_frames_q10
        one, column = trajectory(s), trajectory(s[:, None])
        assert column.shape == (len(one), 1) and column.dtype == one.dtype
        np.testing.assert_array_equal(column[:, 0], one)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        channels=st.sampled_from([1, 5]),
        frames=st.lists(st.integers(min_value=0, max_value=4), max_size=6),
        tail=st.integers(min_value=0, max_value=FRAME_LEN - 1),
    )
    @settings(deadline=None)
    def test_register_carries_the_loop_across_pieces(self, seed, channels, frames, tail):
        # pieces of whole frames, then a partial one, stepped through one register
        rng = np.random.default_rng(seed)
        n = (sum(frames) * FRAME_LEN) + tail
        block = (rng.integers(-64, 64, size=(n, channels)) // rng.integers(1, 64, size=channels)).astype(np.int8)
        register = np.full(channels, UNMEASURED, dtype=np.int32)
        cuts = np.cumsum([0] + [f * FRAME_LEN for f in frames] + [tail])
        pieces = [sigma_frames_q10(block[lo:hi], register) for lo, hi in zip(cuts, cuts[1:])]
        whole = sigma_frames_q10(block)
        assert np.array_equal(np.concatenate(pieces), whole)
        if n < FRAME_LEN:  # no measurement frame yet
            assert (register == UNMEASURED).all()
        elif n % FRAME_LEN == 0:  # the register holds the sigma of the next frame
            longer = sigma_frames_q10(np.concatenate([block, np.zeros((1, channels), np.int8)]))
            assert np.array_equal(register, longer[-1])

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        channels=st.sampled_from([1, 5]),
        frames=st.lists(st.integers(min_value=0, max_value=4), max_size=6),
        tail=st.integers(min_value=0, max_value=FRAME_LEN - 1),
    )
    @settings(deadline=None)
    def test_float_register_carries_the_loop_across_pieces(self, seed, channels, frames, tail):
        # the float twin: pieces of whole frames, then a partial one, through one float64 register
        rng = np.random.default_rng(seed)
        n = (sum(frames) * FRAME_LEN) + tail
        block = rng.normal(size=(n, channels)) * rng.uniform(0.01, 10, size=channels)
        register = np.full(channels, UNMEASURED, dtype=np.float64)
        cuts = np.cumsum([0] + [f * FRAME_LEN for f in frames] + [tail])
        pieces = [sigma_frames(block[lo:hi], register) for lo, hi in zip(cuts, cuts[1:])]
        whole = sigma_frames(block)
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        if n < FRAME_LEN:  # no measurement frame yet
            assert (register == UNMEASURED).all()
        elif n % FRAME_LEN == 0:  # the register holds the sigma of the next frame
            longer = sigma_frames(np.concatenate([block, np.zeros((1, channels))]))
            np.testing.assert_array_equal(register, longer[-1])

    def test_int8_block_compares_at_the_edges_of_its_range(self):
        # an int8 block compares as int8, so its level sigma >> 10 must fit int8: pin columns
        # at 127, one climbing from 0 and one measured at the top, and at -128, where
        # nothing exceeds the level
        frames = 600  # 127 << 10 in steps of 256 - 20
        top, bottom = np.int8(127), np.int8(-128)
        swing = np.resize([bottom, top], FRAME_LEN)  # frame 0 of std 127.5
        block = np.empty((frames * FRAME_LEN, 5), dtype=np.int8)
        block[:, 0] = top
        block[:, 1] = top
        block[:FRAME_LEN, 1] = swing
        block[:, 2] = bottom
        block[:, 3] = bottom
        block[:FRAME_LEN, 3] = swing
        block[:, 4] = np.random.default_rng(13).integers(-128, 128, size=len(block))
        # each column's trajectory by the per-frame count, one frame past the block
        longer = np.concatenate([block, np.zeros((1, block.shape[1]), np.int8)])
        want = np.stack([sigma_track(column, initial_sigma_q10, 1, SIGMA_FRACTION_BITS) for column in longer.T], 1)
        register = np.full(block.shape[1], UNMEASURED, dtype=np.int32)
        cuts = [0, FRAME_LEN, 40 * FRAME_LEN, 300 * FRAME_LEN, len(block)]
        for lo, hi in zip(cuts, cuts[1:]):
            np.testing.assert_array_equal(sigma_frames_q10(block[lo:hi], register), want[lo // FRAME_LEN:hi // FRAME_LEN])
            np.testing.assert_array_equal(register, want[hi // FRAME_LEN])
        levels = sigma_frames_q10(block) >> SIGMA_FRACTION_BITS
        assert levels[-1, 0] >= 126 and levels[:, 0].max() == levels[:, 1].max() == 127
        assert levels[1:, 2].max() == 0

    @given(st.lists(st.integers(min_value=-64, max_value=63), min_size=1, max_size=400))
    def test_initial_sigma_q10_matches_exact_floor(self, codes):
        got = initial_sigma_q10(codes)
        n = min(len(codes), 256)
        head = codes[:n]
        v = n * sum(c * c for c in head) - sum(head) ** 2
        if v <= 0:
            assert got == 0
        else:
            # floor(1024*sqrt(v)/n) via exact integer square root
            assert got == math.isqrt((1 << 20) * v) // n

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=0, max_value=300),
        channels=st.integers(min_value=1, max_value=40),
        bits=st.sampled_from([1, 2, 7, 8]),
    )
    def test_initial_sigma_q10_of_random_blocks_matches_isqrt(self, seed, n, channels, bits):
        # per-column amplitudes from full scale down, int8 at the widest
        rng = np.random.default_rng(seed)
        half = 1 << (bits - 1)
        block = rng.integers(-half, half, size=(n, channels)) >> rng.integers(0, bits, size=channels)
        block[:, 0] = rng.choice([-half, half - 1], size=n)
        block = block.astype(np.int8)
        got = initial_sigma_q10(block)
        assert got.dtype == np.int64 and got.shape == (channels,)
        head = block[:FRAME_LEN]
        for c in range(channels):
            col = head[:, c].tolist()
            v = len(col) * sum(x * x for x in col) - sum(col) ** 2
            assert got[c] == (math.isqrt(v << 20) // len(col) if col else 0)
            assert initial_sigma_q10(head[:, c]) == got[c]

    def test_initial_sigma_q10_at_the_edges_of_int8_is_exact(self):
        # all -128, all 127, and the widest spread, as a block and column by column
        frame = np.stack([np.full(FRAME_LEN, -128), np.full(FRAME_LEN, 127),
                          np.resize([-128, 127], FRAME_LEN), np.resize([-128, 127, 127], FRAME_LEN)], 1)
        v = [FRAME_LEN * sum(x * x for x in col) - sum(col) ** 2 for col in frame.T.tolist()]
        want = [math.isqrt(x << 20) // FRAME_LEN for x in v]
        assert want[:2] == [0, 0] and v[2] == 255 ** 2 << 14 < 1 << 30  # v's largest: v << 20 stays below 2**50
        assert initial_sigma_q10(frame.astype(np.int8)).tolist() == want
        assert [initial_sigma_q10(col) for col in frame.T.astype(np.int8)] == want

    def test_initial_sigma_q10_where_v_is_a_square_or_one_below(self):
        # frames of p codes a and 256 - p codes b: v = p(256 - p)(a - b)**2.  A
        # full frame's v is -sum**2 modulo 256, so never a square plus one
        p, a, b = (g.ravel() for g in np.meshgrid(np.arange(1, FRAME_LEN), np.arange(-128, 128), [-1, 0, 1],
                                                  indexing="ij"))
        v = p * (FRAME_LEN - p) * (a - b) ** 2
        root = np.array([math.isqrt(x) for x in (v + 1).tolist()])
        square, below = v == np.array([math.isqrt(x) ** 2 for x in v.tolist()]), root * root == v + 1
        assert square.sum() > 100 and below.sum() > 100
        keep = np.flatnonzero(square | below)
        frames = np.where(np.arange(FRAME_LEN)[:, None] < p[keep], a[keep], b[keep]).astype(np.int8)
        want = [math.isqrt(int(x) << 20) // FRAME_LEN for x in v[keep]]
        assert initial_sigma_q10(frames).tolist() == want
        assert [initial_sigma_q10(col) for col in frames.T[::7]] == want[::7]

    @pytest.mark.parametrize("code, dtype", [
        (128, np.int16),
        (-129, np.int16),
        (1 << 31, np.int64),
        (-(1 << 63), np.int64),
        ((1 << 63) - 1, np.int64),
        ((1 << 64) - 1, np.uint64),
    ])
    def test_q10_entry_points_reject_codes_outside_int8(self, code, dtype):
        frame = np.zeros((FRAME_LEN + 10, 3), dtype=dtype)
        frame[7, 1] = code
        # a list past int64 converts to float64, which is refused as well
        for codes in (frame, frame[:, 1], frame[:, 1].tolist()):
            for entry in (initial_sigma_q10, sigma_frames_q10):
                with pytest.raises(ValueError, match="outside 8-bit range|expected integer codes"):
                    entry(codes)

    def test_gaussian_convergence_small(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(300_000)
        s = (x + np.concatenate(([x[0]], x[:-1]))) / 2.0
        traj = sigma_frames(s)
        counts = []
        for f in range(400, len(s) // 256):
            frame = s[f * 256:(f + 1) * 256]
            counts.append(np.count_nonzero(frame > traj[f]))
        assert 17.0 <= np.mean(counts) <= 23.0
        quantile = np.quantile(s, 1.0 - 20.0 / 256.0)
        assert abs(np.mean(traj[400:]) - quantile) / quantile < 0.1



@st.composite
def sigma_channels(draw, dtype):
    """One channel of ``dtype`` samples, 0 to 3000 long, and how many samples per frame to tie at its level.

    Float channels may hold signed zeros, infinities and NaN; coarse
    channels draw from a few values, so samples also tie with each other.
    """
    n = draw(st.integers(min_value=0, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    coarse = draw(st.booleans())
    if dtype == np.float64:
        s = rng.integers(-4, 5, size=n) / 4 if coarse else rng.normal(size=n)
        for _ in range(draw(st.integers(min_value=0, max_value=6)) if n else 0):
            s[rng.integers(n)] = draw(st.sampled_from(SPECIAL_FLOATS))
    else:
        # codes of any integer dtype reach int8's range, which every Q.10 entry point takes
        top = 64 if coarse else 128
        s = rng.integers(-top, top, size=n).astype(dtype)
    return s, draw(st.integers(min_value=0, max_value=8))


def tie_at_levels(s, ties, trajectory, level):
    """Set ``ties`` samples of each frame after the first to that frame's level.

    A frame's sigma depends only on the frames before it, so the frames are
    tied in order, each against the trajectory of the samples tied so far.
    """
    for f in range(1, len(s) // FRAME_LEN):
        lo = f * FRAME_LEN
        s[lo:lo + ties] = level(trajectory(s)[f])
    return s


class TestSortedSigmaWalk:
    """The one-channel walk counts by bisection over sorted frames; a per-frame count is the oracle."""

    @settings(deadline=None)
    @given(sigma_channels(np.float64))
    def test_float_walk_equals_per_frame_count(self, drawn):
        s, ties = drawn
        with np.errstate(invalid="ignore"):  # the std of a frame holding inf
            s = tie_at_levels(s, ties, sigma_frames, lambda sigma: sigma)
            got, want = sigma_frames(s), sigma_track(s, np.std, SCALING_FACTOR)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    @settings(deadline=None)
    @given(st.sampled_from([np.int8, np.int16, np.int32, np.int64]).flatmap(sigma_channels))
    def test_q10_walk_equals_per_frame_count(self, drawn):
        s, ties = drawn
        s = tie_at_levels(s, ties, sigma_frames_q10, lambda sigma: sigma >> SIGMA_FRACTION_BITS)
        got = sigma_frames_q10(s)
        want = sigma_track(s, initial_sigma_q10, 1, SIGMA_FRACTION_BITS)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cut", [0, FRAME_LEN, 2 * FRAME_LEN, 4 * FRAME_LEN, 6 * FRAME_LEN])
    def test_one_channel_register_carries_the_walk_across_pieces(self, cut):
        s = np.random.default_rng(9).integers(-30, 30, size=1500)
        register = np.array(UNMEASURED)
        pieces = [sigma_frames_q10(s[:cut], register), sigma_frames_q10(s[cut:], register)]
        np.testing.assert_array_equal(np.concatenate(pieces), sigma_frames_q10(s))

    @pytest.mark.parametrize("cut", [0, FRAME_LEN, 2 * FRAME_LEN, 4 * FRAME_LEN, 6 * FRAME_LEN])
    def test_one_channel_float_register_carries_the_walk_across_pieces(self, cut):
        # a 0-d register, as the float detectors carry it from chunk to chunk
        s = np.random.default_rng(9).normal(size=1500)
        s[300:310] = np.nan  # frame 1 holds NaNs, which sort last and never exceed
        register = np.array(UNMEASURED, dtype=np.float64)
        pieces = [sigma_frames(s[:cut], register), sigma_frames(s[cut:], register)]
        np.testing.assert_array_equal(np.concatenate(pieces), sigma_frames(s))

    def test_nan_never_exceeds(self):
        # a NaN sorts last; a walk that bisected it as a number would count it
        s = np.random.default_rng(8).normal(size=2000)
        s[700] = np.nan
        got = sigma_frames(s)
        np.testing.assert_array_equal(got, sigma_track(s, np.std, SCALING_FACTOR))
        s[700] = -np.inf
        np.testing.assert_array_equal(got, sigma_frames(s))


class TestDyadic:
    def test_value(self):
        assert Dyadic(3, 2).value == 0.75
        assert Dyadic(-1, 5).value == -(2.0 ** -5)

    def test_more_than_two_terms_rejected(self):
        with pytest.raises(ValueError, match="power-of-two"):
            Dyadic(7, 0)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    def test_shift_past_the_register_rejected(self):
        assert Dyadic(1, 63).value == 2.0 ** -63
        with pytest.raises(ValueError, match="0..63"):
            Dyadic(1, 64)

    def test_ladder_covers_even_values(self):
        values = [d.value for d in dyadic_ladder(-2, 3)]
        for v in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 3.0, 6.0):
            assert v in values

    @pytest.mark.parametrize("lo, hi", [(-3, 2), (-5, 1), (-2, 3), (-4, 1), (-6, 0), (-40, 40)])
    def test_ladder_values_strictly_increase_after_the_zero(self, lo, hi):
        ladder = dyadic_ladder(lo, hi, include_zero=True)
        values = [d.value for d in ladder]
        assert ladder[0] == Dyadic(0, 0) and len(values) == 1 + 2 * (hi - lo + 1)
        assert all(a < b for a, b in zip(values, values[1:]))

    # each grid's candidates, in order, as one "numerator shift" line per coefficient
    @pytest.mark.parametrize("pipeline, size, digest", [
        ("float", 2340, "9b48a6dde5bd1f96"),
        ("hw", 2340, "c77ee5a6ea75f6f9"),
    ])
    def test_default_grid_content_and_order_are_pinned(self, pipeline, size, digest):
        grid = default_coefficient_grid(pipeline)
        text = "".join(f"{d.numerator} {d.shift}\n" for c in grid for d in (c.c1, c.c2, c.c3))
        assert len(grid) == size and hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestComputeThresholds:
    def test_zero_sigma_gives_zero_pair(self):
        coeffs = ThresholdCoefficients.make((1, 2), (1, 3), (3, 1))
        thr_x, thr_s = compute_thresholds(0.0, coeffs)
        assert thr_x == 0.0 and thr_s == 0.0

    def test_hand_example(self):
        coeffs = ThresholdCoefficients.make((1, 5), (1, 5), (0, 0))
        thr_x, thr_s = compute_thresholds(32.0, coeffs)
        assert thr_x == 1.0 and thr_s == 1.0

    def test_polynomial_scaling_structure(self):
        coeffs = ThresholdCoefficients.make((1, 1), (1, 2), (1, 3))
        (one_x, one_s), (two_x, two_s) = (
            compute_thresholds(sigma, coeffs) for sigma in (3.0, 6.0)
        )
        assert two_x == pytest.approx(2 * one_x)
        c2, c3 = coeffs.c2.value, coeffs.c3.value
        assert two_s == pytest.approx(2 * c2 * 3.0 + 4 * c3 * 9.0)

    def test_array_matches_scalar(self):
        coeffs = ThresholdCoefficients.make((3, 2), (1, 2), (2, 0))
        sigmas = np.array([0.0, 0.25, 1.0, 3.5, 70.0])
        vx, vs = compute_thresholds(sigmas, coeffs)
        for i, sigma in enumerate(sigmas):
            sx, ss = compute_thresholds(float(sigma), coeffs)
            assert vx[i] == sx and vs[i] == ss

    def test_negative_sigma_rejected(self):
        coeffs = ThresholdCoefficients.make((1, 0), (0, 0), (0, 0))
        with pytest.raises(ValueError):
            compute_thresholds(-1.0, coeffs)
        with pytest.raises(ValueError):
            compute_thresholds(np.array([0.5, -1.0, 2.0]), coeffs)

    @given(dyadics, dyadics, dyadics, st.integers(min_value=0, max_value=1 << 17))
    @settings(max_examples=300)
    def test_q10_matches_rational_oracle(self, c1, c2, c3, sigma_q):
        coeffs = ThresholdCoefficients(c1, c2, c3)
        thr_x, thr_s = compute_thresholds_q10(sigma_q, coeffs)
        # oracle: exact rationals, one final floor
        sig = Fraction(sigma_q, 1 << SIGMA_FRACTION_BITS)
        want_x = math.floor(
            Fraction(c1.numerator, 1 << c1.shift) * sig * (1 << SIGMA_FRACTION_BITS)
        )
        want_s = math.floor(
            (Fraction(c2.numerator, 1 << c2.shift) * sig
             + Fraction(c3.numerator, 1 << c3.shift) * sig * sig)
            * (1 << SIGMA_FRACTION_BITS)
        )
        assert thr_x == want_x
        assert thr_s == want_s

    def test_q10_vectorized_matches_scalar(self):
        coeffs = ThresholdCoefficients.make((3, 2), (1, 2), (2, 0))
        sigmas = np.array([0, 1, 1023, 1024, 70000, 131071], dtype=np.int64)
        vx, vs = compute_thresholds_q10(sigmas, coeffs)
        for i, sq in enumerate(sigmas):
            sx, ss = compute_thresholds_q10(int(sq), coeffs)
            assert vx[i] == sx and vs[i] == ss


def _exact_in_q10(triple) -> bool:
    try:
        _check_q10_range(ThresholdCoefficients(*triple), "drawn")
    except ValueError:
        return False
    return True


# zero, negative, one- and two-term numerators, and every shift a Dyadic takes
two_term_numerators = st.builds(
    lambda low, high, sign: sign * ((1 << low) | (1 << high)),
    st.integers(0, 24), st.integers(0, 24), st.sampled_from([-1, 1]),
)
wide_dyadics = st.builds(
    Dyadic, numerator=st.one_of(st.just(0), two_term_numerators), shift=st.integers(0, 63),
)
exact_triples = st.tuples(wide_dyadics, wide_dyadics, wide_dyadics).filter(_exact_in_q10)


class TestStackedThresholds:
    @given(
        stack=st.lists(exact_triples, min_size=1, max_size=8),
        sigma_q=st.one_of(
            st.integers(0, 1 << 17),
            st.lists(st.integers(0, 1 << 17), max_size=40),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_row_equals_the_one_candidate_call(self, stack, sigma_q):
        stack = [ThresholdCoefficients(*t) for t in stack]
        sigma = np.asarray(sigma_q, dtype=np.float64) / (1 << SIGMA_FRACTION_BITS)
        for evaluate, arg in ((compute_thresholds_q10, sigma_q), (compute_thresholds, sigma)):
            stacked = evaluate(arg, stack)
            for got in stacked:
                assert got.shape == (len(stack),) + np.shape(arg)
            for i, coeffs in enumerate(stack):
                for got, want in zip(stacked, evaluate(arg, coeffs)):
                    want = np.asarray(want)
                    assert got[i].dtype == want.dtype and got[i].tobytes() == want.tobytes()


class TestCoefficientFiles:
    def test_roundtrip(self, tmp_path):
        coeffs = ThresholdCoefficients.make((3, 4), (-1, 2), (2, 0))
        path = tmp_path / "coeffs.txt"
        save_coefficients(coeffs, path)
        assert load_coefficients(path) == coeffs

    def test_missing_coefficient_rejected(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text("c1 1 2\nc2 0 0\n")
        with pytest.raises(ValueError, match="c3"):
            load_coefficients(path)

    def test_repeated_coefficient_rejected_with_its_line(self, tmp_path):
        # the last of the three c1 lines used to win silently
        path = tmp_path / "coeffs.txt"
        path.write_text("c1 1 0\nc2 0 0\n# comment\nc1 2 0\nc1 3 0\nc3 0 0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: repeated coefficient 'c1'")):
            load_coefficients(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text("c1 1\n")
        with pytest.raises(ValueError, match="name numerator shift"):
            load_coefficients(path)

    @pytest.mark.parametrize("triple", [
        ((1 << 62, 0), (1 << 62, 0), (0, 0)),
        ((1, 0), (0, 0), (1 << 45, 0)),
        ((1 << 46, 0), (0, 0), (0, 0)),
    ])
    def test_constructor_rejects_coefficients_that_overflow(self, tmp_path, triple):
        # unchecked, the first triple wraps thr_x to -2**63 at sigma_q 2, and
        # the integer detector reports events where the float one finds none
        with pytest.raises(ValueError, match="overflow the int64"):
            ThresholdCoefficients.make(*triple)
        with pytest.raises(ValueError, match="overflow the int64"):
            ThresholdCoefficients(*(Dyadic(*c) for c in triple))
        path = tmp_path / "coeffs.txt"
        path.write_text("".join(f"c{i} {n} {s}\n" for i, (n, s) in enumerate(triple, start=1)))
        with pytest.raises(ValueError, match="overflow the int64") as raised:
            load_coefficients(path)
        assert str(raised.value).startswith(f"{path}: ")

    def test_constructor_takes_the_widest_exact_terms(self):
        # at the sigma register's bound, 2**17, c1 * sigma_q reaches 2**62, and
        # so does c2 * sigma_q over thr_s's common denominator 2**32; both
        # thresholds then shift down to 2**30, inside the 32-bit register
        coeffs = ThresholdCoefficients.make((1 << 45, 32), (1 << 45, 32), (0, 0))
        thr_x, thr_s = compute_thresholds_q10(1 << 17, coeffs)
        assert (thr_x, thr_s) == (1 << 30, 1 << 30)
        # one bit more overflows int64, one shift less the register
        with pytest.raises(ValueError, match="overflow the int64"):
            ThresholdCoefficients.make((1 << 46, 33), (0, 0), (0, 0))
        for wider in (((1 << 45, 31), (0, 0), (0, 0)), ((0, 0), (1 << 45, 31), (0, 0))):
            with pytest.raises(ValueError, match="32-bit Q.10 threshold register"):
                ThresholdCoefficients.make(*wider)

    def test_bundled_defaults_parse(self):
        for load in (default_float_coefficients, default_hw_coefficients):
            coeffs = load()
            assert isinstance(coeffs, ThresholdCoefficients)
            assert coeffs.c1.value > 0
            assert load() is coeffs  # parsed once per process


@pytest.fixture(scope="module")
def tiny_training():
    cfg = SyntheticConfig(duration_s=2.0, noise_level=0.02, seed=9)
    return [generate(cfg)]


class TestCalibration:
    def test_separable_case_prefers_working_coefficients(self, tiny_training):
        good = ThresholdCoefficients.make((3, 2), (1, 2), (2, 0))
        absurd = ThresholdCoefficients.make((12, 0), (12, 0), (12, 0))
        got = calibrate_coefficients(tiny_training, [good, absurd])
        assert got == good

    def test_dominated_candidate_never_returned(self, tiny_training):
        dominated = ThresholdCoefficients.make((12, 0), (0, 0), (12, 0))  # misses all
        winner = ThresholdCoefficients.make((1, 1), (1, 2), (2, 0))
        got = calibrate_coefficients(tiny_training, [dominated, winner])
        assert got == winner

    def test_ties_break_toward_fewer_terms_then_smaller_shifts(self, tiny_training):
        # both detect the clean record perfectly; the two-term numerator loses
        a = ThresholdCoefficients.make((3, 2), (1, 2), (2, 0))   # terms 4
        b = ThresholdCoefficients.make((1, 1), (1, 2), (2, 0))   # terms 3
        got = calibrate_coefficients(tiny_training, [a, b])
        assert got == b
        # equal terms: smaller total shift wins
        c = ThresholdCoefficients.make((1, 1), (1, 2), (1, 0))
        d = ThresholdCoefficients.make((1, 1), (1, 2), (1, 1))
        got = calibrate_coefficients(tiny_training, [d, c])
        assert got == c
        # equal terms and shifts: the first in grid order wins
        tied = [
            c,
            ThresholdCoefficients.make((1, 1), (1, 2), (2, 0)),
            ThresholdCoefficients.make((1, 1), (2, 2), (1, 0)),
        ]
        for first in range(3):
            order = tied[first:] + tied[:first]
            assert calibrate_coefficients(tiny_training, [d] + order) == order[0]

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            calibrate_coefficients([], None)

    def test_shipped_defaults_match_fixture_files(self):
        # the committed fixtures are the calibration output; the loaders are the API
        float_coeffs = default_float_coefficients()
        hw_coeffs = default_hw_coefficients()
        assert float_coeffs.c1.value > 0 and hw_coeffs.c1.value > 0


# hw calibration's mean accuracies at every drop pair ``calibrate --search-drops``
# tries: (x drop, s drop) -> SHA-256 prefix of the little-endian float64 means
# over the hw grid, on three 1 s, 24 kHz records through the chip's input stage
GOLDEN_DROP_MEANS = {
    (6, 5): "11b7299bde2a2c2c", (6, 6): "be3bf205125efd8d", (6, 7): "69cc0d0961877aa6",
    (7, 5): "c512554989f15840", (7, 6): "51ac2e062aca1109", (7, 7): "3aee2ee3cd19d3fd",
    (8, 5): "fa4cf6955822827a", (8, 6): "a32dec28eea11454", (8, 7): "e4e338e7a025e4ac",
}


@pytest.fixture(scope="module")
def drops_corpus():
    from dualteo.hw_model import chip_input
    return [chip_input(*generate(SyntheticConfig(duration_s=1.0, noise_level=noise, seed=seed)))
            for noise, seed in [(0.1, 21), (0.25, 22), (0.4, 23)]]


def test_hw_calibration_means_are_pinned_at_every_searched_drop_pair(drops_corpus):
    from dualteo.cli import _SEARCH_DROPS
    from dualteo.hw_model import HwConfig

    assert sorted(GOLDEN_DROP_MEANS) == [(x, s) for x in _SEARCH_DROPS[0] for s in _SEARCH_DROPS[1]]
    grid, truths = default_coefficient_grid("hw"), [truth for _, truth in drops_corpus]
    for (x, s), digest in GOLDEN_DROP_MEANS.items():
        cfg = HwConfig(xteo_drop_lsbs=x, steo_drop_lsbs=s)
        means = _mean_accuracies([prepare_dual(q, pipeline="hw", hw_cfg=cfg) for q, _ in drops_corpus], truths, grid)
        assert hashlib.sha256(means.astype("<f8").tobytes()).hexdigest()[:16] == digest, (x, s)


@st.composite
def energies_and_levels(draw):
    """Live energies, 0 to 4 frames long and perhaps ending mid-frame, and 1 to 6 maps of per-frame levels.

    Float draws mix a few shared values, so energies tie with levels, with
    signed zeros, infinities and NaN in both.  int16 draws hold the 8- and
    9-bit energies of the integer pipeline against levels clipped into
    int16, as ``detector._frame_levels`` clips them.
    """
    n = draw(st.integers(min_value=0, max_value=4 * FRAME_LEN))
    maps = draw(st.integers(min_value=1, max_value=6))
    frames = -(-n // FRAME_LEN)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        pool = np.array([-1.0, -0.5, 0.25, 0.5, 1.0, 2.0] + SPECIAL_FLOATS)
        weights = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=len(pool), max_size=len(pool)))
        weights = np.array(weights, dtype=float) + (sum(weights) == 0)
        energy, levels = (rng.choice(pool, size=shape, p=weights / weights.sum()) for shape in (n, (maps, frames)))
    else:
        energy = rng.integers(-256, 512, size=n).astype(np.int16)
        lim = np.iinfo(np.int16)
        levels = rng.choice(np.array([lim.min, -3, 0, 1, 2, 5, 40, 300, lim.max], dtype=np.int16), size=(maps, frames))
        levels[rng.random(levels.shape) < 0.5] = rng.choice(energy) if n else 0  # ties
    return energy, levels


class TestCrossingRanks:
    @settings(deadline=None, max_examples=300)
    @given(energies_and_levels())
    @example((np.zeros(0), np.zeros((3, 0))))  # no live sample
    @example((np.arange(FRAME_LEN + 7) % 4 - 1.0, np.array([[0.0, 1.0], [2.0, -0.0]])))  # ties in a partial last frame
    @example((np.array([np.nan, np.inf, 1.0, -np.inf]), np.array([[np.nan], [0.0], [-np.inf], [np.inf]])))
    def test_rank_pairs_equal_the_compare_of_every_map(self, drawn):
        energy, levels = drawn
        rows, cols = _crossings(energy, levels)
        # every sample against its frame's level of every map, read row-major
        per_sample = np.repeat(levels, FRAME_LEN, axis=1)[:, :len(energy)]
        want = np.flatnonzero(np.greater(energy, per_sample))
        np.testing.assert_array_equal(rows * len(energy) + cols, want)


# Batched calibration against the per-candidate loop it replaced

RATES = {"float": 24000.0, "hw": 16000.0}


@st.composite
def shared_value_grids(draw, pipeline):
    """Small grids whose candidates share c1 and (c2, c3) values, zeros and a negative value included."""
    full = default_coefficient_grid(pipeline)
    extra = {Dyadic(0, 0), Dyadic(-1, 3)}

    def pool(values):
        ordered = sorted(set(values) | extra, key=lambda d: (d.value, d.numerator, d.shift))
        return draw(st.lists(st.sampled_from(ordered), min_size=1, max_size=3, unique=True))

    c1s = pool(c.c1 for c in full)
    c2s = pool(c.c2 for c in full)
    c3s = pool(c.c3 for c in full)
    picks = draw(st.lists(
        st.tuples(st.sampled_from(c1s), st.sampled_from(c2s), st.sampled_from(c3s)),
        min_size=1, max_size=10,
    ))
    return [ThresholdCoefficients(*p) for p in picks]


def distinct_map_pairs(prep, grid) -> int:
    """How many distinct (raw-path runs, smoothed-path runs) pairs the candidates of ``grid`` give on ``prep``.

    A run is a cluster of live crossings whose neighbour gaps are below the
    refractory gap, as its first and last crossing and its earliest peak
    of the alignment.
    """
    align = prep.align[WARMUP_SAMPLES:]
    gap = EventFormationConfig.for_rate(prep.rate_hz).refractory_samples

    def runs(crossings):
        idx = np.flatnonzero(crossings[WARMUP_SAMPLES:])
        groups = np.split(idx, np.flatnonzero(np.diff(idx) >= gap) + 1) if len(idx) else []
        return tuple((g[0], g[-1], g[np.argmax(align[g])]) for g in groups)

    return len({tuple(map(runs, dual_crossing_streams(prep, c))) for c in grid})


def ramp_record(pipeline):
    """A prepared record whose only live energy is a five-sample ramp on the smoothed path, and its truth.

    The raw energy is zero, so every raw-path map is empty, and the ramp's
    five adjacent samples make at most one run in any smoothed-path map.
    The (empty, empty) pair comes first in map order and the pairs after it
    hold one run each, so a one-run block takes the first two pairs together.
    """
    n = WARMUP_SAMPLES + FRAME_LEN
    ramp = WARMUP_SAMPLES + 100 + np.arange(5)
    if pipeline == "float":
        energy, sigma, align = np.zeros(n), np.ones(n // FRAME_LEN), np.zeros(n)
    else:
        energy, align = np.zeros(n, dtype=np.int16), np.zeros(n, dtype=np.int32)
        sigma = np.full(n // FRAME_LEN, 1 << SIGMA_FRACTION_BITS, dtype=np.int32)
    s_energy = energy.copy()
    s_energy[ramp] = align[ramp] = np.arange(1, 6)
    prep = PreparedDual(x_energy=energy, s_energy=s_energy, sigma_per_frame=sigma, align=align,
                        rate_hz=RATES[pipeline], channel_id=0)
    return prep, GroundTruth(spike_indices=ramp[2:3])


class TestBatchedCalibration:
    def test_crowded_truth_runs_the_greedy_fallback(self, oracle_training):
        for pipeline in RATES:
            _, prepared, truths = oracle_training[pipeline]
            prep, crowded = prepared[3], truths[3].spike_indices
            coeffs = default_float_coefficients() if pipeline == "float" else default_hw_coefficients()
            det = event_indices(finish_dual(prep, coeffs))
            tol = prep.tolerance_samples()
            reach = (np.searchsorted(crowded, det + tol, side="right")
                     - np.searchsorted(crowded, det - tol, side="left"))
            assert (reach > 1).any(), pipeline

    def test_cut_record_crosses_in_its_partial_last_frame(self, oracle_training):
        for pipeline in RATES:
            _, prepared, _ = oracle_training[pipeline]
            prep = prepared[4]
            live = prep.n - WARMUP_SAMPLES
            assert live % FRAME_LEN, pipeline
            coeffs = default_float_coefficients() if pipeline == "float" else default_hw_coefficients()
            last = event_indices(finish_dual(prep, coeffs)) >= prep.n - live % FRAME_LEN
            assert last.any(), pipeline

    @pytest.mark.parametrize("rate", [1e9, 1e300])
    def test_header_rate_past_the_record_keeps_rows_record_sized(self, oracle_training, rate):
        # the 1 ms gap (1e6 or 1e297 samples) exceeds the record, so every
        # row's crossings merge into one event; the row padding stays below n
        (record, truth), *_ = oracle_training["float"][0]
        prep = prepare_dual(SignalRecord(samples=record.samples, rate_hz=rate))
        grid = default_coefficient_grid("float")[::97]
        got = _mean_accuracies([prep], [truth], grid)
        assert np.array_equal(got, calibration_means([prep], [truth], grid))

    @pytest.mark.parametrize("pipeline", sorted(RATES))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_candidate_mean_equals_per_candidate_loop(self, oracle_training, pipeline, data):
        _, prepared, truths = oracle_training[pipeline]
        grid = data.draw(shared_value_grids(pipeline))
        got = _mean_accuracies(prepared, truths, grid)
        assert np.array_equal(got, calibration_means(prepared, truths, grid))

    @pytest.mark.parametrize("pipeline", sorted(RATES))
    def test_winner_is_first_best_of_per_candidate_loop(self, oracle_training, pipeline):
        pairs, prepared, truths = oracle_training[pipeline]
        full = default_coefficient_grid(pipeline)
        grid = full[::97] + full[::97]  # every candidate twice, sharing its crossing maps
        means = calibration_means(prepared, truths, grid)
        keys = [(-m,) + threshold._tiebreak_fields(c) for m, c in zip(means, grid)]
        best = keys.index(min(keys))
        winner, score = calibrate_coefficients(pairs, grid, pipeline=pipeline, return_score=True)
        assert (winner, score) == (grid[best], means[best])

    def test_nan_alignment_matches_per_candidate_loop(self):
        # three samples around every other live spike scaled by 1e155..1e160:
        # x**2 overflows, the energies hold inf - inf, and events peak on the
        # NaN alignment values, which count as the maximum
        grid = default_coefficient_grid("float")[::13]
        prepared, truths = [], []
        for i, scale in enumerate([1e155, 1e157, 1e160]):
            record, truth = generate(SyntheticConfig(duration_s=0.6, noise_level=0.2, seed=30 + i))
            x = record.samples.copy()
            for j in truth.spike_indices[truth.spike_indices > WARMUP_SAMPLES + 100][::2]:
                x[j - 1:j + 2] *= scale
            with np.errstate(over="ignore", invalid="ignore"):
                prep = prepare_dual(SignalRecord(samples=x, rate_hz=record.rate_hz))
                assert any(np.isnan(prep.align[event_indices(finish_dual(prep, c))]).any() for c in grid)
            prepared.append(prep)
            truths.append(truth)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _mean_accuracies(prepared, truths, grid)
            assert np.array_equal(got, calibration_means(prepared, truths, grid))
        assert len(np.unique(got)) > 1

    @pytest.mark.parametrize("pipeline", sorted(RATES))
    @pytest.mark.parametrize("runs", [1, 4, 16])
    def test_run_blocks_split_inside_the_grid(self, oracle_training, pipeline, runs, monkeypatch):
        _, prepared, truths = oracle_training[pipeline]
        ramp, ramp_truth = ramp_record(pipeline)
        prepared, truths = prepared + [ramp], truths + [ramp_truth]
        once = default_coefficient_grid(pipeline)[::97]
        true_positives = metrics._true_positives
        monkeypatch.setattr(threshold, "RUN_BLOCK", runs)
        # the second grid lists every candidate twice, so its distinct pairs are fewer than its candidates
        for grid in (once, once + once):
            blocks = []
            monkeypatch.setattr(metrics, "_true_positives",
                                lambda *args: blocks.append(args[2]) or true_positives(*args))
            got = _mean_accuracies(prepared, truths, grid)
            pairs = [distinct_map_pairs(prep, grid) for prep in prepared]
            # the blocks score each record's distinct pairs once each
            assert sum(blocks) == sum(pairs)
            assert max(pairs) <= len(once)
            # some pair fills a block by itself, some block holds several
            assert 1 in blocks and max(blocks) > 1
            assert np.array_equal(got, calibration_means(prepared, truths, grid))

    def test_long_record_matches_per_candidate_loop(self, noisy_record):
        # 6 s at 24 kHz: every map row holds more than 2**17 live samples, as
        # the 10 s records of the shipped calibration do
        record, truth = noisy_record
        prep = prepare_dual(record)
        assert prep.n - WARMUP_SAMPLES > 1 << 17
        grid = default_coefficient_grid("float")[::97]
        assert np.array_equal(_mean_accuracies([prep], [truth], grid), calibration_means([prep], [truth], grid))

    def test_grid_maps_are_derived_once_per_grid(self, oracle_training, monkeypatch):
        pairs, _, _ = oracle_training["hw"]
        calibrate_coefficients(pairs[:1], pipeline="hw")  # the default grid derives its maps once
        calls = []
        distinct = threshold._distinct
        monkeypatch.setattr(threshold, "_distinct", lambda *args: calls.append(args) or distinct(*args))
        calibrate_coefficients(pairs, pipeline="hw")
        assert calls == []
        calibrate_coefficients(pairs, default_coefficient_grid("hw")[::97], pipeline="hw")
        assert len(calls) == 2  # one per path, not one per record

    def test_tied_peaks_of_overlapping_runs_take_the_earliest(self):
        # the raw path's run spans the smoothed path's one-crossing run, and
        # both peak at the same value: the event sits on the earlier peak,
        # which lies in the run that starts later
        n = WARMUP_SAMPLES + 2 * FRAME_LEN
        x_energy, s_energy, align = np.zeros(n), np.zeros(n), np.zeros(n)
        raw = WARMUP_SAMPLES + np.array([10, 25, 45, 65, 85, 100])
        x_energy[raw] = 2.0
        s_energy[WARMUP_SAMPLES + 30] = 2.0
        align[raw] = 1.0
        align[WARMUP_SAMPLES + np.array([30, 100])] = 5.0
        prep = PreparedDual(x_energy=x_energy, s_energy=s_energy, sigma_per_frame=np.ones(n // FRAME_LEN),
                            align=align, rate_hz=24000.0, channel_id=0)
        truth = GroundTruth(spike_indices=np.array([WARMUP_SAMPLES + 30]))
        grid = [ThresholdCoefficients.make((1, 0), (1, 0), (0, 0))]  # thr_x = thr_s = 1
        assert event_indices(finish_dual(prep, grid[0])).tolist() == [WARMUP_SAMPLES + 30]
        got = _mean_accuracies([prep], [truth], grid)
        assert got.tolist() == [1.0]
        assert np.array_equal(got, calibration_means([prep], [truth], grid))
