import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualteo import dataio
from dualteo.dataio import (
    MAX_SAMPLES,
    MAX_TEMPLATES,
    GroundTruth,
    SyntheticConfig,
    generate,
    generate_levels,
    load_dataset,
    load_ground_truth,
    min_isi_samples,
    resample,
    rescale_ground_truth,
    save_dataset,
    save_ground_truth,
)
from dualteo.signal_model import SignalRecord


class TestConfigValidation:
    def test_infeasible_isi_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            SyntheticConfig(min_isi_s=0.06, firing_rate_hz=20.0)

    def test_needs_two_templates(self):
        with pytest.raises(ValueError, match="template"):
            SyntheticConfig(n_templates=1)

    # each bounds a Python loop in generate(): these once hung it or passed
    @pytest.mark.parametrize("overrides, message", [
        ({"n_templates": MAX_TEMPLATES + 1}, "n_templates must lie in"),
        ({"n_templates": 2**64}, "n_templates must lie in"),
        ({"firing_rate_hz": 24001.0, "min_isi_s": 0.0}, "firing_rate_hz must not exceed rate_hz"),
        ({"min_isi_s": -0.001}, "min_isi_s must be >= 0"),
    ], ids=["templates-over-cap", "templates-2**64", "firing-above-rate", "negative-isi"])
    def test_loop_bounds_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            SyntheticConfig(**overrides)
        SyntheticConfig(n_templates=MAX_TEMPLATES, firing_rate_hz=24000.0, min_isi_s=0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(noise_level=-0.1)

    @pytest.mark.parametrize("field", ["duration_s", "rate_hz", "noise_level", "firing_rate_hz", "min_isi_s"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "1.0", True, None])
    def test_float_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            SyntheticConfig(**{field: value})

    @pytest.mark.parametrize("field", ["seed", "n_templates"])
    def test_integer_fields_reject_bools(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SyntheticConfig(**{field: True})

    def test_integer_fields_keep_numpy_integers_as_python_ints(self):
        # a uint8 seed of 250 wrapped to 4 in a sweep's seed + r, and the manifest's json.dumps refused it
        cfg = SyntheticConfig(n_templates=np.int64(3), seed=np.uint8(250))
        assert (cfg.n_templates, cfg.seed, type(cfg.n_templates), type(cfg.seed)) == (3, 250, int, int)
        assert json.loads(json.dumps(dataclasses.asdict(cfg)))["seed"] == 250

    # rejected by arithmetic alone: nothing of this size is ever allocated
    @pytest.mark.parametrize("duration_s, rate_hz", [
        (10.0, 1e12),
        (1e300, 1e300),  # the product overflows to inf
        ((MAX_SAMPLES + 1) / 24000.0, 24000.0),
        (1e-9, 24000.0),  # rounds to no samples at all
        (0.4 / 24000.0, 24000.0),
    ])
    def test_sample_count_outside_one_to_cap_rejected(self, duration_s, rate_hz):
        with pytest.raises(ValueError, match="samples"):
            SyntheticConfig(duration_s=duration_s, rate_hz=rate_hz)

    def test_sample_count_bounds_are_inclusive(self):
        assert SyntheticConfig(duration_s=1 / 24000.0).n_samples == 1
        assert SyntheticConfig(duration_s=MAX_SAMPLES / 24000.0).n_samples == MAX_SAMPLES


class TestGroundTruthType:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            GroundTruth(spike_indices=np.array([5, 5, 9]))

    def test_template_ids_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            GroundTruth(spike_indices=np.array([1, 2]), template_ids=np.array([0]))


@pytest.fixture(scope="module")
def mid_noise():
    cfg = SyntheticConfig(duration_s=5.0, noise_level=0.1, seed=21)
    return cfg, *generate(cfg)


class TestGenerate:
    def test_noiseless_record_is_pure_template_train(self):
        cfg = SyntheticConfig(duration_s=3.0, noise_level=0.0, seed=5)
        record, truth = generate(cfg)
        assert len(truth) > 0
        assert np.max(record.samples) == pytest.approx(1.0, abs=1e-12)
        # samples away from any template span are exactly zero
        mask = np.ones(len(record), bool)
        n_t = round(0.002 * cfg.rate_hz)
        for p in truth.spike_indices:
            mask[max(0, p - n_t): p + n_t] = False
        assert np.all(record.samples[mask] == 0.0)

    def test_measured_noise_ratio_within_two_percent(self, mid_noise):
        cfg, record, truth = mid_noise
        mask = np.ones(len(record), bool)
        n_t = round(0.002 * cfg.rate_hz)
        for p in truth.spike_indices:
            mask[max(0, p - n_t): p + n_t] = False
        ratio = float(np.std(record.samples[mask]))  # mean placed peak is 1.0
        assert 0.098 <= ratio <= 0.102

    def test_same_seed_reproduces_bitwise(self):
        cfg = SyntheticConfig(duration_s=2.0, noise_level=0.15, seed=77)
        ra, ta = generate(cfg)
        rb, tb = generate(cfg)
        assert np.array_equal(ra.samples, rb.samples)
        assert np.array_equal(ta.spike_indices, tb.spike_indices)

    def test_same_seed_different_noise_same_spikes(self):
        a = generate(SyntheticConfig(duration_s=2.0, noise_level=0.05, seed=3))[1]
        b = generate(SyntheticConfig(duration_s=2.0, noise_level=0.2, seed=3))[1]
        assert np.array_equal(a.spike_indices, b.spike_indices)
        assert np.array_equal(a.template_ids, b.template_ids)

    def test_isi_floor_respected(self, mid_noise):
        cfg, _, truth = mid_noise
        gaps = np.diff(truth.spike_indices)
        assert gaps.min() >= min_isi_samples(cfg)
        assert min_isi_samples(cfg) >= cfg.min_isi_s * cfg.rate_hz - 1e-6

    def test_truth_within_record_bounds(self, mid_noise):
        _, record, truth = mid_noise
        assert truth.spike_indices[0] >= 0
        assert truth.spike_indices[-1] < len(record)

    def test_record_shorter_than_template_has_no_spikes(self):
        # too short for any template; background noise still present at scale
        record, truth = generate(SyntheticConfig(duration_s=0.001, noise_level=0.1, seed=1))
        assert len(truth) == 0
        assert np.std(record.samples) == pytest.approx(0.1, rel=1e-9)


def record_bytes(record, truth):
    return (
        record.samples.dtype, record.samples.tobytes(), record.rate_hz, record.channel_id,
        truth.spike_indices.dtype, truth.spike_indices.tobytes(),
        truth.template_ids.dtype, truth.template_ids.tobytes(),
    )


class TestGenerateLevels:
    # one sample takes the zero-variance background branch; up to 60 samples
    # at 8-24 kHz no template fits; the rest can hold a few spikes
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate_hz=st.sampled_from([8000.0, 16000.0, 24000.0]),
        n_samples=st.just(1) | st.integers(min_value=2, max_value=60)
        | st.integers(min_value=61, max_value=3000),
        firing_rate_hz=st.floats(min_value=20.0, max_value=400.0),
        n_templates=st.integers(min_value=2, max_value=4),
        levels=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=4)
        .map(lambda xs: [*xs, 0.0, xs[0]]),
    )
    @example(seed=3, rate_hz=24000.0, n_samples=1, firing_rate_hz=20.0, n_templates=3,
             levels=[0.1, 0.0, 0.1])
    def test_equals_generate_per_config(self, seed, rate_hz, n_samples, firing_rate_hz,
                                        n_templates, levels):
        base = SyntheticConfig(duration_s=n_samples / rate_hz, rate_hz=rate_hz,
                               firing_rate_hz=firing_rate_hz, n_templates=n_templates, seed=seed)
        assert base.n_samples == n_samples
        cfgs = [dataclasses.replace(base, noise_level=level) for level in levels]
        shared = generate_levels(cfgs)
        assert len(shared) == len(cfgs)
        for cfg, pair in zip(cfgs, shared):
            assert record_bytes(*pair) == record_bytes(*generate(cfg))
        arrays = [a for record, truth in shared
                  for a in (record.samples, truth.spike_indices, truth.template_ids)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_ten_second_record_at_several_levels(self):
        cfgs = [SyntheticConfig(noise_level=level, seed=1002) for level in (0.0, 0.05, 0.2, 0.37)]
        for cfg, pair in zip(cfgs, generate_levels(cfgs)):
            assert record_bytes(*pair) == record_bytes(*generate(cfg))

    OTHER_FIELDS = {
        "duration_s": 2.0, "rate_hz": 16000.0, "firing_rate_hz": 30.0,
        "n_templates": 4, "min_isi_s": 0.003, "seed": 2,
    }

    def test_every_other_field_is_covered(self):
        names = {f.name for f in dataclasses.fields(SyntheticConfig)}
        assert set(self.OTHER_FIELDS) == names - {"noise_level"}

    @pytest.mark.parametrize("field", sorted(OTHER_FIELDS))
    def test_configs_differing_elsewhere_rejected(self, field):
        base = SyntheticConfig(duration_s=1.0, noise_level=0.1, seed=1)
        other = dataclasses.replace(base, noise_level=0.2, **{field: self.OTHER_FIELDS[field]})
        with pytest.raises(ValueError, match="differ only in noise_level"):
            generate_levels([base, other])
        with pytest.raises(ValueError, match="differ only in noise_level"):
            generate_levels([base, base, other])

    def test_no_configs_no_records(self):
        assert generate_levels([]) == []


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# (seed, rate_hz, noise_level): SHA-256 prefixes of the little-endian float64
# samples and of the int64 truth indices followed by the template ids, for a
# 0.3 s record.  Truth does not depend on the noise level.
GENERATOR_DIGESTS = {
    (3, 16000.0, 0.0): ("e013fe05e2709f02", "cdda812147cae8cc"),
    (3, 16000.0, 0.1): ("21a240cea77d0858", "cdda812147cae8cc"),
    (3, 16000.0, 0.37): ("99b174d07f294d3c", "cdda812147cae8cc"),
    (3, 24000.0, 0.0): ("0c4fc76476ed3876", "03293ac1e866442b"),
    (3, 24000.0, 0.1): ("6161a104b8d212ff", "03293ac1e866442b"),
    (3, 24000.0, 0.37): ("6cbf96c5ca3741ac", "03293ac1e866442b"),
    (1002, 16000.0, 0.0): ("dc3109ab37b62687", "e1e96637fa67e01c"),
    (1002, 16000.0, 0.1): ("cda58f46107fa3e2", "e1e96637fa67e01c"),
    (1002, 16000.0, 0.37): ("6f520d42c105b21f", "e1e96637fa67e01c"),
    (1002, 24000.0, 0.0): ("34d0c2d81b3f91a8", "12edff6ff06f5e1a"),
    (1002, 24000.0, 0.1): ("ed5c816ba9b65334", "12edff6ff06f5e1a"),
    (1002, 24000.0, 0.37): ("4bc1aafa52c562e5", "12edff6ff06f5e1a"),
}


@pytest.mark.parametrize("seed,rate_hz,noise", sorted(GENERATOR_DIGESTS))
def test_generator_bytes_are_pinned(seed, rate_hz, noise):
    """Byte-level pin of ``generate``: any change to its arithmetic, even a
    one-ulp reassociation such as ``raw * (1 / std)`` for ``raw / std``,
    changes a digest.  The digests were taken with numpy 2.4 on x86-64; a
    numpy release that changes its Generator streams or float kernels calls
    for new digests from an unchanged generator, not a looser test."""
    record, truth = generate(SyntheticConfig(duration_s=0.3, rate_hz=rate_hz, noise_level=noise, seed=seed))
    samples, labels = GENERATOR_DIGESTS[(seed, rate_hz, noise)]
    assert _digest(record.samples.astype("<f8")) == samples
    assert _digest(truth.spike_indices.astype("<i8"), truth.template_ids.astype("<i8")) == labels


# 10 s records, whose background superposes thousands of spikes per template
# across many of _add_at's chunk ends; taken before the superposition was chunked
LONG_GENERATOR_DIGESTS = {
    (3, 16000.0, 0.1): ("ce754884aa186bf5", "4c61e74cf6642353"),
    (1002, 24000.0, 0.1): ("b369c96f46bdbeb8", "0250ff23472d9acf"),
}


@pytest.mark.parametrize("seed,rate_hz,noise", sorted(LONG_GENERATOR_DIGESTS))
def test_ten_second_generator_bytes_are_pinned(seed, rate_hz, noise):
    record, truth = generate(SyntheticConfig(duration_s=10.0, rate_hz=rate_hz, noise_level=noise, seed=seed))
    samples, labels = LONG_GENERATOR_DIGESTS[(seed, rate_hz, noise)]
    assert _digest(record.samples.astype("<f8")) == samples
    assert _digest(truth.spike_indices.astype("<i8"), truth.template_ids.astype("<i8")) == labels


def _add_at_in_one_call(out, starts, template, amps):
    idx = starts[:, None] + np.arange(len(template))[None, :]
    np.add.at(out, idx.ravel(), (amps[:, None] * template[None, :]).ravel())


class TestAddAtChunks:
    """``_add_at`` superposes in runs of spikes, one ``np.add.at`` call per
    run; every sum must equal one call over all spikes to the byte."""

    @staticmethod
    def assert_equals_one_call(n, starts, template, amps):
        base = np.random.default_rng(len(starts)).normal(size=n)  # a nonzero record to add onto
        chunked, oracle = base.copy(), base.copy()
        dataio._add_at(chunked, starts, template, amps)
        _add_at_in_one_call(oracle, starts, template, amps)
        assert chunked.tobytes() == oracle.tobytes()

    # a one-sample template puts its cells exactly at 0, 1, budget - 1, budget
    # and budget + 1 past a chunk start; a 2 ms one at 24 kHz puts whole
    # spikes there, a chunk holding budget // 48 of them
    @pytest.mark.parametrize("n_t", [1, 48])
    @pytest.mark.parametrize("past", ["0", "1", "budget - 1", "budget", "budget + 1"])
    def test_equals_one_call_around_chunk_ends(self, n_t, past):
        step = dataio._ADD_AT_CELLS // n_t
        n_spikes = step + {"0": 0, "1": 1, "budget - 1": step - 1, "budget": step, "budget + 1": step + 1}[past]
        rng = np.random.default_rng(n_t)
        n = 300  # thousands of spikes on few samples: each sample sums many, in an order that shows
        self.assert_equals_one_call(
            n,
            rng.integers(0, n - n_t + 1, size=n_spikes),
            rng.normal(size=n_t),
            rng.uniform(0.05, 0.3, size=n_spikes) * 10.0 ** rng.integers(-3, 4, size=n_spikes),
        )

    def test_no_spikes_leave_the_record_alone(self):
        self.assert_equals_one_call(10, np.zeros(0, dtype=np.int64), np.ones(4), np.zeros(0))

    def test_equals_one_call_on_a_ten_second_background(self):
        # the draws generate() makes for a 10 s, 24 kHz background
        rng = np.random.default_rng(5)
        n = 240000
        templates, _, n_t = dataio._make_templates(rng, 3, 24000.0, tau_range=dataio.NOISE_LOBE_TAU_S)
        n_noise = rng.poisson(dataio.NOISE_SPIKE_RATE_HZ * 10.0)
        starts = rng.integers(0, n - n_t, size=n_noise)
        tids = rng.integers(0, 3, size=n_noise)
        amps = rng.uniform(*dataio.NOISE_SPIKE_AMP_RANGE, size=n_noise)
        for tid, template in enumerate(templates):
            sel = tids == tid
            assert sel.sum() * n_t > 10 * dataio._ADD_AT_CELLS
            self.assert_equals_one_call(n, starts[sel], template, amps[sel])


class TestGenerationMemory:
    """Generation's transient memory grows with the record, not with its
    background's spike count: a 60 s, 24 kHz record holds 480,000 background
    spikes, 7.7 million (index, value) cells per template in one
    ``np.add.at`` call before the superposition was chunked."""

    CFG = SyntheticConfig(duration_s=60.0, rate_hz=24000.0, noise_level=0.1, seed=1)
    BOUND = 9  # record lengths of float64 at the traced peak

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_generate_peak_is_bounded(self):
        peak = self.traced_peak(lambda: generate(self.CFG))
        assert peak <= self.BOUND * self.CFG.n_samples * 8

    def test_four_level_generate_levels_peak_is_bounded(self):
        cfgs = [dataclasses.replace(self.CFG, noise_level=level) for level in (0.05, 0.1, 0.15, 0.2)]
        peak = self.traced_peak(lambda: generate_levels(cfgs))
        assert peak <= self.BOUND * self.CFG.n_samples * 8


# rate pairs whose step p/q has a power-of-two q, so every position is exact;
# those with q <= 8 take the strided path, 25 -> 16 kHz (q = 16) and 1 -> 64 kHz do not
EXACT_GRID_RATES = [
    (24000.0, 16000.0),
    (30000.0, 16000.0),
    (25000.0, 16000.0),
    (48000.0, 16000.0),
    (8000.0, 16000.0),
    (24000.0, 8000.0),
    (1000.0, 64000.0),
]


def interp_reference(x, old, new):
    """``np.interp`` at the new sample instants, on the index grid of ``x``."""
    n_new = round(len(x) * new / old)
    with np.errstate(over="ignore"):
        return np.interp(np.arange(n_new) * (old / new), np.arange(len(x)), x)


def run_or_message(call):
    """``call()``, or the message of the ``ValueError`` it raised."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def assert_resample_is_interp(x, old, new):
    out = resample(SignalRecord(x, rate_hz=old), new)
    want = x if old == new else interp_reference(x, old, new)
    assert out.samples.dtype == np.float64 and out.samples.tobytes() == want.tobytes()


class TestResample:
    def test_same_rate_is_identity(self):
        record = SignalRecord(np.arange(10.0), rate_hz=24000.0)
        assert resample(record, 24000.0) is record

    def test_constant_record_stays_constant(self):
        record = SignalRecord(np.full(100, 2.5), rate_hz=24000.0)
        out = resample(record, 16000.0)
        np.testing.assert_allclose(out.samples, 2.5)
        assert out.rate_hz == 16000.0

    @pytest.mark.parametrize("new_rate", [16000.0, 48000.0, 1e-300])
    def test_empty_record_stays_empty_at_the_new_rate(self, new_rate):
        out = resample(SignalRecord(np.zeros(0), rate_hz=24000.0, channel_id=3), new_rate)
        assert (len(out), out.rate_hz, out.channel_id) == (0, new_rate, 3)

    def test_ramp_slope_scales_by_rate_ratio(self):
        record = SignalRecord(np.arange(300, dtype=float), rate_hz=24000.0)
        out = resample(record, 16000.0)
        steps = np.diff(out.samples[:-2])  # clamped endpoint excluded
        np.testing.assert_allclose(steps, 1.5)

    def test_duration_preserved_within_one_period(self):
        record = SignalRecord(np.zeros(9999), rate_hz=24000.0)
        for new_rate in (16000.0, 30000.0, 12345.0):
            out = resample(record, new_rate)
            assert abs(out.duration_s - record.duration_s) <= 1.0 / new_rate

    @given(
        n_old=st.integers(1, 5000),
        rates=st.sampled_from([(24000.0, 16000.0), (16000.0, 24000.0), (44100.0, 16000.0), (8000.0, 48000.0)])
        | st.sampled_from(EXACT_GRID_RATES)
        | st.tuples(st.floats(1000.0, 50000.0), st.floats(1000.0, 50000.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_old=240000, rates=(24000.0, 16000.0), seed=1)  # a 10 s record, as detect --hw takes it
    @settings(max_examples=60, deadline=None)
    def test_equals_interp_on_integer_grids_bit_for_bit(self, n_old, rates, seed):
        old, new = rates
        x = np.random.default_rng(seed).standard_normal(n_old)
        assert_resample_is_interp(x, old, new)

    @pytest.mark.parametrize("old, new", EXACT_GRID_RATES)
    def test_short_records_and_every_phase_equal_interp(self, old, new):
        p, q = (old / new).as_integer_ratio()
        # 1..5 samples, then enough lengths to end on every phase against every sample offset
        for n_old in range(1, 6 + 2 * p * q):
            assert_resample_is_interp(np.random.default_rng(n_old).standard_normal(n_old), old, new)

    @pytest.mark.parametrize(
        "old, new, n_old, tail",
        [
            (24000.0, 8000.0, 1, "no samples"),
            (48000.0, 16000.0, 1, "no samples"),
            (24000.0, 16000.0, 4, "on the last sample"),  # 0, 1.5, 3
            (30000.0, 16000.0, 16, "on the last sample"),
            (25000.0, 16000.0, 26, "on the last sample"),
            (8000.0, 16000.0, 3, "past the last sample"),
            (1000.0, 64000.0, 2, "past the last sample"),
        ],
    )
    def test_tails_equal_interp(self, old, new, n_old, tail):
        n_new = round(n_old * new / old)
        last = (n_new - 1) * (old / new)
        assert tail == (
            "no samples" if n_new == 0 else "on the last sample" if last == n_old - 1 else "past the last sample"
        )
        assert_resample_is_interp(np.random.default_rng(n_old).standard_normal(n_old), old, new)

    @pytest.mark.parametrize("old, new", EXACT_GRID_RATES + [(44100.0, 16000.0), (16000.0, 24000.0)])
    @pytest.mark.parametrize("n_old", [1, 2, 3, 7, 64])
    def test_samples_near_the_float_limit_raise_or_equal_interp(self, old, new, n_old):
        x = np.resize([1.7e308, -1.7e308, 1.7e308, 0.0, -0.0, -1.7e308, 5e-324], n_old)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.interp overflows silently; so must resample
            got = run_or_message(lambda: resample(SignalRecord(x, rate_hz=old), new).samples.tobytes())
        want = run_or_message(lambda: SignalRecord(interp_reference(x, old, new), rate_hz=new).samples.tobytes())
        assert got == want

    @pytest.mark.parametrize(
        "old, calls_interp",
        [(24000.0, False), (30000.0, False), (48000.0, False), (25000.0, True), (44100.0, True)],
    )
    def test_exact_grid_ratios_up_to_q_8_skip_interp_and_others_call_it(self, monkeypatch, old, calls_interp):
        record = SignalRecord(np.random.default_rng(0).standard_normal(2400), rate_hz=old)
        want = interp_reference(record.samples, old, 16000.0)

        def refuse(*args, **kwargs):
            raise AssertionError("np.interp called")

        monkeypatch.setattr(dataio.np, "interp", refuse)
        if calls_interp:
            with pytest.raises(AssertionError, match="np.interp called"):
                resample(record, 16000.0)
        else:
            assert resample(record, 16000.0).samples.tobytes() == want.tobytes()

    def test_truth_rescaling_rounds_and_clips(self):
        truth = GroundTruth(spike_indices=np.array([0, 100, 299]))
        out = rescale_ground_truth(truth, 24000.0, 16000.0, n_new=200)
        assert out.spike_indices.tolist() == [0, 67, 199]

    def test_index_scaled_past_int64_clips_to_the_last_sample(self):
        truth = GroundTruth(spike_indices=np.array([100, 2**63 - 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the unclipped cast warned and wrapped to sample 0
            out = rescale_ground_truth(truth, 8000.0, 16000.0, n_new=1000)
        assert out.spike_indices.tolist() == [200, 999]

    def test_empty_truth_rescales_to_empty(self):
        out = rescale_ground_truth(GroundTruth(np.zeros(0, dtype=int)), 24000.0, 16000.0, 10)
        assert len(out) == 0

    def test_truth_of_an_empty_record_rescales_to_empty(self):
        # spike index 0 used to survive, clipped onto a record with no sample 0
        truth = GroundTruth(spike_indices=np.array([0, 7]), template_ids=np.array([1, 2]))
        assert len(rescale_ground_truth(truth, 24000.0, 16000.0, n_new=0)) == 0


class TestGroundTruthFiles:
    def test_roundtrip_with_template_ids(self, tmp_path):
        truth = GroundTruth(spike_indices=np.array([10, 50, 90]), template_ids=np.array([0, 2, 1]))
        path = tmp_path / "truth.csv"
        save_ground_truth(truth, path)
        back = load_ground_truth(path)
        assert np.array_equal(back.spike_indices, truth.spike_indices)
        assert np.array_equal(back.template_ids, truth.template_ids)

    def test_empty_file_gives_empty_truth(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("")
        assert len(load_ground_truth(path)) == 0

    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("120\n480\n960\n")
        truth = load_ground_truth(path)
        assert truth.spike_indices.tolist() == [120, 480, 960]
        assert truth.template_ids is None

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("120\nabc\n")
        with pytest.raises(ValueError, match=":2"):
            load_ground_truth(path)

    def test_partial_template_ids_rejected(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("120,1\n480\n")
        with pytest.raises(ValueError, match="some lines"):
            load_ground_truth(path)


class TestDatasetBundle:
    def test_roundtrip_and_manifest(self, tmp_path):
        cfg = SyntheticConfig(duration_s=1.0, noise_level=0.1, seed=1)
        record, truth = generate(cfg)
        paths = save_dataset(record, truth, cfg, tmp_path, "demo")
        back_record, back_truth = load_dataset(tmp_path, "demo")
        np.testing.assert_allclose(back_record.samples, record.samples, atol=1e-6)
        assert np.array_equal(back_truth.spike_indices, truth.spike_indices)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["config"]["seed"] == 1
        assert manifest["n_spikes"] == len(truth)

    @pytest.mark.parametrize("past", [0, 5], ids=["last-of-four-lines", "only-line"])
    def test_truth_beyond_record_names_its_line(self, tmp_path, past):
        cfg = SyntheticConfig(duration_s=1.0, noise_level=0.1, seed=1)
        record, truth = generate(cfg)
        save_dataset(record, truth, cfg, tmp_path, "demo")
        n = len(record)
        lines = [f"{n + past}"] if past else ["# spikes", "5", f"{n - 1}", f"{n}"]
        (tmp_path / "demo_truth.csv").write_text("\n".join(lines) + "\n")
        message = f"demo_truth.csv:{len(lines)}: spike index {n + past} lies beyond the record's {n} samples"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(tmp_path, "demo")
