import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualteo.signal_model import (
    FixedPointFormat,
    QuantizedRecord,
    SignalRecord,
    dequantize,
    load_record,
    peak_full_scale,
    quantize,
    quantize_mid_tread,
    read_header,
    save_record,
)
from dualteo.signal_model import datapath_codes
from dualteo.threshold import initial_sigma_q10, sigma_frames_q10
from dualteo.transforms import smooth2_fixed, teo_fixed

FMT7 = FixedPointFormat(total_bits=7)


def rec(samples, rate=24000.0):
    return SignalRecord(samples=np.asarray(samples, dtype=float), rate_hz=rate)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        q = quantize(rec([0.0]), FMT7, 1.0)
        assert q.codes.tolist() == [0]

    def test_saturates_at_max_code(self):
        q = quantize(rec([2.0]), FMT7, 1.0)
        assert q.codes.tolist() == [63]

    def test_negative_half_scale(self):
        q = quantize(rec([-0.5]), FMT7, 1.0)
        assert q.codes.tolist() == [-32]

    def test_rejects_bad_full_scale(self):
        with pytest.raises(ValueError):
            quantize(rec([0.0]), FMT7, 0.0)

    def test_nonfinite_samples_rejected_at_record_construction(self):
        with pytest.raises(ValueError, match="finite"):
            rec([np.inf])

    @given(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=64),
        st.integers(min_value=2, max_value=16),
    )
    def test_codes_never_leave_range(self, samples, bits):
        fmt = FixedPointFormat(total_bits=bits)
        q = quantize(rec(samples), fmt, 0.7)
        assert q.codes.min() >= fmt.min_code
        assert q.codes.max() <= fmt.max_code

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=64),
        st.integers(min_value=2, max_value=32),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_codes_equal_the_whole_array_formula(self, samples, bits, full_scale):
        # quantize works in one buffer; its codes are those of the formula, cast then clipped
        fmt = FixedPointFormat(total_bits=bits)
        x = np.asarray(samples, dtype=float)
        formula = np.clip(np.floor(x / full_scale * (1 << (bits - 1))).astype(np.int64), fmt.min_code, fmt.max_code)
        codes = quantize(rec(samples), fmt, full_scale).codes
        assert codes.dtype == fmt.dtype
        np.testing.assert_array_equal(codes, formula)

    @given(st.lists(st.floats(min_value=-0.999, max_value=0.999), min_size=1, max_size=64))
    def test_roundtrip_error_within_one_lsb(self, samples):
        q = quantize(rec(samples), FMT7, 1.0)
        back = dequantize(q).samples
        lsb = 1.0 / 64
        assert np.all(np.abs(back - np.asarray(samples)) <= lsb + 1e-12)

    @given(st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=64))
    def test_roundtrip_tracks_clamped_input_within_one_lsb(self, samples):
        # out-of-scale inputs saturate; the roundtrip stays within one LSB of clamp(x)
        q = quantize(rec(samples), FMT7, 1.0)
        back = dequantize(q).samples
        lsb = 1.0 / 64
        clamped = np.clip(samples, -1.0, 63.0 / 64.0)
        assert np.all(np.abs(back - clamped) <= lsb + 1e-12)


class TestDequantize:
    def test_zero_code(self):
        q = QuantizedRecord(codes=[0], format=FMT7, rate_hz=1.0, full_scale=1.0)
        assert dequantize(q).samples.tolist() == [0.0]

    def test_max_positive_code(self):
        q = QuantizedRecord(codes=[63], format=FMT7, rate_hz=1.0, full_scale=1.0)
        assert dequantize(q).samples.tolist() == [0.984375]

    @given(st.lists(st.integers(min_value=-64, max_value=63), min_size=1, max_size=64))
    def test_requantize_is_identity_on_codes(self, codes):
        q = QuantizedRecord(codes=codes, format=FMT7, rate_hz=1.0, full_scale=0.5)
        again = quantize(dequantize(q), FMT7, 0.5)
        assert again.codes.tolist() == codes

    @pytest.mark.parametrize("field, value", [
        ("rate_hz", float("nan")), ("rate_hz", float("inf")), ("rate_hz", 0.0),
        ("full_scale", float("nan")), ("full_scale", float("inf")), ("full_scale", -1.0),
    ])
    def test_rate_and_full_scale_must_be_positive_and_finite(self, field, value):
        kwargs = {"codes": np.zeros(4, dtype=np.int64), "format": FMT7, "rate_hz": 16000.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            QuantizedRecord(**kwargs)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError, match="range"):
            QuantizedRecord(codes=[64], format=FMT7, rate_hz=1.0, full_scale=1.0)

    def test_unsigned_codes_beyond_int64_rejected_not_wrapped(self):
        codes = np.array([2**64 - 1, 5], dtype=np.uint64)
        with pytest.raises(ValueError, match="range"):
            QuantizedRecord(codes=codes, format=FMT7, rate_hz=16000.0)

    @pytest.mark.parametrize("codes", [np.array([0, 5, 63], np.uint8), np.array([-64, 0, 63], np.int16)])
    def test_narrow_integer_codes_accepted(self, codes):
        q = QuantizedRecord(codes=codes, format=FMT7, rate_hz=16000.0)
        assert q.codes.dtype == FMT7.dtype and q.codes.tolist() == codes.tolist()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64])
def test_datapath_codes_are_int8(dtype):
    bottom = np.iinfo(np.int8).min if np.issubdtype(dtype, np.signedinteger) else 0
    values = np.array([bottom, 1, 127], dtype=dtype)
    got = datapath_codes(values)
    assert got.dtype == np.int8 and got.tolist() == values.tolist()
    # int8 passes as it is; any other dtype is cast once, into a copy
    assert (got is values) == (dtype == np.int8)


DATAPATH_KERNELS = {
    "smooth2_fixed": smooth2_fixed,
    "teo_fixed": teo_fixed,
    "sigma_frames_q10": sigma_frames_q10,
    "initial_sigma_q10": initial_sigma_q10,
}


def run_kernel(kernel, codes):
    """The kernel's output, or the message of the ``ValueError`` it raised."""
    try:
        return kernel(codes)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("kernel", DATAPATH_KERNELS.values(), ids=DATAPATH_KERNELS.keys())
@pytest.mark.parametrize("dtype, code, message", [
    # cast to int64 they wrapped: 2**64 - 1 read as -1 and sigma came back [0, 63]
    (np.uint64, 1 << 63, "8-bit range"),
    (np.uint64, (1 << 64) - 1, "8-bit range"),
    (np.int16, 128, "8-bit range"),
    (np.int16, -129, "8-bit range"),
    # a cast truncated floats toward zero, and NaN warned and read as a code
    (np.float64, 1.7, "integer codes"),
    (np.float64, np.nan, "integer codes"),
    (np.bool_, True, "integer codes"),
])
def test_codes_outside_int8_raise_in_every_kernel(kernel, dtype, code, message):
    codes = np.zeros(2 * 256, dtype=dtype)
    codes[0] = code
    for block in (codes, codes[:, None]):
        with pytest.raises(ValueError, match=message):
            kernel(block)


@pytest.mark.parametrize("kernel", DATAPATH_KERNELS.values(), ids=DATAPATH_KERNELS.keys())
@given(codes=st.lists(st.integers(0, 127) | st.integers(0, (1 << 64) - 1), max_size=600))
@example(codes=[127] * 3)
@example(codes=[128])
def test_unsigned_codes_compute_as_int8(kernel, codes):
    codes = np.array(codes, dtype=np.uint64)
    got = run_kernel(kernel, codes)
    if codes.size and codes.max() > 127:
        assert got == "codes outside 8-bit range [-128, 127]"
    else:
        got, want = np.asarray(got), np.asarray(kernel(codes.astype(np.int8)))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestMidTread:
    def test_zero_maps_to_zero_at_coarse_resolution(self):
        fmt = FixedPointFormat(total_bits=4)
        q = quantize_mid_tread(rec([0.0, 0.0]), fmt, 1.0)
        assert q.codes.tolist() == [0, 0]

    def test_removes_floor_bias_on_symmetric_noise(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, size=20000)
        fmt = FixedPointFormat(total_bits=4)
        plain = quantize(rec(x), fmt, 1.0).codes.mean()
        trimmed = quantize_mid_tread(rec(x), fmt, 1.0).codes.mean()
        assert abs(plain + 0.5) < 0.05      # floor leaves a half-code pedestal
        assert abs(trimmed) < 0.05

    def test_codes_are_the_floor_quantizer_of_the_shifted_samples(self):
        x = np.random.default_rng(1).uniform(-1.2, 1.2, size=1000)
        fmt = FixedPointFormat(total_bits=5)
        got = quantize_mid_tread(rec(x), fmt, 0.9)
        want = quantize(rec(x + 0.9 / 32), fmt, 0.9)
        assert got.codes.dtype == want.codes.dtype and np.array_equal(got.codes, want.codes)
        assert (got.rate_hz, got.channel_id, got.full_scale) == (want.rate_hz, want.channel_id, 0.9)

    def test_a_shift_that_overflows_is_refused(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^samples must all be finite$"):
            quantize_mid_tread(rec([0.0, np.finfo(float).max]), FMT7, 1e308)

    @pytest.mark.parametrize("full_scale", [0.0, -1.0, -np.inf])
    def test_non_positive_full_scale_is_refused(self, full_scale):
        with pytest.raises(ValueError, match="full_scale must be positive"):
            quantize_mid_tread(rec([0.5]), FMT7, full_scale)

    @pytest.mark.filterwarnings("error")  # a NaN scale once reached numpy's float-to-int cast
    @pytest.mark.parametrize("quantizer", [quantize, quantize_mid_tread])
    @pytest.mark.parametrize("full_scale", [np.nan, np.inf, 0.0, -1.0])
    def test_full_scale_is_refused_before_any_sample_is_scaled(self, quantizer, full_scale):
        with pytest.raises(ValueError, match=f"^full_scale must be positive and finite, got {full_scale}$"):
            quantizer(rec([0.5, -0.25, 0.0]), FMT7, full_scale)

    def test_quantize_checks_full_scale_before_the_samples(self):
        record = rec([0.5, 0.25])
        record.samples[1] = np.nan  # made non-finite after construction
        with pytest.raises(ValueError, match="full_scale must be positive"):
            quantize(record, FMT7, 0.0)
        with pytest.raises(ValueError, match="^cannot quantize non-finite samples$"):
            quantize(record, FMT7, 1.0)


class TestPeakFullScale:
    @pytest.mark.parametrize(
        "samples, peak",
        [
            ([0.25, -0.75, 0.5], 0.75),
            ([0.25, 0.5], 0.5),
            ([-0.25, -0.5], 0.5),
            ([-0.3], 0.3),
            ([2.0], 2.0),
            ([5e-324], 5e-324),
            ([-0.0], 1.0),
            ([0.0, -0.0, 0.0], 1.0),
            ([0.0] * 5, 1.0),
            ([], 1.0),
        ],
    )
    def test_peak_magnitude_or_one_for_silent_and_empty_records(self, samples, peak):
        got = peak_full_scale(rec(samples))
        assert type(got) is float and repr(got) == repr(peak)

    def test_equals_the_largest_magnitude_bit_for_bit(self):
        x = np.random.default_rng(2).standard_normal(10001) * 1e-3
        assert peak_full_scale(rec(x)) == float(np.max(np.abs(x)))


class TestRecordFiles:
    @pytest.mark.parametrize("suffix", [".f32", ".csv"])
    def test_save_load_roundtrip(self, tmp_path, suffix):
        r = rec([0.25, -0.75, 0.0, 0.5], rate=16000.0)
        path = tmp_path / f"chan{suffix}"
        save_record(r, path, full_scale=1.0)
        back = load_record(path)
        np.testing.assert_allclose(back.samples, r.samples, atol=1e-7)
        assert back.rate_hz == 16000.0
        assert back.channel_id == 0

    def test_header_carries_full_scale(self, tmp_path):
        path = tmp_path / "chan.f32"
        save_record(rec([0.5]), path, full_scale=2.0)
        header = read_header(path)
        assert float(header["full_scale"]) == 2.0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "chan.f32"
        np.zeros(4, dtype="<f4").tofile(path)
        with pytest.raises(FileNotFoundError):
            load_record(path)

    def test_sample_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "chan.f32"
        save_record(rec([0.1, 0.2, 0.3]), path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text(hdr.read_text().replace("n_samples=3", "n_samples=5"))
        with pytest.raises(ValueError, match="samples"):
            load_record(path)

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_trailing_partial_sample_rejected(self, tmp_path, extra):
        path = tmp_path / "chan.f32"
        save_record(rec([0.1, 0.2, 0.3]), path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * extra)
        with pytest.raises(ValueError, match=f"{12 + extra} bytes"):
            load_record(path)

    @pytest.mark.parametrize("key", ["rate_hz", "channel_id", "n_samples"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        path = tmp_path / "chan.f32"
        save_record(rec([0.1, 0.2]), path)
        hdr = path.with_name(path.name + ".hdr")
        lines = hdr.read_text().splitlines()
        hdr.write_text("".join(ln + "\n" for ln in lines if not ln.startswith(f"{key}=")))
        with pytest.raises(ValueError, match=f"missing required header key '{key}'"):
            load_record(path)

    def test_repeated_header_key_rejected_with_its_line(self, tmp_path):
        # the second rate used to win silently
        path = tmp_path / "chan.f32"
        save_record(rec([0.1, 0.2], rate=16000.0), path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text(hdr.read_text() + "rate_hz=24000.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{hdr}:5: repeated header key 'rate_hz'")):
            load_record(path)

    def test_malformed_header_line_named(self, tmp_path):
        path = tmp_path / "chan.f32"
        save_record(rec([0.1]), path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text("rate_hz 24000\n")
        with pytest.raises(ValueError, match="key=value"):
            load_record(path)

    def test_bad_csv_row_named(self, tmp_path):
        path = tmp_path / "chan.csv"
        save_record(rec([0.1, 0.2]), path)
        path.write_text("0.1\nnot-a-number\n")
        with pytest.raises(ValueError, match="2"):
            load_record(path)
