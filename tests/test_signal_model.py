import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualteo.detector import EventFormationConfig
from dualteo.hw_model import HwConfig
from dualteo.signal_model import (
    FixedPointFormat,
    QuantizedRecord,
    SignalRecord,
    dequantize,
    is_integer,
    load_record,
    peak_full_scale,
    quantize_mid_tread,
    read_header,
    save_record,
)
from dualteo.signal_model import datapath_codes
from dualteo.threshold import Dyadic, initial_sigma_q10, sigma_frames_q10
from dualteo.transforms import smooth2_fixed, teo_fixed

FMT7 = FixedPointFormat(total_bits=7)


def rec(samples, rate=24000.0):
    return SignalRecord(samples=np.asarray(samples, dtype=float), rate_hz=rate)


def mid_tread_formula(x, bits, full_scale):
    """The codes of ``quantize_mid_tread`` as one whole-array formula, cast then clipped."""
    fmt = FixedPointFormat(total_bits=bits)
    shifted = np.asarray(x, dtype=float) + full_scale / (1 << bits)
    return np.clip(np.floor(shifted / full_scale * (1 << (bits - 1))).astype(np.int64), fmt.min_code, fmt.max_code)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        q = quantize_mid_tread(rec([0.0]), FMT7, 1.0)
        assert q.codes.tolist() == [0]

    def test_saturates_at_max_code(self):
        q = quantize_mid_tread(rec([2.0]), FMT7, 1.0)
        assert q.codes.tolist() == [63]

    def test_negative_half_scale(self):
        q = quantize_mid_tread(rec([-0.5]), FMT7, 1.0)
        assert q.codes.tolist() == [-32]

    def test_rejects_bad_full_scale(self):
        with pytest.raises(ValueError):
            quantize_mid_tread(rec([0.0]), FMT7, 0.0)

    def test_nonfinite_samples_rejected_at_record_construction(self):
        with pytest.raises(ValueError, match="finite"):
            rec([np.inf])

    @given(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=64),
        st.integers(min_value=2, max_value=16),
    )
    def test_codes_never_leave_range(self, samples, bits):
        fmt = FixedPointFormat(total_bits=bits)
        q = quantize_mid_tread(rec(samples), fmt, 0.7)
        assert q.codes.min() >= fmt.min_code
        assert q.codes.max() <= fmt.max_code

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=64),
        st.integers(min_value=2, max_value=32),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_codes_equal_the_whole_array_formula(self, samples, bits, full_scale):
        # the quantizer works in one buffer; its codes are those of the formula
        fmt = FixedPointFormat(total_bits=bits)
        codes = quantize_mid_tread(rec(samples), fmt, full_scale).codes
        assert codes.dtype == fmt.dtype
        np.testing.assert_array_equal(codes, mid_tread_formula(samples, bits, full_scale))

    @given(st.lists(st.floats(min_value=-0.999, max_value=0.999), min_size=1, max_size=64))
    def test_roundtrip_error_within_one_lsb(self, samples):
        q = quantize_mid_tread(rec(samples), FMT7, 1.0)
        back = dequantize(q).samples
        lsb = 1.0 / 64
        assert np.all(np.abs(back - np.asarray(samples)) <= lsb + 1e-12)

    @given(st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=64))
    def test_roundtrip_tracks_clamped_input_within_half_an_lsb(self, samples):
        # out-of-scale inputs saturate; the roundtrip stays within half an LSB of clamp(x)
        q = quantize_mid_tread(rec(samples), FMT7, 1.0)
        back = dequantize(q).samples
        lsb = 1.0 / 64
        clamped = np.clip(samples, -1.0, 63.0 / 64.0)
        assert np.all(np.abs(back - clamped) <= lsb / 2 + 1e-12)


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
        again = quantize_mid_tread(dequantize(q), FMT7, 0.5)
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


def test_is_integer_takes_python_and_numpy_integers_but_no_bool():
    assert all(map(is_integer, [0, -3, 2**70, np.int8(5), np.int64(-1), np.uint64(2**63)]))
    assert not any(map(is_integer, [True, np.bool_(False), 1.0, np.float64(2.0), "3", None]))


# each of these constructed, then failed later with a raw TypeError, or as
# refractory_samples=1.5, merged at a fractional gap
@pytest.mark.parametrize("make, name, value", [
    (lambda v: HwConfig(channels=v), "channels", 2.5),
    (lambda v: HwConfig(channels=v), "channels", True),
    (lambda v: HwConfig(xteo_drop_lsbs=v), "xteo_drop_lsbs", 6.5),
    (lambda v: HwConfig(steo_drop_lsbs=v), "steo_drop_lsbs", np.float64(6.0)),
    (lambda v: Dyadic(1, v), "shift", 2.0),
    (lambda v: Dyadic(v, 2), "numerator", 1.5),
    (lambda v: FixedPointFormat(v), "total_bits", 7.5),
    (lambda v: EventFormationConfig(v), "refractory_samples", 1.5),
], ids=["channels-2.5", "channels-True", "xteo-6.5", "steo-float64", "shift-2.0", "numerator-1.5",
        "total_bits-7.5", "refractory-1.5"])
def test_config_value_types_refuse_non_integers(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make(value)


def test_config_value_types_take_numpy_integers_as_python_ints():
    # numpy's fixed widths wrapped: -np.uint8(2) is 254
    values = [
        *vars(HwConfig(channels=np.int64(3), xteo_drop_lsbs=np.uint8(7), steo_drop_lsbs=np.int8(6))).values(),
        *vars(Dyadic(np.int16(3), np.uint8(2))).values(),
        FixedPointFormat(np.uint8(7)).total_bits,
        EventFormationConfig(np.uint16(16)).refractory_samples,
    ]
    assert values == [3, 7, 6, 3, 2, 7, 16] and {type(v) for v in values} == {int}
    assert Dyadic(np.int16(3), np.uint8(2)).value == 0.75 and FixedPointFormat(np.uint8(7)).min_code == -64


@pytest.mark.parametrize("channel_id", [-1, 1 << 63, 1 << 70])
def test_records_refuse_a_channel_id_outside_int64(channel_id):
    # detected events carry the channel in an int64 array
    with pytest.raises(ValueError, match=re.escape("channel_id must be in [0, 2**63)")):
        SignalRecord(np.zeros(3), 24000.0, channel_id)
    with pytest.raises(ValueError, match=re.escape("channel_id must be in [0, 2**63)")):
        QuantizedRecord(np.zeros(3, dtype=np.int8), FMT7, 16000.0, channel_id)
    top = (1 << 63) - 1
    assert SignalRecord(np.zeros(3), 24000.0, top).channel_id == QuantizedRecord(np.zeros(3), FMT7, 1.0, top).channel_id


class TestMidTread:
    def test_zero_maps_to_zero_at_coarse_resolution(self):
        fmt = FixedPointFormat(total_bits=4)
        q = quantize_mid_tread(rec([0.0, 0.0]), fmt, 1.0)
        assert q.codes.tolist() == [0, 0]

    def test_removes_floor_bias_on_symmetric_noise(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, size=20000)
        fmt = FixedPointFormat(total_bits=4)
        plain = np.floor(x * 8).mean()  # the floor quantizer alone
        trimmed = quantize_mid_tread(rec(x), fmt, 1.0).codes.mean()
        assert abs(plain + 0.5) < 0.05      # floor leaves a half-code pedestal
        assert abs(trimmed) < 0.05

    def test_codes_keep_the_records_rate_and_channel(self):
        record = SignalRecord(np.random.default_rng(1).uniform(-1.2, 1.2, size=1000), 16000.0, 7)
        got = quantize_mid_tread(record, FixedPointFormat(total_bits=5), 0.9)
        assert (got.rate_hz, got.channel_id, got.full_scale) == (16000.0, 7, 0.9)
        np.testing.assert_array_equal(got.codes, mid_tread_formula(record.samples, 5, 0.9))

    def test_a_shift_that_overflows_is_refused(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^samples must all be finite$"):
            quantize_mid_tread(rec([0.0, np.finfo(float).max]), FMT7, 1e308)

    @pytest.mark.parametrize("full_scale", [0.0, -1.0, -np.inf])
    def test_non_positive_full_scale_is_refused(self, full_scale):
        with pytest.raises(ValueError, match="full_scale must be positive"):
            quantize_mid_tread(rec([0.5]), FMT7, full_scale)

    @pytest.mark.filterwarnings("error")  # a NaN scale once reached numpy's float-to-int cast
    @pytest.mark.parametrize("full_scale", [np.nan, np.inf, 0.0, -1.0])
    def test_full_scale_is_refused_before_any_sample_is_scaled(self, full_scale):
        with pytest.raises(ValueError, match=f"^full_scale must be positive and finite, got {full_scale}$"):
            quantize_mid_tread(rec([0.5, -0.25, 0.0]), FMT7, full_scale)

    def test_quantize_checks_full_scale_before_the_samples(self):
        record = rec([0.5, 0.25])
        record.samples[1] = np.nan  # made non-finite after construction
        with pytest.raises(ValueError, match="full_scale must be positive"):
            quantize_mid_tread(record, FMT7, 0.0)
        with pytest.raises(ValueError, match="^samples must all be finite$"):
            quantize_mid_tread(record, FMT7, 1.0)


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

    @pytest.mark.parametrize("full_scale", ["nan", "inf", "-1.0", "0"])
    def test_bad_header_full_scale_rejected_with_its_line(self, tmp_path, full_scale):
        # each was read, and its record loaded
        path = tmp_path / "chan.f32"
        save_record(rec([0.1, 0.2]), path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text(re.sub("full_scale=.*", f"full_scale={full_scale}", hdr.read_text()))
        message = f"{hdr}:3: full_scale must be positive and finite, got {float(full_scale)}"
        for read in (read_header, load_record):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read(path)

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
