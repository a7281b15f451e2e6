import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualteo import transforms
from dualteo.hw_model import HwConfig, MultichannelStream
from dualteo.signal_model import FixedPointFormat, datapath_ints
from dualteo.transforms import smooth2, smooth2_fixed, teo, teo_fixed

codes7 = st.lists(st.integers(min_value=-64, max_value=63), min_size=3, max_size=200)


class TestTeo:
    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
    def test_annihilates_constants(self, c):
        out = teo(np.full(50, c))
        assert np.all(out == 0.0)

    def test_ramp_maps_to_one(self):
        out = teo(np.arange(64, dtype=float))
        assert np.all(out[1:-1] == 1.0)
        assert out[0] == 0.0 and out[-1] == 0.0

    def test_sinusoid_gives_constant_energy(self):
        # x[k] = A sin(w k)  ->  interior energy A^2 sin^2(w)
        amp, omega = 0.5, 0.3
        x = amp * np.sin(omega * np.arange(500))
        expected = amp * amp * np.sin(omega) ** 2
        out = teo(x)
        assert np.max(np.abs(out[1:-1] - expected)) < 1e-9

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=100),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_covariance(self, x, a):
        x = np.asarray(x)
        scaled = teo(a * x)[1:-1]
        ref = a * a * teo(x)[1:-1]
        assert np.allclose(scaled, ref, rtol=1e-9, atol=1e-9 * max(1.0, a * a))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_inputs_are_all_zero(self, n):
        out = teo(np.ones(n))
        assert np.all(out == 0.0)
        assert len(out) == n


class TestSmooth2:
    def test_constant_passes_through(self):
        np.testing.assert_array_equal(smooth2(np.full(10, 3.5)), np.full(10, 3.5))

    def test_hand_example(self):
        np.testing.assert_array_equal(smooth2([0.0, 2.0, 4.0]), [0.0, 1.0, 3.0])

    def test_kills_nyquist_component(self):
        x = np.array([1.0, -1.0] * 20)
        s = smooth2(x)
        assert s[0] == 1.0
        assert np.all(s[1:] == 0.0)


class TestTeoFixed:
    def test_all_zero(self):
        out = teo_fixed(np.zeros(10, dtype=int))
        assert np.all(out == 0)

    def test_constant_annihilation_in_integers(self):
        out = teo_fixed([3, 3, 3])
        assert out.tolist() == [0, 0, 0]

    def test_impulse(self):
        out = teo_fixed([0, 10, 0])
        assert out.tolist() == [0, 100, 0]

    @given(codes7)
    def test_matches_pure_python_oracle(self, codes):
        got = teo_fixed(codes).tolist()
        oracle = [0] * len(codes)
        for k in range(1, len(codes) - 1):
            oracle[k] = codes[k] * codes[k] - codes[k + 1] * codes[k - 1]
        assert got == oracle

    @given(codes7, st.integers(min_value=0, max_value=16))
    def test_truncation_matches_shift_oracle(self, codes, drop):
        got = teo_fixed(codes, drop).tolist()
        for k in range(1, len(codes) - 1):
            assert got[k] == (codes[k] * codes[k] - codes[k + 1] * codes[k - 1]) >> drop
        assert got[0] == 0 and got[-1] == 0


def energies_of(values, drop):
    """``teo_fixed``'s output for interior energies equal to ``values``.

    Column ``c`` of the block ``[-1, 0, values[c]]`` has the exact energy
    ``0*0 - values[c]*(-1) = values[c]``, so the middle row is the
    shift of ``values`` alone.
    """
    values = np.asarray(values)
    block = np.stack([np.full_like(values, -1), np.zeros_like(values), values])
    return teo_fixed(block, drop)[1]


class TestTeoFixedShiftAndSaturate:
    """The shift: ``teo_fixed`` never saturates, since ``HwConfig`` refuses every
    drop under which an energy of 7-bit codes would leave its register."""

    def test_identity_at_zero_drop(self):
        assert energies_of([5], 0).tolist() == [5]

    def test_floor_semantics_for_negatives(self):
        assert energies_of([-7], 1).tolist() == [-4]

    def test_rejects_negative_drop(self):
        with pytest.raises(ValueError):
            teo_fixed([1, 2, 3], -1)

    def test_full_range_against_floor_division_oracle(self):
        # the implementation shifts; the oracle divides
        values = np.arange(-(1 << 20), (1 << 20) + 1, dtype=np.int64)
        for drop in range(9):
            got = energies_of(values, drop)
            assert np.array_equal(got, np.floor_divide(values, 1 << drop)), f"mismatch at drop={drop}"

    @given(st.integers(min_value=-(1 << 30), max_value=1 << 30), st.integers(min_value=0, max_value=12))
    def test_scalar_matches_floor_division(self, value, drop):
        assert energies_of([value], drop).tolist() == [value // (1 << drop)]

    @pytest.mark.parametrize("drop", range(9))
    @pytest.mark.parametrize("bits", [2, 7, 8, 9, 16, 24])
    def test_int8_arrays_compute_in_int16_exactly(self, drop, bits):
        # every int8 code of a ``bits``-bit format, as energies
        fmt = FixedPointFormat(total_bits=min(bits, 8))
        values = np.arange(fmt.min_code, fmt.max_code + 1, dtype=np.int8)
        got = energies_of(values, drop)
        assert got.dtype == np.int16
        assert np.array_equal(got, energies_of(values.astype(np.int64), drop))
        assert np.array_equal(got, np.arange(fmt.min_code, fmt.max_code + 1) // (1 << drop))
        assert values.tolist() == list(range(fmt.min_code, fmt.max_code + 1))  # the input is left alone


class TestSmooth2Fixed:
    def test_zeros(self):
        assert smooth2_fixed([0, 0, 0]).tolist() == [0, 0, 0]

    def test_hand_examples(self):
        assert smooth2_fixed([3, 5]).tolist() == [3, 4]
        assert smooth2_fixed([-3, -5]).tolist() == [-3, -4]

    def test_exhaustive_pairs_match_floor_oracle(self):
        a, b = np.meshgrid(np.arange(-64, 64), np.arange(-64, 64), indexing="ij")
        pairs = np.stack([a.ravel(), b.ravel()], axis=1)
        got = (pairs[:, 0] + pairs[:, 1]) >> 1  # same op the implementation uses
        oracle = np.floor_divide(pairs[:, 0] + pairs[:, 1], 2)
        assert np.array_equal(got, oracle)
        # and the function agrees, pair by pair, on a full row of the grid
        for b0 in range(-64, 64):
            s = smooth2_fixed([b0, *range(-64, 64)])
            expect = [(prev + cur) // 2 for prev, cur in zip([b0, *range(-64, 63)], range(-64, 64))]
            assert s.tolist()[1:] == expect

    def test_output_spans_full_input_range_without_saturation(self):
        s = smooth2_fixed([-64, -64, 63, 63])
        assert s.tolist() == [-64, -64, -1, 63]

    @given(codes7)
    def test_matches_floor_average_oracle(self, codes):
        got = smooth2_fixed(codes).tolist()
        oracle = [codes[0]] + [(codes[k] + codes[k - 1]) // 2 for k in range(1, len(codes))]
        assert got == oracle


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=0, max_value=700),
    channels=st.integers(min_value=1, max_value=40),
    drop=st.integers(min_value=0, max_value=8),
)
def test_int32_block_equals_int64_columns(seed, n, channels, drop):
    # a time-major int32 block runs every column as its own int64 channel would
    block = np.random.default_rng(seed).integers(-64, 64, size=(n, channels)).astype(np.int32)
    for kernel in (smooth2_fixed, lambda x: teo_fixed(x, drop), lambda x: teo_fixed(smooth2_fixed(x), drop)):
        got = kernel(block)
        assert got.dtype == np.int32 and got.shape == block.shape
        for c in range(channels):
            column = kernel(block[:, c].astype(np.int64))
            assert column.dtype == np.int64 and np.array_equal(got[:, c], column)


INT8_CORNERS = np.array([-128, -127, -64, -1, 0, 1, 63, 126, 127])


def full_range_int8_block(seed, n, channels):
    """Random int8 codes over the whole int8 range, after every corner triple
    in time order down each column."""
    triples = np.stack(np.meshgrid(INT8_CORNERS, INT8_CORNERS, INT8_CORNERS, indexing="ij"), -1)
    head = np.repeat(triples.reshape(-1, 1), channels, axis=1)
    tail = np.random.default_rng(seed).integers(-128, 128, size=(n, channels))
    return np.concatenate([head, tail]).astype(np.int8)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=0, max_value=400),
    channels=st.integers(min_value=1, max_value=40),
    drop=st.integers(min_value=0, max_value=8),
)
def test_int8_block_equals_int64_columns(seed, n, channels, drop):
    # an int8 block computes in int16: half-sums come back int8, energies int16
    block = full_range_int8_block(seed, n, channels)
    kernels = [
        (smooth2_fixed, np.int8),
        (lambda x: teo_fixed(x, drop), np.int16),
        (lambda x: teo_fixed(smooth2_fixed(x), drop), np.int16),
    ]
    for kernel, dtype in kernels:
        got = kernel(block)
        assert got.dtype == dtype and got.shape == block.shape
        for c in range(channels):
            column = kernel(block[:, c].astype(np.int64))
            assert column.dtype == np.int64 and np.array_equal(got[:, c], column)


def test_int8_energies_span_the_exact_int16_range():
    # the extreme energies of int8 codes: 0**2 - (-128)(-128) and (-128)**2 - (-128)(127)
    block = np.array([[-128, -128], [0, -128], [-128, 127]], dtype=np.int8)
    energies = teo_fixed(block)
    assert energies.dtype == np.int16
    assert energies[1].tolist() == [-16384, 32640]


def test_smooth2_fixed_every_int8_pair_is_an_exact_floor_half_sum():
    a, b = np.meshgrid(np.arange(-128, 128), np.arange(-128, 128), indexing="ij")
    pairs = np.stack([a.ravel(), b.ravel()]).astype(np.int8)
    got = smooth2_fixed(pairs)
    assert got.dtype == np.int8
    assert np.array_equal(got[1], (a.ravel() + b.ravel()) // 2)


@pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.uint16])
def test_other_integer_inputs_widen_to_int64_and_stay_exact(dtype):
    # over the dtype's whole range, whose energies overflow the input dtype
    lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
    codes = np.random.default_rng(3).integers(lo, hi, size=(300, 5), endpoint=True).astype(dtype)
    codes[:3, 0] = [lo, hi, lo]
    wide = codes.astype(np.int64)
    for kernel in (smooth2_fixed, lambda x: teo_fixed(x, 2)):
        got = kernel(codes)
        assert got.dtype == np.int64 and np.array_equal(got, kernel(wide))
    energies = teo_fixed(codes)
    assert np.array_equal(energies[1:-1], wide[1:-1] ** 2 - wide[2:] * wide[:-2])


# the whole-array formulas the blocked kernels replaced
def teo_formula(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    if len(x) >= 3:
        out[1:-1] = x[1:-1] ** 2 - x[2:] * x[:-2]
    return out


def smooth2_formula(x):
    x = np.asarray(x, dtype=np.float64)
    s = x.copy()
    if len(x) >= 2:
        s[1:] = (x[1:] + x[:-1]) / 2.0
    return s


def teo_fixed_formula(x, drop):
    x = datapath_ints(x)
    out = np.zeros_like(x)
    if len(x) >= 3:
        out[1:-1] = (x[1:-1] * x[1:-1] - x[2:] * x[:-2]) >> drop
    return out


def smooth2_fixed_formula(x):
    wide = datapath_ints(x)
    s = wide.copy()
    if len(x) >= 2:
        s[1:] = (wide[1:] + wide[:-1]) >> 1
    return s.astype(np.int8) if np.asarray(x).dtype == np.int8 else s


@pytest.mark.parametrize("block_cells", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("channels", [None, 1, 3])
def test_blocked_kernels_equal_whole_array_formulas(monkeypatch, block_cells, channels):
    monkeypatch.setattr(transforms, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(block_cells)
    width = 1 if channels is None else channels
    per_block = max(1, block_cells // width)
    # lengths on, just before and just after one to four blocks' worth of rows
    lengths = sorted({max(0, k * per_block + d) for k in range(5) for d in (-1, 0, 1, 2, 3)})
    for n in lengths:
        shape = (n,) if channels is None else (n, channels)
        x = rng.normal(size=shape)
        np.testing.assert_array_equal(teo(x), teo_formula(x))
        np.testing.assert_array_equal(smooth2(x), smooth2_formula(x))
        for dtype in (np.int8, np.int32, np.int64):
            codes = rng.integers(-128, 128, size=shape).astype(dtype)
            for drop in (0, 3):
                got, want = teo_fixed(codes, drop), teo_fixed_formula(codes, drop)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            got, want = smooth2_fixed(codes), smooth2_fixed_formula(codes)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [*((n,) for n in range(6)), *((n, 3) for n in range(6)), (240_000,)])
@pytest.mark.parametrize("kernel, dtype", [
    (teo, np.float64), (lambda x: teo_fixed(x, 2), np.int64), (lambda x: teo_fixed(x, 2), np.int8),
])
def test_energy_boundary_rows_are_zero(shape, kernel, dtype):
    # the output is allocated unfilled and only its first and last rows are
    # zeroed, so hand it memory that held nonzero bytes
    x = np.random.default_rng(len(shape) + shape[0]).integers(-64, 64, size=shape).astype(dtype)
    if shape == (240_000,):
        assert transforms._block_rows(x, len(x) - 2) < len(x) - 2  # the walk takes two blocks
    wide = np.dtype(np.int16) if dtype == np.int8 else np.dtype(dtype)
    np.full(x.size * wide.itemsize, 0x55, dtype=np.uint8)  # freed at once, for the output to reuse
    out = kernel(x)
    assert out.shape == x.shape
    if len(x) < 3:
        assert not out.any()
    else:
        assert not out[0].any() and not out[-1].any()
        np.testing.assert_array_equal(out[1:-1], kernel(np.concatenate([x[:1], x, x[-1:]]))[2:-2])


def test_a_stream_chunk_is_one_block_and_a_record_several():
    for channels in (1, 7, 256, 512):
        cfg = HwConfig(channels=channels)
        # a chunk's window: two carried scans, the chunk, and the scan after it
        window = np.zeros((MultichannelStream(cfg)._chunk + 3, cfg.channels), dtype=np.int8)
        assert transforms._block_rows(window, len(window) - 1) >= len(window) - 1, channels
    record = np.zeros(240_000)  # 10 s at 24 kHz
    assert transforms._block_rows(record, len(record) - 2) < len(record) - 2


@pytest.mark.parametrize("kernel, dtype", [
    (teo, np.float64), (smooth2, np.float64),
    (lambda x: teo_fixed(x, 1), np.int8), (smooth2_fixed, np.int8),
])
def test_kernels_allocate_only_their_output_and_one_block(monkeypatch, kernel, dtype):
    block_cells = 1 << 10
    monkeypatch.setattr(transforms, "BLOCK_CELLS", block_cells)
    x = np.random.default_rng(2).integers(-64, 64, size=(1 << 13, 8)).astype(dtype)
    tracemalloc.start()
    try:
        out = kernel(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few block-sized buffers and the block bounds; a temporary as long as
    # the input would take at least 64 KiB more
    assert peak < out.nbytes + 32 * block_cells
