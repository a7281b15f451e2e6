"""The chip's register map, proved closed: every value 7-bit codes can reach fits its register.

``HwConfig``'s class constants are the one register map.  This file proves,
from the map's widths and the loop's constants alone, that no register of a
channel can overflow, whatever the codes:

* the exact Teager energies of the codes and of their half-sums, enumerated
  exhaustively, fit the energy registers after every drop pair that
  ``dualteo calibrate --search-drops`` tries (and the default pair);
* the alignment of the two energies, each shifted onto the smaller drop,
  fits 17 signed bits, inside its int32, at every drop pair ``HwConfig``
  accepts, whatever the energy registers hold;
* the Q.10 sigma stays below a bound that the sigma register holds;
* at that bound, the Q.10 thresholds of every candidate of both default
  grids, of both shipped coefficient files and of the tests' coefficient
  constants fit the threshold register.

The package decides overflow once, where a configuration enters: ``HwConfig``
constructs exactly at the drop pairs whose exact energy ranges fit, and
``ThresholdCoefficients`` refuses a triple whose thresholds could leave the
threshold register.  Nothing is clipped per sample, so these checks are
what keeps every register in range.  Each register narrowed by one bit
below what it needs is rejected, so the proof has teeth.  The whole file
runs in under two seconds.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from test_detector import COEFFS
from test_golden import EXTREME_HW_COEFFS
from test_hw_model import EXTREME_COEFFS, HW_COEFFS
from dualteo.cli import _SEARCH_DROPS
from dualteo import hw_model
from dualteo.hw_model import HwConfig, hw_detect_multichannel, prepare_hw_dual
from dualteo.signal_model import FixedPointFormat, QuantizedRecord
from dualteo.threshold import (
    CONVERGENCE_FACTOR,
    FRAME_LEN,
    SIGMA_FRACTION_BITS,
    UNMEASURED,
    ThresholdCoefficients,
    _coefficient_grid,
    _q10_terms,
    default_float_coefficients,
    default_hw_coefficients,
    initial_sigma_q10,
    load_coefficients,
    sigma_frames_q10,
)
from dualteo.transforms import smooth2_fixed, teo_fixed

REGISTERS = ("input", "halfsum", "xteo", "steo", "sigma", "threshold")
CHIP = {name: getattr(HwConfig, f"{name}_format") for name in REGISTERS}
DROPS = sorted({(x, s) for x in _SEARCH_DROPS[0] for s in _SEARCH_DROPS[1]}
               | {(HwConfig.xteo_drop_lsbs, HwConfig.steo_drop_lsbs)})
COEFFICIENT_SETS = {
    "float grid": list(_coefficient_grid("float")),
    "hw grid": list(_coefficient_grid("hw")),
    "shipped files": [default_float_coefficients(), default_hw_coefficients()],
    "test constants": [COEFFS, EXTREME_HW_COEFFS, EXTREME_COEFFS, HW_COEFFS],
}


def codes(fmt: FixedPointFormat) -> np.ndarray:
    return np.arange(fmt.min_code, fmt.max_code + 1, dtype=np.int64)


def holds(fmt: FixedPointFormat, lo, hi) -> bool:
    return bool(fmt.min_code <= np.min(lo) and np.max(hi) <= fmt.max_code)


def raw_energy_range(fmt: FixedPointFormat) -> tuple[int, int]:
    """Exact extremes of ``x[k]**2 - x[k+1]*x[k-1]`` over every triple of codes."""
    c = codes(fmt)
    energy = c[None, :, None] ** 2 - c[:, None, None] * c[None, None, :]
    return int(energy.min()), int(energy.max())


def smoothed_energy_range(fmt: FixedPointFormat) -> tuple[int, int]:
    """Exact extremes of the energy of half-sums ``s[k]**2 - s[k+1]*s[k-1]``, one ``(x[k-1], x[k])`` pair at a time.

    The pair fixes ``s[k]``.  ``s[k-1] = (x[k-2] + x[k-1]) >> 1`` and
    ``s[k+1] = (x[k] + x[k+1]) >> 1`` each take every integer of an interval
    as their free code runs over the format, independently of each other,
    so ``s[k-1] * s[k+1]``, bilinear in them, takes its extremes over that
    box on its corners, which are reached.  The first half-sum, ``s[0] =
    x[0]``, is ``x[-1] = x[0]``, a code, so it adds no value.
    """
    c = codes(fmt)
    prev, cur = c[:, None], c[None, :]  # x[k-1], x[k]
    s = (prev + cur) >> 1
    before = [(prev + end) >> 1 for end in (fmt.min_code, fmt.max_code)]  # s[k-1]
    after = [(cur + end) >> 1 for end in (fmt.min_code, fmt.max_code)]  # s[k+1]
    corners = np.stack([np.broadcast_to(b * a, s.shape) for b in before for a in after])
    return int((s * s - corners.max(axis=0)).min()), int((s * s - corners.min(axis=0)).max())


def sigma_bound(halfsum: FixedPointFormat) -> int:
    """An exclusive bound on the Q.10 sigma of half-sums in ``halfsum``, which the clamp keeps >= 0.

    The measured sigma is one frame's population standard deviation, at
    most half the format's span, so below ``top + 1`` (``top`` its largest
    code).  A later frame moves sigma up only when more than
    ``CONVERGENCE_FACTOR`` samples exceed ``sigma >> 10``, so only from
    below ``top << 10``, and by at most ``FRAME_LEN - CONVERGENCE_FACTOR``.
    """
    return ((halfsum.max_code + 1) << SIGMA_FRACTION_BITS) + FRAME_LEN - CONVERGENCE_FACTOR


def threshold_range(coeffs, sigma_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on every Q.10 threshold of each candidate in ``coeffs`` for sigma in ``[0, sigma_max]``.

    Each term of a threshold grows in magnitude with sigma, so the sum of
    their magnitudes at ``sigma_max``, floored by the threshold's shift,
    bounds it on both sides.
    """
    x, s1, lin, quad, d = _q10_terms(np.int64(sigma_max), list(coeffs))
    mx, ms = np.abs(x), np.abs(lin) + np.abs(quad)
    return np.minimum(-mx >> s1, -ms >> d), np.maximum(mx >> s1, ms >> d)


def threshold_bits(coeffs, sigma_max: int) -> int:
    """The bits of the narrowest signed register that holds every threshold of ``coeffs``."""
    lo, hi = threshold_range(coeffs, sigma_max)
    return max(int(hi.max()).bit_length(), (-int(lo.min()) - 1).bit_length()) + 1


def faults(regs: dict, drops=DROPS, coefficient_sets=COEFFICIENT_SETS) -> set:
    """The registers of the map ``regs`` that some reachable value overflows."""
    found = set()
    c = codes(regs["input"])
    half = (c[:, None] + c[None, :]) >> 1
    if not holds(regs["halfsum"], half.min(), half.max()):
        found.add("halfsum")
    raw, smoothed = raw_energy_range(regs["input"]), smoothed_energy_range(regs["input"])
    for xdrop, sdrop in drops:
        if not holds(regs["xteo"], raw[0] >> xdrop, raw[1] >> xdrop):
            found.add("xteo")
        if not holds(regs["steo"], smoothed[0] >> sdrop, smoothed[1] >> sdrop):
            found.add("steo")
    bound = sigma_bound(regs["halfsum"])
    if not holds(regs["sigma"], UNMEASURED, bound - 1):
        found.add("sigma")
    for coeffs in coefficient_sets.values():
        if not holds(regs["threshold"], *threshold_range(coeffs, bound - 1)):
            found.add("threshold")
    return found


def test_the_chip_register_map_is_closed():
    assert faults(CHIP) == set()


def test_hw_config_constructs_exactly_at_the_drops_whose_energies_fit():
    raw, smoothed = raw_energy_range(CHIP["input"]), smoothed_energy_range(CHIP["input"])
    # signed bits of the widest exact energy: a wider drop leaves only 0 and -1
    width = max(max(hi.bit_length(), (-lo - 1).bit_length()) + 1 for lo, hi in (raw, smoothed))
    for x in range(17):
        for s in range(17):
            fits = (x <= width and s <= width
                    and holds(CHIP["xteo"], raw[0] >> x, raw[1] >> x)
                    and holds(CHIP["steo"], smoothed[0] >> s, smoothed[1] >> s))
            try:
                HwConfig(xteo_drop_lsbs=x, steo_drop_lsbs=s)
            except ValueError:
                assert not fits, (x, s)
            else:
                assert fits, (x, s)
    for drops, register in (((5, 5), "8-bit xteo register"), ((6, 4), "9-bit steo register"),
                            ((-1, 6), "xteo"), ((7, -1), "steo")):
        with pytest.raises(ValueError, match=register):
            HwConfig(xteo_drop_lsbs=drops[0], steo_drop_lsbs=drops[1])
    for x, s in DROPS:  # every pair searched, and the default pair
        HwConfig(xteo_drop_lsbs=x, steo_drop_lsbs=s)


def test_threshold_coefficients_beyond_the_register_are_refused(tmp_path):
    # c1 = 3 * 2**20 takes thr_x to 3 * 2**37 at the sigma register's bound: 39 signed bits
    with pytest.raises(ValueError, match="32-bit Q.10 threshold register"):
        ThresholdCoefficients.make((3 << 20, 0), (0, 0), (0, 0))
    path = tmp_path / "wide.txt"
    path.write_text("c1 3145728 0\nc2 0 0\nc3 0 0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*32-bit Q.10 threshold register"):
        load_coefficients(path)
    # the widest c1 of shift 0 that fits: 2**13 * 2**17 = 2**30
    ThresholdCoefficients.make((1 << 13, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError, match="threshold register"):
        ThresholdCoefficients.make((1 << 14, 0), (0, 0), (0, 0))
    # every coefficient set the proof covers constructed at import, and the
    # proof's own bound agrees that they fit at the sigma register's bound
    bound = 1 << (CHIP["sigma"].total_bits - 1)
    for coeffs in COEFFICIENT_SETS.values():
        assert threshold_bits(coeffs, bound) <= CHIP["threshold"].total_bits


def test_exact_energy_ranges_of_7_bit_codes():
    assert raw_energy_range(CHIP["input"]) == (-4096, 8128)
    assert smoothed_energy_range(CHIP["input"]) == (-1408, 4096)


@pytest.mark.parametrize("bits", [2, 3, 5])
def test_energy_ranges_equal_brute_force_through_the_kernels(bits):
    # every window of codes, one per column, through the package's own kernels
    # in the stream's dtypes: int8 codes and half-sums, energies in int16
    fmt = FixedPointFormat(total_bits=bits)
    c = codes(fmt).astype(np.int8)
    triples = np.stack(np.meshgrid(c, c, c, indexing="ij")).reshape(3, -1)
    windows = np.stack(np.meshgrid(c, c, c, c, indexing="ij")).reshape(4, -1)  # x[k-2] .. x[k+1]
    raw = teo_fixed(triples)[1]
    smoothed = teo_fixed(smooth2_fixed(windows)[1:])[1]
    assert raw_energy_range(fmt) == (raw.min(), raw.max())
    assert smoothed_energy_range(fmt) == (smoothed.min(), smoothed.max())


def test_smallest_drops_that_fit_are_the_lowest_pair_searched():
    raw, smoothed = raw_energy_range(CHIP["input"]), smoothed_energy_range(CHIP["input"])
    x = next(d for d in range(64) if holds(CHIP["xteo"], raw[0] >> d, raw[1] >> d))
    s = next(d for d in range(64) if holds(CHIP["steo"], smoothed[0] >> d, smoothed[1] >> d))
    assert (x, s) == (6, 5) == (min(_SEARCH_DROPS[0]), min(_SEARCH_DROPS[1]))
    assert HwConfig.xteo_drop_lsbs >= x and HwConfig.steo_drop_lsbs >= s


def test_stream_dtypes_hold_their_registers(monkeypatch):
    code = CHIP["input"].dtype
    # half-sums stay in the codes' dtype
    assert code == np.int8 and CHIP["halfsum"].dtype == code
    # the record path and a stream chunk run one datapath, in the same dtypes
    codes = np.random.default_rng(0).integers(-64, 64, size=(3 * FRAME_LEN + 5, 3)).astype(code)
    record = prepare_hw_dual(QuantizedRecord(codes[:, 0], CHIP["input"], HwConfig.rate_hz))
    chunks, prepare = [], hw_model._prepare_codes
    monkeypatch.setattr(hw_model, "_prepare_codes", lambda *args: chunks.append(prepare(*args)) or chunks[-1])
    hw_detect_multichannel(codes, HwConfig(channels=3))
    fields = ("x_energy", "s_energy", "sigma_per_frame")
    assert chunks and all(prep.align is None for prep in chunks) and record.align.dtype == np.int32
    for prep in chunks:
        assert [getattr(prep, f).dtype for f in fields] == [getattr(record, f).dtype for f in fields]
    # whose energies hold every exact energy, and whose sigma is the register's
    energy = np.iinfo(record.x_energy.dtype)
    assert record.s_energy.dtype == energy.dtype
    for lo, hi in (raw_energy_range(CHIP["input"]), smoothed_energy_range(CHIP["input"])):
        assert energy.min <= lo and hi <= energy.max
    assert all(CHIP[name].dtype.itemsize * 8 <= energy.bits for name in ("xteo", "steo"))
    assert CHIP["sigma"].dtype == record.sigma_per_frame.dtype == np.int32


def accepted_drops() -> list:
    """Every drop pair ``HwConfig`` constructs at."""
    pairs = []
    for x in range(17):
        for s in range(17):
            try:
                HwConfig(xteo_drop_lsbs=x, steo_drop_lsbs=s)
            except ValueError:
                continue
            pairs.append((x, s))
    return pairs


def alignment_range(x_range, s_range, xdrop: int, sdrop: int) -> tuple[int, int]:
    """Extremes of the alignment of energies in ``x_range`` and ``s_range``, each shifted onto the smaller drop."""
    base = min(xdrop, sdrop)
    x = [v << (xdrop - base) for v in x_range]
    s = [v << (sdrop - base) for v in s_range]
    return max(min(x), min(s)), max(max(x), max(s))


def test_alignment_fits_int32_at_every_accepted_drop_pair():
    # the alignment shifts each energy register onto the smaller drop; at every
    # pair HwConfig accepts, every value the 8- and 9-bit registers can hold
    # (not only those 7-bit codes reach) keeps it within 17 signed bits
    registers = [(CHIP[name].min_code, CHIP[name].max_code) for name in ("xteo", "steo")]
    raw, smoothed = raw_energy_range(CHIP["input"]), smoothed_energy_range(CHIP["input"])
    corners = np.array([(x, s) for x in registers[0] for s in registers[1]], dtype=np.int16)
    pairs, reached = accepted_drops(), []
    assert len(pairs) == 9 * 10  # xteo drops 6..14, steo drops 5..14
    for xdrop, sdrop in pairs:
        lo, hi = alignment_range(*registers, xdrop, sdrop)
        assert holds(FixedPointFormat(total_bits=17), lo, hi), (xdrop, sdrop)
        # the package's own alignment of the register extremes, in its int32
        got = hw_model._align_stream(*corners.T, HwConfig(xteo_drop_lsbs=xdrop, steo_drop_lsbs=sdrop))
        want = [alignment_range([x], [s], xdrop, sdrop)[0] for x, s in corners.tolist()]
        assert got.dtype == np.int32 and got.tolist() == want, (xdrop, sdrop)
        reached.append(alignment_range(
            [raw[0] >> xdrop, raw[1] >> xdrop], [smoothed[0] >> sdrop, smoothed[1] >> sdrop], xdrop, sdrop))
    # one bit fewer fails at (14, 5), where the x register shifts up by 9
    assert not holds(FixedPointFormat(total_bits=16), *alignment_range(*registers, 14, 5))
    # what 7-bit codes reach lies far inside, within 9 signed bits
    assert (min(lo for lo, _ in reached), max(hi for _, hi in reached)) == (-64, 254)


def test_sigma_loop_steps_as_the_bound_assumes():
    top, bottom = CHIP["halfsum"].max_code, CHIP["halfsum"].min_code
    bound = sigma_bound(CHIP["halfsum"])
    # the widest measured frame: half its samples at each end of the format
    widest = np.repeat([bottom, top], FRAME_LEN // 2)
    assert initial_sigma_q10(widest) < (top + 1) << SIGMA_FRACTION_BITS
    # the largest climb, just below the level no sample can exceed
    register = np.array((top << SIGMA_FRACTION_BITS) - 1)
    sigma_frames_q10(np.full(FRAME_LEN, top), register)
    assert register == (top << SIGMA_FRACTION_BITS) - 1 + FRAME_LEN - CONVERGENCE_FACTOR < bound
    # at that level sigma falls, and at the bottom it clamps at zero
    register = np.array(top << SIGMA_FRACTION_BITS)
    sigma_frames_q10(np.full(FRAME_LEN, top), register)
    assert register < top << SIGMA_FRACTION_BITS
    register = np.array(3)
    sigma_frames_q10(np.full(FRAME_LEN, bottom), register)
    assert register == 0


# signed widths at the sigma bound; at the sigma register's bound (2**17),
# which the construction check uses, the magnitudes would take 29 and 26 bits
@pytest.mark.parametrize("name, bits", [("float grid", 28), ("hw grid", 25)])
def test_default_grids_need_their_measured_threshold_width(name, bits):
    coeffs = COEFFICIENT_SETS[name]
    bound = sigma_bound(CHIP["halfsum"])
    assert threshold_bits(coeffs, bound - 1) == bits <= CHIP["threshold"].total_bits
    # the bound holds the thresholds the integer pipeline computes at the largest sigma
    lo, hi = threshold_range(coeffs, bound - 1)
    x, s1, lin, quad, d = _q10_terms(np.int64(bound - 1), coeffs)
    for thr in (x >> s1, (lin + quad) >> d):
        assert np.all((lo <= thr) & (thr <= hi))


def narrowed(name: str, bits: int) -> dict:
    return {**CHIP, name: FixedPointFormat(total_bits=bits)}


@pytest.mark.parametrize("name, regs, drops, coefficient_sets", [
    ("halfsum", narrowed("halfsum", 6), DROPS, COEFFICIENT_SETS),
    ("xteo", narrowed("xteo", 7), [(6, 5)], {}),
    ("steo", narrowed("steo", 8), [(6, 5)], {}),
    ("sigma", narrowed("sigma", CHIP["sigma"].total_bits - 1), DROPS, COEFFICIENT_SETS),
    ("threshold", narrowed("threshold", 24), DROPS, {"hw grid": COEFFICIENT_SETS["hw grid"]}),
    ("threshold", narrowed("threshold", 27), DROPS, {"float grid": COEFFICIENT_SETS["float grid"]}),
], ids=["halfsum-6", "xteo-7-at-drop-6", "steo-8-at-drop-5", "sigma-17", "threshold-24-hw",
        "threshold-27-float"])
def test_one_bit_too_few_is_rejected(name, regs, drops, coefficient_sets):
    assert name in faults(regs, drops, coefficient_sets)


def test_readme_register_table_matches_the_map():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| [^|]+ \| `HwConfig\.(\w+)_format` \| (\d+) \|$", readme, re.M)
    assert {name: int(bits) for name, bits in rows} == {name: fmt.total_bits for name, fmt in CHIP.items()}
    total = re.search(r"^\| \*\*total per channel\*\* \| \| \*\*(\d+)\*\* \|$", readme, re.M)
    assert int(total.group(1)) == sum(int(bits) for _, bits in rows)
