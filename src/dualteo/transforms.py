"""Teager energy transform and the two-sample smoother.

The energy transform is ``out[k] = x[k]**2 - x[k+1]*x[k-1]``; it annihilates
constants, maps a unit ramp to 1, and scales quadratically with amplitude,
which is what buys the quadratic spike-to-noise separation downstream.  The
sequence edges have no defined value, so both ends emit 0: an edge artifact
must never raise a spike.

The smoother is a trailing two-sample average, ``s[k] = (x[k] + x[k-1]) / 2``
with ``s[0] = x[0]``.  Its fixed-point form is an exact half-sum,
``(x[k] + x[k-1]) >> 1``: the half-sum of 7-bit codes spans the full 7-bit
input range and is carried at half-LSB weight, which is where the narrower
nominal width of the smoothed stream comes from.

The fixed-point kernels work along axis 0: they take one channel ``(n,)`` or
a time-major block ``(n, channels)`` of int8 codes, admitted by
:func:`~dualteo.signal_model.datapath_codes` (other integer dtypes are
range-checked and cast once, floats and bools refused), and compute in
int16, which holds every energy of int8 codes.  So they keep the chip's
widths: half-sums come back int8 and energies int16.

Every kernel writes into the array it returns, walking axis 0 in blocks of
about ``BLOCK_CELLS`` cells.  A block's intermediate values go through one
scratch block, reused block after block, so no call allocates a temporary
as long as its input, and each pass over a block finds it in cache.  The
codes are widened a block at a time, never whole.  The detectors' own
walks are sized from the same constant: a chunk of the multichannel stream
is one block of cells, and a chunk of the float detectors' walk over a
record is a quarter block of samples, whose float64 takes the bytes of a
block's int16 energies, so each kernel call takes a chunk as one block.
"""

from __future__ import annotations

import numpy as np

from .signal_model import datapath_codes

__all__ = ["teo", "smooth2", "teo_fixed", "smooth2_fixed"]

# cells per block of a kernel's walk along axis 0, and the cells of a
# multichannel stream chunk, so a chunk's window is one block up to 512
# channels.  At 2**15 cells a 512-scan, 256-channel window split into five
# blocks and the stream ran 7-11% slower.  A float record walks in chunks
# of a quarter block, 2**15 samples (detector._detect_paths); a whole 10 s,
# 24 kHz record, as calibration prepares it, splits into two blocks.
BLOCK_CELLS = 1 << 17


def _block_rows(x: np.ndarray, rows: int) -> int:
    """Rows per block of a walk over ``rows`` rows of ``x``, blocks of about ``BLOCK_CELLS`` cells.

    The rows split evenly into the nearest whole number of blocks, at least
    one, so a walk a little longer than one block stays one block.
    """
    count = max(1, (rows * (x.size // max(1, len(x))) + BLOCK_CELLS // 2) // BLOCK_CELLS)
    return max(1, -(-rows // count))


def _widener(x: np.ndarray, dtype, rows: int):
    """A function giving rows ``lo .. hi`` of ``x`` in ``dtype``.

    They are a view of ``x``, or, where ``x`` is narrower, a copy into one
    buffer of ``rows`` rows that every call reuses.
    """
    if x.dtype == dtype:
        return lambda lo, hi: x[lo:hi]
    buf = np.empty((rows,) + x.shape[1:], dtype)

    def widen(lo, hi):
        np.copyto(buf[:hi - lo], x[lo:hi])
        return buf[:hi - lo]

    return widen


def _teo_blocks(x: np.ndarray, dtype, drop_lsbs: int = 0) -> np.ndarray:
    """The energy of ``x`` in ``dtype``, block by block into the array returned.

    One scratch block holds each block's cross products; each block of
    energies is then arithmetic-right-shifted by ``drop_lsbs`` in place.
    """
    n = len(x)
    if n < 3:
        return np.zeros(x.shape, dtype)
    out = np.empty(x.shape, dtype)
    out[0] = out[-1] = 0  # the boundaries; the walk writes every other row
    step = _block_rows(x, n - 2)
    rows_of = _widener(x, dtype, step + 2)
    scratch = np.empty((step,) + x.shape[1:], dtype)
    for lo in range(1, n - 1, step):
        hi = min(lo + step, n - 1)
        rows, inner, cross = rows_of(lo - 1, hi + 1), out[lo:hi], scratch[:hi - lo]
        np.multiply(rows[1:-1], rows[1:-1], out=inner)
        np.multiply(rows[2:], rows[:-2], out=cross)
        np.subtract(inner, cross, out=inner)
        if drop_lsbs:
            np.right_shift(inner, drop_lsbs, out=inner)
    return out


def _smooth_blocks(x: np.ndarray, dtype, halve, operand) -> np.ndarray:
    """``halve(x[k] + x[k-1], operand)`` in ``dtype``, block by block into an array of ``x``'s dtype.

    The first row passes through.  Where ``x`` is narrower than ``dtype``,
    each block's sums go through one scratch block.
    """
    out = np.empty_like(x)
    out[:1] = x[:1]
    n = len(x)
    if n < 2:
        return out
    step = _block_rows(x, n - 1)
    rows_of = _widener(x, dtype, step + 1)
    narrow = x.dtype != dtype
    scratch = np.empty((step,) + x.shape[1:], dtype) if narrow else None
    for lo in range(1, n, step):
        hi = min(lo + step, n)
        rows = rows_of(lo - 1, hi)
        half = scratch[:hi - lo] if narrow else out[lo:hi]
        np.add(rows[1:], rows[:-1], out=half)
        halve(half, operand, out=half)
        if narrow:
            out[lo:hi] = half
    return out


def teo(x) -> np.ndarray:
    """Teager energy of a real sequence, same length, zero at both ends.

    Inputs shorter than 3 come back all zero.
    """
    x = np.asarray(x, dtype=np.float64)
    return _teo_blocks(x, x.dtype)


def smooth2(x) -> np.ndarray:
    """Trailing two-sample average; the first sample passes through unchanged."""
    x = np.asarray(x, dtype=np.float64)
    return _smooth_blocks(x, x.dtype, np.divide, 2.0)


def teo_fixed(x, drop_lsbs: int = 0) -> np.ndarray:
    """Integer Teager energy: exact interior arithmetic, then an arithmetic right shift.

    Interior values are computed exactly and shifted right by ``drop_lsbs``
    (a floor: ``-7`` shifted by one is ``-4``); boundaries (the first and
    last row) stay 0.  int8 codes are not checked here: in the package they
    are 7-bit, checked by a :class:`~dualteo.signal_model.QuantizedRecord` or
    by the multichannel stream's own check, or are their half-sums.  Their
    exact energies need at most 14 bits, those of any int8 codes at most 16,
    so they compute exactly in int16; :class:`~dualteo.hw_model.HwConfig`
    refuses a drop that leaves them too wide for their register.
    """
    if drop_lsbs < 0:
        raise ValueError(f"drop_lsbs must be >= 0, got {drop_lsbs}")
    return _teo_blocks(datapath_codes(x), np.int16, drop_lsbs)


def smooth2_fixed(x) -> np.ndarray:
    """Exact integer half-sum smoother: ``s[k] = (x[k] + x[k-1]) >> 1``.

    ``s[0] = (2*x[0]) >> 1 = x[0]``.  For 7-bit inputs the output also lies in
    [-64, 63]; no saturation is ever exercised.  A half-sum never leaves its
    inputs' range, so the half-sums come back int8.
    """
    return _smooth_blocks(datapath_codes(x), np.int16, np.right_shift, 1)
