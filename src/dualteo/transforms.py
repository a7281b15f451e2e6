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
a time-major block ``(n, channels)``, and compute in
:func:`~dualteo.signal_model.datapath_ints` of the input: int32 and int64
stay as they are, int8 codes compute in int16, and anything else in int64.
An int8 block therefore keeps the chip's widths: its half-sums come back
int8 and its energies int16.
"""

from __future__ import annotations

import numpy as np

from .signal_model import FixedPointFormat, datapath_ints

__all__ = ["teo", "smooth2", "teo_fixed", "smooth2_fixed"]


def teo(x) -> np.ndarray:
    """Teager energy of a real sequence, same length, zero at both ends.

    Inputs shorter than 3 come back all zero.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    if len(x) >= 3:
        out[1:-1] = x[1:-1] ** 2 - x[2:] * x[:-2]
    return out


def smooth2(x) -> np.ndarray:
    """Trailing two-sample average; the first sample passes through unchanged."""
    x = np.asarray(x, dtype=np.float64)
    s = x.copy()
    if len(x) >= 2:
        s[1:] = (x[1:] + x[:-1]) / 2.0
    return s


def teo_fixed(x, out_format: FixedPointFormat, drop_lsbs: int = 0) -> np.ndarray:
    """Integer Teager energy: exact interior arithmetic, then shift-and-saturate.

    Interior values are computed exactly in integers, arithmetic-right-shifted
    by ``drop_lsbs``, and saturated into ``out_format``, as
    :func:`~dualteo.signal_model.truncate_to` does.  Boundaries (the first and
    last row) stay 0.  The input range is not checked here: in the package
    the codes are 7-bit, checked by a
    :class:`~dualteo.signal_model.QuantizedRecord` or by the multichannel
    stream's own check, or are their half-sums; their exact energies need at
    most 14 bits, and those of any int8 codes at most 16, so an int8 block
    computes them exactly in int16.
    """
    if drop_lsbs < 0:
        raise ValueError(f"drop_lsbs must be >= 0, got {drop_lsbs}")
    x = datapath_ints(x)
    out = np.zeros_like(x)
    if len(x) >= 3:
        inner = out[1:-1]
        np.multiply(x[1:-1], x[1:-1], out=inner)
        inner -= x[2:] * x[:-2]
        inner >>= drop_lsbs
        np.clip(inner, out_format.min_code, out_format.max_code, out=inner)
    return out


def smooth2_fixed(x) -> np.ndarray:
    """Exact integer half-sum smoother: ``s[k] = (x[k] + x[k-1]) >> 1``.

    ``s[0] = (2*x[0]) >> 1 = x[0]``.  For 7-bit inputs the output also lies in
    [-64, 63]; no saturation is ever exercised.  A half-sum never leaves its
    inputs' range, so int8 codes come back int8.
    """
    x = np.asarray(x)
    wide = datapath_ints(x)
    s = wide.copy()
    if len(x) >= 2:
        np.add(wide[1:], wide[:-1], out=s[1:])
        s[1:] >>= 1
    return s.astype(np.int8) if x.dtype == np.int8 else s
