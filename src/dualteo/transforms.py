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
a time-major block ``(n, channels)``, and compute in the input's dtype when
it is int32 or int64 (see :func:`~dualteo.signal_model.datapath_ints`).
"""

from __future__ import annotations

import numpy as np

from .signal_model import FixedPointFormat, datapath_ints, truncate_to

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
    by ``drop_lsbs``, and saturated into ``out_format``.  Boundaries (the
    first and last row) stay 0.  The input range is not checked here: in the
    package the codes are 7-bit, checked by a
    :class:`~dualteo.signal_model.QuantizedRecord` or by the multichannel
    stream's own check, or are their half-sums; their exact energies need at
    most 14 bits, so an int32 block computes them exactly.
    """
    x = datapath_ints(x)
    out = np.zeros_like(x)
    if len(x) >= 3:
        exact = x[1:-1] * x[1:-1]
        exact -= x[2:] * x[:-2]
        out[1:-1] = truncate_to(exact, out_format, drop_lsbs)
    return out


def smooth2_fixed(x) -> np.ndarray:
    """Exact integer half-sum smoother: ``s[k] = (x[k] + x[k-1]) >> 1``.

    ``s[0] = (2*x[0]) >> 1 = x[0]``.  For 7-bit inputs the output also lies in
    [-64, 63]; no saturation is ever exercised.
    """
    x = datapath_ints(x)
    s = x.copy()
    if len(x) >= 2:
        np.add(x[1:], x[:-1], out=s[1:])
        s[1:] >>= 1
    return s
