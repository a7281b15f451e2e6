"""Core signal value types and fixed-point quantization primitives.

Two representations flow through the package: analog-domain records
(:class:`SignalRecord`, real amplitudes) and quantized records
(:class:`QuantizedRecord`, two's-complement integer codes with an explicit
:class:`FixedPointFormat`).  Quantization uses floor rounding (toward minus
infinity, the behaviour of an arithmetic right shift) and saturates on
overflow; wraparound would alias large excursions into spurious transients.

Record files are stored as little-endian float32 samples with a sidecar
``<path>.hdr`` text header (``key=value`` lines), or as a CSV with one sample
per line.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "SignalRecord",
    "FixedPointFormat",
    "QuantizedRecord",
    "quantize",
    "quantize_mid_tread",
    "peak_full_scale",
    "dequantize",
    "save_record",
    "load_record",
    "read_header",
]


def is_finite_real(value) -> bool:
    """True for a finite real number; a bool, a string or None is not one."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


_NOT_FINITE = "samples must all be finite"


def _require_finite(samples: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message)`` unless every sample is finite."""
    if samples.size and not np.all(np.isfinite(samples)):
        raise ValueError(message)


@dataclass(frozen=True)
class SignalRecord:
    """One channel's sample sequence in normalized amplitude units.

    Full scale is nominally [-1, +1); nothing enforces that bound, it is the
    convention the quantizer's ``full_scale`` argument maps onto.
    """

    samples: np.ndarray
    rate_hz: float
    channel_id: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if not 0 < self.rate_hz < math.inf:
            raise ValueError(f"rate_hz must be positive and finite, got {self.rate_hz}")
        if self.channel_id < 0:
            raise ValueError(f"channel_id must be non-negative, got {self.channel_id}")
        _require_finite(samples, _NOT_FINITE)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.rate_hz


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed two's-complement integer format; ``total_bits`` is its only parameter.

    Rounding is floor everywhere (arithmetic right shift semantics) and range
    overflow saturates rather than wraps.
    """

    total_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in 2..32, got {self.total_bits}")

    @property
    def min_code(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_code(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def dtype(self) -> np.dtype:
        """The narrowest numpy signed integer dtype that holds the format."""
        return np.dtype(f"int{max(8, 1 << (self.total_bits - 1).bit_length())}")

    def check(self, codes: np.ndarray) -> np.ndarray:
        """``codes``, range-checked in their own dtype, before any cast could wrap them into range."""
        if codes.size and (codes.min() < self.min_code or codes.max() > self.max_code):
            raise ValueError(
                f"codes outside {self.total_bits}-bit range [{self.min_code}, {self.max_code}]"
            )
        return codes


# the codes every integer kernel takes; the chip's 7-bit input fits them
_DATAPATH_FORMAT = FixedPointFormat(total_bits=8)


@dataclass(frozen=True)
class QuantizedRecord:
    """Integer-coded channel data plus the format and scale that produced it.

    ``full_scale`` is the amplitude mapped onto ``2**(total_bits-1)`` codes,
    i.e. the amplitude one LSB above the maximum positive code.  The codes
    are range-checked and stored in the format's dtype.
    """

    codes: np.ndarray
    format: FixedPointFormat
    rate_hz: float
    channel_id: int = 0
    full_scale: float = 1.0

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if not 0 < self.rate_hz < math.inf:
            raise ValueError(f"rate_hz must be positive and finite, got {self.rate_hz}")
        _check_full_scale(self.full_scale)
        object.__setattr__(self, "codes", self.format.check(codes).astype(self.format.dtype, copy=False))

    def __len__(self) -> int:
        return len(self.codes)


def _check_full_scale(full_scale) -> None:
    """Refuse a ``full_scale`` that is not positive and finite; NaN is neither."""
    if not 0 < full_scale < math.inf:
        raise ValueError(f"full_scale must be positive and finite, got {full_scale}")


def quantize(record: SignalRecord, format: FixedPointFormat, full_scale: float) -> QuantizedRecord:
    """Map real amplitudes to two's-complement codes, clamped into range.

    ``code[k] = clamp(floor(samples[k] / full_scale * 2**(total_bits-1)))``,
    in the format's dtype.  ``full_scale`` is checked before any sample is.
    """
    _check_full_scale(full_scale)
    return _quantize(record.samples, record, format, full_scale, "cannot quantize non-finite samples")


def _quantize(
    x: np.ndarray, record: SignalRecord, format: FixedPointFormat, full_scale: float, not_finite: str
) -> QuantizedRecord:
    """:func:`quantize` of samples ``x`` on ``record``'s rate and channel; ``not_finite`` names a non-finite ``x``.

    The caller has checked ``full_scale``.
    """
    _require_finite(x, not_finite)
    half = 1 << (format.total_bits - 1)
    # one owned buffer, in the formula's order of operations; a floor is an
    # integer, so clipping before the cast gives the codes clipping after it would
    scaled = np.divide(x, full_scale)
    scaled *= half
    np.floor(scaled, out=scaled)
    np.clip(scaled, format.min_code, format.max_code, out=scaled)
    return QuantizedRecord(
        codes=scaled.astype(format.dtype),
        format=format,
        rate_hz=record.rate_hz,
        channel_id=record.channel_id,
        full_scale=full_scale,
    )


def dequantize(q: QuantizedRecord) -> SignalRecord:
    """Map codes back to amplitudes: ``samples[k] = code[k] / 2**(bits-1) * full_scale``."""
    half = 1 << (q.format.total_bits - 1)
    samples = q.codes.astype(np.float64) / half * q.full_scale
    return SignalRecord(samples=samples, rate_hz=q.rate_hz, channel_id=q.channel_id)


def quantize_mid_tread(record: SignalRecord, format: FixedPointFormat, full_scale: float) -> QuantizedRecord:
    """Quantize with a half-LSB input offset ahead of the floor quantizer.

    Models a mid-tread converter front-end (the usual ADC offset trim): the
    floor quantizer alone centers each code bin on its lower edge, which
    leaves a half-LSB DC pedestal on the codes.  At fine resolution that bias
    is negligible; at coarse resolution it dominates the noise and breaks any
    one-sided statistic downstream, so the pipelines quantize through this
    entry point.  Rounding stays floor; only the bin centering changes.
    """
    _check_full_scale(full_scale)  # before the shift, which a NaN or inf would spread to every sample
    # the shifted samples' one finiteness check, in _quantize: a shift can overflow
    shifted = record.samples + full_scale / (1 << format.total_bits)
    return _quantize(shifted, record, format, full_scale, _NOT_FINITE)


def peak_full_scale(record: SignalRecord) -> float:
    """The per-record normalization: peak ``max|x|``, or 1.0 for a silent or empty record."""
    x = record.samples
    # no |x| temporary: the larger of the top and the negated bottom is the same float
    peak = max(float(x.max()), -float(x.min())) if len(record) else 0.0
    return peak if peak > 0 else 1.0


def datapath_codes(values) -> np.ndarray:
    """``values`` as the integer datapath's int8 codes.

    int8 passes as it is, neither checked nor copied; any other integer dtype
    is range-checked in its own dtype and cast once.  A float or bool array
    raises ``ValueError``: a cast would truncate it.
    """
    values = np.asarray(values)
    if values.dtype == np.int8:
        return values
    if values.dtype.kind not in "iu":
        raise ValueError(f"expected integer codes, got dtype {values.dtype}")
    return _DATAPATH_FORMAT.check(values).astype(np.int8)


# ---------------------------------------------------------------------------
# Line-oriented text files: one reader; each format keeps only its schema
# ---------------------------------------------------------------------------


def _read_text(path) -> str:
    """The UTF-8 text of ``path``, a path or a package resource; undecodable bytes name the file."""
    try:
        return (Path(path) if isinstance(path, (str, os.PathLike)) else path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


class _Line(NamedTuple):
    """A data line of a text file, stripped, and where it is."""

    path: object
    lineno: int
    text: str

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.path}:{self.lineno}: {message}")

    def value(self, name: str, convert, field: str):
        """``convert(field)``; its ``ValueError`` comes back naming the line and the column ``name``."""
        try:
            return convert(field)
        except ValueError as exc:
            raise self.error(f"{name}: {exc}") from None

    def fields(self, columns, sep: str | None = None, optional: int = 0) -> list:
        """The fields between ``sep`` (None: whitespace), converted by their ``(name, convert)`` columns.

        The last ``optional`` columns may be left off; any other field count raises ``ValueError``.
        """
        parts = self.text.split(sep)
        kept = len(columns) - optional
        if not kept <= len(parts) <= len(columns):
            sep, names = sep or " ", [name for name, _ in columns]
            wanted = sep.join(names[:kept]) + "".join(f"[{sep}{name}]" for name in names[kept:])
            raise self.error(f"expected {wanted!r}, got {self.text!r}")
        return [self.value(name, convert, part) for (name, convert), part in zip(columns, parts)]


def _data_lines(path, text: str | None = None) -> Iterator[_Line]:
    """Each data line of the file ``path``, read unless its ``text`` is given, located as ``path:lineno``.

    Blank lines and ``#`` lines are skipped in every format.
    """
    for lineno, raw in enumerate((_read_text(path) if text is None else text).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield _Line(path, lineno, line)


def _validated(make, path, rows: int = 0):
    """``make(rows)``; its ``ValueError`` names ``path``, and the first of its ``rows`` data lines at fault.

    ``make(k)`` builds a value object from the first ``k`` rows; every prefix of rows that passes
    its checks passes them, so the shortest prefix that fails, found by bisection, ends on that line.
    """
    try:
        return make(rows)
    except ValueError as exc:
        lo, hi, fault = 0, rows, exc  # make(hi) fails
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            make(mid)
            lo = mid + 1
        except ValueError as exc:
            hi, fault = mid, exc
    if hi:
        raise next(islice(_data_lines(path), hi - 1, None)).error(str(fault))
    raise ValueError(f"{path}: {fault}")


# ---------------------------------------------------------------------------
# Record file I/O: float32 payload + sidecar header, or CSV payload
# ---------------------------------------------------------------------------

_HEADER_SUFFIX = ".hdr"

# the header's keys and types, in the order save_record writes them; all but full_scale are required
_RECORD_HEADER = {"rate_hz": float, "channel_id": int, "full_scale": float, "n_samples": int}


def _header_path(path: Path) -> Path:
    return path.with_name(path.name + _HEADER_SUFFIX)


def read_header(path) -> dict:
    """Parse the sidecar ``key=value`` header of a record file.

    The record's keys come back as their types, any other key as text.  Every
    key a record needs must be present, valid for a record, and no key may repeat.
    """
    hdr_path = _header_path(Path(path))
    header: dict = {}
    for line in _data_lines(hdr_path):
        key, eq, value = (part.strip() for part in line.text.partition("="))
        if not eq:
            raise line.error(f"expected key=value, got {line.text!r}")
        if key in header:
            raise line.error(f"repeated header key {key!r}")
        header[key] = line.value(key, _RECORD_HEADER.get(key, str), value)
        if key in ("rate_hz", "channel_id"):
            try:
                SignalRecord(np.zeros(0), **{"rate_hz": 1.0, key: header[key]})
            except ValueError as exc:
                raise line.error(str(exc)) from None
    for key in _RECORD_HEADER:
        if key not in header and key != "full_scale":
            raise ValueError(f"{hdr_path}: missing required header key {key!r}")
    return header


def save_record(record: SignalRecord, path, full_scale: float | None = None) -> None:
    """Write a record to ``path`` (float32 raw, or CSV when path ends in .csv).

    The sidecar header lands at ``<path>.hdr``.  ``full_scale`` defaults to the
    record's :func:`peak_full_scale`, the per-record normalization the
    quantizing pipelines use.
    """
    path = Path(path)
    if full_scale is None:
        full_scale = peak_full_scale(record)
    if path.suffix == ".csv":
        lines = "\n".join(repr(float(v)) for v in record.samples)
        path.write_text(lines + ("\n" if len(record) else ""))
    else:
        record.samples.astype("<f4").tofile(path)
    values = {"rate_hz": record.rate_hz, "channel_id": record.channel_id,
              "full_scale": full_scale, "n_samples": len(record)}
    _header_path(path).write_text(
        "".join(f"{key}={kind(values[key])!r}\n" for key, kind in _RECORD_HEADER.items())
    )


def load_record(path) -> SignalRecord:
    """Load a record written by :func:`save_record`, validating the header.

    A sample count that contradicts ``n_samples`` in the header is rejected,
    and so is a ``.f32`` payload that does not end on a sample boundary.
    """
    path = Path(path)
    header = read_header(path)
    if csv := path.suffix == ".csv":
        samples = np.array([line.value("sample", float, line.text) for line in _data_lines(path)])
    else:
        size = path.stat().st_size
        if size % 4:
            raise ValueError(f"{path}: {size} bytes is not a whole number of float32 samples")
        samples = np.fromfile(path, dtype="<f4").astype(np.float64)
    if len(samples) != header["n_samples"]:
        raise ValueError(
            f"{path}: header says {header['n_samples']} samples, file holds {len(samples)}"
        )
    return _validated(  # a float32 payload has no lines to name
        lambda k: SignalRecord(samples[:k] if csv else samples, header["rate_hz"], header["channel_id"]),
        path, len(samples) if csv else 0)
