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
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")

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

    def check(self, codes: np.ndarray) -> np.ndarray:
        """``codes``, range-checked in their own dtype, before any cast could wrap them into range."""
        if codes.size and (codes.min() < self.min_code or codes.max() > self.max_code):
            raise ValueError(
                f"codes outside {self.total_bits}-bit range [{self.min_code}, {self.max_code}]"
            )
        return codes


@dataclass(frozen=True)
class QuantizedRecord:
    """Integer-coded channel data plus the format and scale that produced it.

    ``full_scale`` is the amplitude mapped onto ``2**(total_bits-1)`` codes,
    i.e. the amplitude one LSB above the maximum positive code.
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
        if not 0 < self.full_scale < math.inf:
            raise ValueError(f"full_scale must be positive and finite, got {self.full_scale}")
        object.__setattr__(self, "codes", self.format.check(codes).astype(np.int64, copy=False))

    def __len__(self) -> int:
        return len(self.codes)


def quantize(record: SignalRecord, format: FixedPointFormat, full_scale: float) -> QuantizedRecord:
    """Map real amplitudes to two's-complement codes, clamped into range.

    ``code[k] = clamp(floor(samples[k] / full_scale * 2**(total_bits-1)))``.
    """
    if full_scale <= 0:
        raise ValueError(f"full_scale must be positive, got {full_scale}")
    x = record.samples
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite samples")
    half = 1 << (format.total_bits - 1)
    # one owned buffer, in the formula's order of operations; a floor is an
    # integer, so clipping before the cast gives the codes clipping after it would
    scaled = np.divide(x, full_scale)
    scaled *= half
    np.floor(scaled, out=scaled)
    np.clip(scaled, format.min_code, format.max_code, out=scaled)
    return QuantizedRecord(
        codes=scaled.astype(np.int64),
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
    half_lsb = full_scale / (1 << format.total_bits)
    shifted = SignalRecord(
        samples=record.samples + half_lsb,
        rate_hz=record.rate_hz,
        channel_id=record.channel_id,
    )
    return quantize(shifted, format, full_scale)


def peak_full_scale(record: SignalRecord) -> float:
    """The per-record normalization: peak ``max|x|``, or 1.0 for a silent or empty record."""
    peak = float(np.max(np.abs(record.samples))) if len(record) else 0.0
    return peak if peak > 0 else 1.0


def datapath_ints(values) -> np.ndarray:
    """``values`` as the integer array the kernels compute in.

    int32 and int64 arrays are kept as they are; an int8 array widens to
    int16, which holds every sum, half-sum and Teager energy of int8 codes
    exactly (the energies lie in [-16384, 32640]); anything else, int16
    included, is cast to int64.  So a channel block of 7-bit codes cut as
    int8 runs its whole datapath in 8 and 16 bits, and a record runs in int64.
    Unsigned codes at or above 2**63 would wrap in that cast; they raise
    ``ValueError``.
    """
    values = np.asarray(values)
    if values.dtype == np.uint64 and values.size and values.max() >= 1 << 63:
        raise ValueError("unsigned codes at or above 2**63 do not fit the int64 datapath")
    if values.dtype == np.int8:
        return values.astype(np.int16)
    return values if values.dtype in (np.int32, np.int64) else values.astype(np.int64)


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
    key a record needs must be present, and no key may repeat.
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
    if path.suffix == ".csv":
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
    return SignalRecord(samples=samples, rate_hz=header["rate_hz"], channel_id=header["channel_id"])
