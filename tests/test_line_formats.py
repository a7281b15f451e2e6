"""The shared rules of the package's line-oriented files, checked on every format.

Six formats are read line by line: the record header, the CSV record
payload, coefficient files, truth files, events files and sweep results.
Each is written here by its own writer, then:

* blank lines and ``#`` lines inserted anywhere leave the parse unchanged;
* a data field replaced by a non-number raises ``ValueError`` starting with
  ``<path>:<lineno>`` (``<results>`` for results, which are parsed from text);
* undecodable bytes raise ``ValueError`` naming the file, and so they do in a
  trace, which keeps its own numpy parse and no comments.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualteo.dataio import GroundTruth, load_ground_truth, save_ground_truth
from dualteo.detector import DetectorKind, SpikeEvent, events_from_csv, events_to_csv
from dualteo.hw_model import HwTrace
from dualteo.metrics import SweepResult, parse_results_csv, report
from dualteo.signal_model import SignalRecord, load_record, read_header, save_record
from dualteo.threshold import Dyadic, ThresholdCoefficients, load_coefficients, save_coefficients

# ---------------------------------------------------------------------------
# The formats: each one's value, writer, reader and numeric fields
# ---------------------------------------------------------------------------

RECORDS = st.builds(
    SignalRecord,
    samples=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6).map(np.array),
    rate_hz=st.floats(1.0, 1e6),
    channel_id=st.integers(0, 300),
)
# 96 (two set bits) is the widest of these that every position and shift 0..12
# hold within the 32-bit threshold register
NUMERATORS = st.sampled_from([0, 1, 3, 5, 6, 12, -1, -3, -12, 96])
COEFFICIENTS = st.builds(
    ThresholdCoefficients,
    *[st.builds(Dyadic, NUMERATORS, st.integers(0, 12)) for _ in range(3)],
)


def truths():
    indices = st.lists(st.integers(0, 10**7), min_size=1, max_size=6, unique=True).map(sorted)
    return indices.flatmap(lambda idx: st.builds(
        GroundTruth, st.just(idx), st.none() | st.lists(st.integers(0, 9), min_size=len(idx), max_size=len(idx))))


EVENTS = st.lists(st.builds(SpikeEvent, st.integers(0, 255), st.integers(0, 10**7)), min_size=1, max_size=6)
RESULTS = st.lists(st.builds(
    SweepResult,
    st.sampled_from(["noise_level", "resolution_bits"]),
    st.floats(0.0, 16.0),
    st.sampled_from(list(DetectorKind)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 20),
), min_size=1, max_size=6)


def read_record(path):
    record = load_record(path)
    return record.samples.tolist(), record.rate_hz, record.channel_id


def read_truth(path):
    truth = load_ground_truth(path)
    return truth.spike_indices.tolist(), None if truth.template_ids is None else truth.template_ids.tolist()


class Format:
    """One line format: ``write(value, path)`` makes ``path`` plus, for a record, its
    header; ``target(path)`` is the line file under test; ``read(path)`` parses.
    Data lines start after ``header_lines``, split at ``sep``, and hold numbers in
    the fields ``numeric``."""

    def __init__(self, name, values, write, read, sep, numeric, header_lines=0, suffix=".txt",
                 target=lambda path: path):
        self.name, self.values, self.write, self.read = name, values, write, read
        self.sep, self.numeric, self.header_lines = sep, numeric, header_lines
        self.suffix, self.target = suffix, target

    def origin(self, path):
        """What an error names the file as."""
        return "<results>" if self.name == "results" else str(self.target(path))

    def __repr__(self):
        return self.name


FORMATS = [
    Format("header", RECORDS, save_record, read_header, "=", (1,), suffix=".f32",
           target=lambda path: path.with_name(path.name + ".hdr")),
    Format("csv-record", RECORDS, save_record, read_record, None, (0,), suffix=".csv"),
    Format("coefficients", COEFFICIENTS, save_coefficients, load_coefficients, " ", (1, 2)),
    Format("truth", truths(), save_ground_truth, read_truth, ",", (0, 1)),
    Format("events", EVENTS, events_to_csv, events_from_csv, ",", (0, 1), header_lines=1),
    Format("results", RESULTS, lambda results, path: report(results, "csv", path),
           lambda path: parse_results_csv(path.read_text()), ",", (1, 2, 3, 4, 5), header_lines=1),
]
FILE_FORMATS = [fmt for fmt in FORMATS if fmt.name != "results"]

# blank and comment lines, with no character that str.splitlines breaks at
NOTE_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12)
SKIPPED_LINES = st.sampled_from(["", "   ", "\t", "#", "# note", "  # 1,2,3", "#c1 1 0", "#rate_hz=1"]) | \
    NOTE_TEXT.map(lambda text: "#" + text)
NON_NUMBERS = st.sampled_from(["x", "abc", "1.2.3", "--1", "0x1f", "1e", "+-2", "one", "1 2"])


def with_skipped_lines(lines, inserts):
    """``lines`` with each ``(position, line)`` of ``inserts`` put in before the line at ``position``."""
    out = list(lines)
    for position, line in sorted(inserts, key=lambda insert: insert[0], reverse=True):
        out.insert(min(position, len(out)), line)
    return out


def written(fmt, value, tmp):
    """The lines ``fmt``'s writer writes for ``value`` into ``tmp``, and the path to read."""
    path = Path(tmp) / f"file{fmt.suffix}"
    fmt.write(value, path)
    return path, fmt.target(path).read_text().splitlines()


INSERTS = st.lists(st.tuples(st.integers(0, 12), SKIPPED_LINES), max_size=6)


@pytest.mark.parametrize("fmt", FORMATS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), inserts=INSERTS)
def test_blank_and_comment_lines_leave_the_parse_unchanged(fmt, data, inserts):
    value = data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as tmp:
        path, lines = written(fmt, value, tmp)
        expected = fmt.read(path)
        fmt.target(path).write_text("".join(line + "\n" for line in with_skipped_lines(lines, inserts)))
        assert fmt.read(path) == expected


@pytest.mark.parametrize("fmt", FORMATS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), inserts=INSERTS, junk=NON_NUMBERS)
def test_a_non_number_field_names_its_file_and_line(fmt, data, inserts, junk):
    value = data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as tmp:
        path, lines = written(fmt, value, tmp)
        row = data.draw(st.integers(fmt.header_lines, len(lines) - 1))
        fields = lines[row].split(fmt.sep) if fmt.sep else [lines[row]]
        column = data.draw(st.sampled_from([i for i in fmt.numeric if i < len(fields)]))
        fields[column] = junk
        marked = with_skipped_lines(lines[:row] + [None] + lines[row + 1:], inserts)
        lineno = marked.index(None) + 1
        marked[lineno - 1] = (fmt.sep or "").join(fields)
        fmt.target(path).write_text("".join(line + "\n" for line in marked))
        with pytest.raises(ValueError) as raised:
            fmt.read(path)
        assert str(raised.value).startswith(f"{fmt.origin(path)}:{lineno}: "), str(raised.value)


UNDECODABLE = st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"])


@pytest.mark.parametrize("fmt", FILE_FORMATS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), bad=UNDECODABLE)
def test_undecodable_bytes_name_the_file(fmt, data, bad):
    value = data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as tmp:
        path, _ = written(fmt, value, tmp)
        target = fmt.target(path)
        text = target.read_bytes()
        at = data.draw(st.integers(0, len(text)))
        target.write_bytes(text[:at] + bad + text[at:])
        with pytest.raises(ValueError, match="codec can't decode") as raised:
            fmt.read(path)
        assert str(raised.value).startswith(f"{target}: ")


TRACE = HwTrace(*np.arange(14, dtype=np.int64).reshape(7, 2))


@given(bad=UNDECODABLE, at=st.integers(0, 40))
@example(bad=b"z", at=37)  # a letter in a value, which numpy refuses to convert
@settings(max_examples=30, deadline=None)
def test_a_trace_error_names_the_file(bad, at):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        TRACE.to_csv(path)
        text = path.read_bytes()
        path.write_bytes(text[:at] + bad + text[at:])
        with pytest.raises(ValueError) as raised:
            HwTrace.from_csv(path)
        assert str(raised.value).startswith(f"{path}: ")
