"""The shared rules of the package's line-oriented files, checked on every format.

Four formats are read line by line: the record header, the CSV record
payload, coefficient files and truth files.  Each is written here by its own
writer, then:

* blank lines and ``#`` lines inserted anywhere leave the parse unchanged;
* a data field replaced by a non-number raises ``ValueError`` starting with
  ``<path>:<lineno>``;
* undecodable bytes raise ``ValueError`` naming the file.

Events files, hardware traces and sweep results are written, never read, by
the package.  Each is ASCII, a header line of column names, then one line per
row.  Events and traces hold decimal integers, which a plain
``numpy.loadtxt`` reads back exactly; sweep results read back as the plot
script reads them, to the precision they are printed at.
"""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualteo.dataio import GroundTruth, load_ground_truth, save_ground_truth
from dualteo.detector import DetectorKind, Events, events_to_csv
from dualteo.hw_model import HwTrace
from dualteo.metrics import RESULTS_HEADER, SweepResult, report
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

    def __repr__(self):
        return self.name


FORMATS = [
    Format("header", RECORDS, save_record, read_header, "=", (1,), suffix=".f32",
           target=lambda path: path.with_name(path.name + ".hdr")),
    Format("csv-record", RECORDS, save_record, read_record, None, (0,), suffix=".csv"),
    Format("coefficients", COEFFICIENTS, save_coefficients, load_coefficients, " ", (1, 2)),
    Format("truth", truths(), save_ground_truth, read_truth, ",", (0, 1)),
]

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
        assert str(raised.value).startswith(f"{fmt.target(path)}:{lineno}: "), str(raised.value)


UNDECODABLE = st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"])


@pytest.mark.parametrize("fmt", FORMATS, ids=repr)
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


# ---------------------------------------------------------------------------
# The written formats: a header of column names, then one line per row
# ---------------------------------------------------------------------------

INT64 = st.integers(-(2**63), 2**63 - 1)
# sorted by channel, then sample, as the detectors return them
EVENTS = st.lists(st.tuples(st.integers(0, 255), st.integers(0, 10**7)), max_size=6, unique=True).map(
    lambda pairs: Events(*np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T.copy()))
TRACES = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(INT64, min_size=n, max_size=n).map(lambda col: np.array(col, dtype=np.int64)),
    min_size=len(HwTrace.COLUMNS), max_size=len(HwTrace.COLUMNS)).map(lambda cols: HwTrace(*cols)))

WRITTEN = [
    ("events", EVENTS, events_to_csv, ("channel", "sample_index"),
     lambda events: (events.channel_id, events.sample_index)),
    ("trace", TRACES, lambda trace, path: trace.to_csv(path), HwTrace.COLUMNS,
     lambda trace: tuple(getattr(trace, col) for col in HwTrace.COLUMNS)),
]


@pytest.mark.parametrize("name, values, write, columns, table", WRITTEN, ids=[w[0] for w in WRITTEN])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_written_format_reads_back_with_loadtxt(name, values, write, columns, table, data):
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty table
        path = Path(tmp) / f"{name}.csv"
        write(value, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2).reshape(-1, len(columns))
    for want, got in zip(table(value), back.T):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name, values, write, columns, table", WRITTEN, ids=[w[0] for w in WRITTEN])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_written_format_is_a_header_then_one_line_of_integers_per_row(name, values, write, columns, table, data):
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.csv"
        write(value, path)
        raw = path.read_bytes()
    assert raw.isascii() and raw.endswith(b"\n") and b"\r" not in raw
    header, *rows = raw.decode().splitlines()
    assert header == ",".join(columns)
    assert rows == [",".join(str(int(v)) for v in row) for row in zip(*table(value))]


def read_as_the_plot_script(lines):
    """The rows of a results file as its plot script reads them: blank and ``#`` lines
    dropped, the rest through ``csv.DictReader``."""
    return list(csv.DictReader(line for line in lines if line.strip() and not line.lstrip().startswith("#")))


@settings(max_examples=60, deadline=None)
@given(results=RESULTS, inserts=INSERTS)
def test_sweep_results_read_back_as_the_plot_script_reads_them(results, inserts):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep_results.csv"
        report(results, "csv", path)
        raw = path.read_bytes()
    assert raw.isascii() and raw.endswith(b"\n") and b"\r" not in raw
    header, *rows = raw.decode().splitlines()
    assert header == RESULTS_HEADER and len(rows) == len(results)
    back = read_as_the_plot_script(line + "\n" for line in with_skipped_lines([header, *rows], inserts))
    assert len(back) == len(results)
    for want, got in zip(results, back):
        assert (got["axis"], got["detector"], got["replicates"]) == (want.axis, want.detector.value, str(want.replicates))
        # the point is printed to six significant digits, the accuracies to six decimals
        assert abs(float(got["point"]) - want.point) <= 5e-6 * want.point
        assert abs(float(got["mean_accuracy"]) - want.mean_accuracy) <= 5e-7 + 1e-12
        assert abs(float(got["std_accuracy"]) - want.std_accuracy) <= 5e-7 + 1e-12
