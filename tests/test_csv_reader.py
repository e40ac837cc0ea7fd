"""``cli._read_table`` against ``csv.reader``, which defines a CSV record.

For any file, either ``_read_table`` reads the ``csv`` module's records field
for field, or it raises DataError naming the line on which the first faulty
record starts: the first whose field count is not the header's (a quote not
closed when it ends the file inside a quoted field), or else the first that
holds a number that does not convert. The files mix text that needs quotes
(``,``, ``"``, ``\\r``, ``\\n``), a quote inside an unquoted field, a space
before an opening quote, blank lines, and rows one field short or one field
long. ``csv.reader`` is the oracle only."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordchange import cli
from ordchange.errors import DataError

HEADER = ["id", "name", "x0", "x1"]
GROUPS = [("ids", object, 2), ("x", np.float64, 2)]


def quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


# Each text field as it stands in the file.
text_fields = st.one_of(
    st.text(alphabet="ab1", max_size=3),
    st.text(alphabet='ab,"\r\n ', max_size=5).map(quoted),
    st.text(alphabet='ab"', max_size=3).map(lambda text: "a" + text),  # a quote inside an unquoted field
    st.text(alphabet="ab, ", max_size=4).map(lambda text: " " + quoted(text)),  # a space before an opening quote
)
float_fields = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def rows(draw) -> str:
    fields = [draw(text_fields), draw(text_fields), draw(float_fields), draw(float_fields)]
    shape = draw(st.sampled_from(["whole", "whole", "whole", "short", "long"]))
    if shape == "short":
        fields.pop()
    elif shape == "long":
        fields.append(draw(float_fields))
    return ",".join(fields)


@st.composite
def files(draw) -> str:
    lines = [",".join(HEADER), *draw(st.lists(rows(), max_size=5))]
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=2)):
        lines.insert(at, "")  # a blank line
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines)


def csv_records(path: Path) -> list[tuple[int, list[str]]]:
    """Each record with the file line it starts on, as the csv module reads them."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader, start, records = csv.reader(fh), 1, []
        for row in reader:
            records.append((start, row))
            start = reader.line_num + 1
    return records


def ends_inside_quotes(text: str) -> bool:
    """Whether the csv module's parser, which is not strict, is inside a
    quoted field at the end of ``text``: a quote opens a quoted field only as
    a field's first character, and a quote after the closing one is text."""
    state = "start"  # of a field; or "field", "quoted", or "closing" after a quote in a quoted field
    for c in text:
        if state == "quoted":
            state = "closing" if c == '"' else "quoted"
        elif state == "closing" and c == '"':
            state = "quoted"
        elif c in ",\r\n":
            state = "start"
        else:
            state = "quoted" if state == "start" and c == '"' else "field"
    return state == "quoted"


def is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.mark.filterwarnings("error::UserWarning")
@settings(max_examples=150, deadline=None)
@given(text=files())
@example(text="id,name,x0,x1\n\n")  # a blank line and no row: no warning from numpy's parser
@example(text='id,name,x0,x1\na"x,b,1.0,2.0\n\n')  # a quote inside a field, then a blank line
@example(text='id,name,x0,x1\n"a\n\nb",c,1.0,2.0\n')  # a blank line inside a quoted field is text
@example(text='id,name,x0,x1\n"a\n\nb",c,1.0,2.0\nd,e,abc,1.0\n')  # and the number after it is named by its line
@example(text='id,name,x0,x1\n"a\nb",c,1.0,2.0\nd,e,1.0\n')  # the short row after a record on two lines
@example(text='id,name,x0,x1\n"a\nb",c,1.0\n')  # a short last row on two lines, its quote closed
@example(text='id,name,x0,x1\na ," b,x",1.0,2.0\n')  # csv splits ' "b' and 'x"'
@example(text='id,name,x0,x1\n, ",",0.0,0.0\n')  # the second quote opens a field that the file ends in
def test_read_table_reads_the_records_csv_reads(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        records = csv_records(path)
        bad_count = [(start, row) for start, row in records if len(row) != len(HEADER)]
        bad_value = [start for start, row in records[1:] if not all(map(is_float, row[2:]))]
        if not bad_count and not bad_value:
            table = cli._read_table(path, lambda header: (None, GROUPS))[1]
            assert table["ids"].tolist() == [row[:2] for _, row in records[1:]]
            assert table["x"].tolist() == [[float(v) for v in row[2:]] for _, row in records[1:]]
            return
        with pytest.raises(DataError) as raised:
            cli._read_table(path, lambda header: (None, GROUPS))
        if not bad_count:  # the fields are whole but one does not convert
            expected = f"line {bad_value[0]}: could not convert string"
        elif bad_count[0][0] == records[-1][0] and ends_inside_quotes(text):
            expected = f"line {bad_count[0][0]}: quote not closed (read to line {len(text.splitlines())})"
        else:
            start, row = bad_count[0]
            expected = f"line {start} has {len(row)} fields, expected {len(HEADER)}"
        assert str(raised.value).startswith(f"{path}: {expected}")
