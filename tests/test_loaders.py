"""Mutated reference tables: each loader either loads one, with every row
accounted for and every coordinate finite, or refuses it with a ValueError
that names the file.

The mutations work on the rows of tests/fixtures/reference, once as text
(a field replaced, a line dropped, repeated, inserted or cut short) and once
as bytes (bytes overwritten or inserted, invalid UTF-8 among them).  The row
counts come from the text itself, not from config.read_table.
"""

import csv
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import corpus, lccn, locate, stacksmap

from conftest import REFERENCE


# Each loader, by the reference file it reads: it returns the number of rows
# the load accounted for (loaded or in diagnostics) and the coordinates it loaded.
def _catalog(path):
    store = corpus.load_corpus(path)
    return len(store.records) + len(store.diagnostics), ()


def _circulation(path):
    return sum(corpus.load_corpus(REFERENCE / "catalog.csv", path).charges.values()), ()


def _articles(path):
    return len(corpus.load_corpus(REFERENCE / "catalog.csv", articles_path=path).articles), ()


def _databases(path):
    store = corpus.load_corpus(REFERENCE / "catalog.csv", databases_path=path)
    return sum(len(entry.subject_ranges) for entry in store.databases) + len(store.diagnostics), ()


def _stackmap(path):
    m = stacksmap.load_stackmap(path)
    bounds = [s.bounds for s in m.shelves]
    return len(m.shelves) + len(m.diagnostics), [c for b in bounds for c in (b.x_min, b.y_min, b.x_max, b.y_max)]


def _beacons(path):
    beacons = locate.load_beacons(path)
    return len(beacons), [c for b in beacons for c in (b.x, b.y, b.tx_power)]


def _outline(path):
    outline = lccn.load_outline(path)
    return len(outline.entries) + len(outline.diagnostics), ()


LOADERS = {
    "catalog.csv": _catalog,
    "circulation.csv": _circulation,
    "articles.csv": _articles,
    "databases.csv": _databases,
    "stackmap.csv": _stackmap,
    "beacons.csv": _beacons,
    "outline.tsv": _outline,
}


def _data_rows(name: str, text: str) -> int:
    """Rows a loader must account for: non-blank CSV rows after the header, or
    outline lines that are neither blank nor comments."""
    if name.endswith(".tsv"):
        lines = re.split(r"\r\n|\r|\n", text)
        return sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))
    return sum(1 for row in list(csv.reader(io.StringIO(text, newline="")))[1:] if row)


def _check(name: str, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            accounted, coordinates = LOADERS[name](path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
    assert accounted == _data_rows(name, data.decode("utf-8"))
    assert all(math.isfinite(c) for c in coordinates)


def test_reference_catalog_loads_without_diagnostics():
    # the corpus tables above are checked against it
    assert not corpus.load_corpus(REFERENCE / "catalog.csv").diagnostics


_VALUES = st.sampled_from([
    "", " ", "nan", "-inf", "1e309", "-0", "1e-320", "0x10", "1_000", "9" * 30,
    '"', '""', ",", "\t", "PS1", "PR9680", "Z1 .A1", "b1",
]) | st.text(max_size=6)


@st.composite
def _text_mutation(draw, name: str) -> bytes:
    lines = (REFERENCE / name).read_text(encoding="utf-8").splitlines(keepends=True)
    sep = "\t" if name.endswith(".tsv") else ","
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        line = lines[i] if i < len(lines) else "\n"
        op = draw(st.sampled_from(["field", "drop", "repeat", "insert", "cut"]))
        if op == "field":
            fields = line.rstrip("\n").split(sep)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_VALUES)
            lines[i:i + 1] = [sep.join(fields) + "\n"]
        elif op == "drop":
            del lines[i:i + 1]
        elif op == "repeat":
            lines[i:i] = [line]
        elif op == "insert":
            lines[i:i] = [draw(st.text(max_size=20)) + "\n"]
        else:
            lines[i:i + 1] = [line[:draw(st.integers(0, len(line)))]]
    return "".join(lines).encode("utf-8")


_BYTES = st.sampled_from([
    b"\xff", b"\x00", b"\xc3", b"\xe2\x82", b"\xef\xbb\xbf", b"\r", b"\n", b'"', b",", b"\t",
]) | st.binary(min_size=1, max_size=3)


@st.composite
def _byte_mutation(draw, name: str) -> bytes:
    data = bytearray((REFERENCE / name).read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        chunk = draw(_BYTES)
        end = pos + len(chunk) if draw(st.booleans()) else pos  # overwrite or insert
        data[pos:end] = chunk
    return bytes(data)


@pytest.mark.parametrize("name", LOADERS)
def test_fuzz_text_mutations_load_accounted_and_finite_or_name_the_file(name):
    @settings(max_examples=60, deadline=None)
    @given(data=_text_mutation(name))
    def check(data):
        _check(name, data)

    check()


@pytest.mark.parametrize("name", LOADERS)
def test_fuzz_byte_mutations_load_accounted_and_finite_or_name_the_file(name):
    @settings(max_examples=60, deadline=None)
    @given(data=_byte_mutation(name))
    def check(data):
        _check(name, data)

    check()


@pytest.mark.parametrize("name", LOADERS)
def test_a_table_that_is_not_utf8_names_its_file(tmp_path, name):
    lines = (REFERENCE / name).read_bytes().split(b"\n")
    lines[-2] += b"\xff"  # the last row
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
        LOADERS[name](path)
