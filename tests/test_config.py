import csv
import re
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import corpus, locate, stacksmap
from stackrec.config import DATA_FILES, ServiceConfig, count_column, read_table

from conftest import REFERENCE

# Each table loader, the reference file it reads, and what it loaded.
LOADERS = {
    "catalog": (lambda path: corpus.load_corpus(path).records, "catalog.csv"),
    "stackmap": (lambda path: stacksmap.load_stackmap(path).shelves, "stackmap.csv"),
    "beacons": (locate.load_beacons, "beacons.csv"),
}


def _rewrite(tmp_path, name, transform):
    """A copy of a reference table whose rows, header first, are passed through transform."""
    with open(REFERENCE / name, newline="", encoding="utf-8") as fh:
        rows = transform(list(csv.reader(fh)))
    path = tmp_path / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def test_data_files_name_every_path_field_in_config_order():
    paths = [f.name for f in fields(ServiceConfig) if f.name != "radius"]
    assert list(DATA_FILES) == paths
    assert all((REFERENCE / file).exists() for file in DATA_FILES.values())


@pytest.mark.parametrize("table", LOADERS)
def test_blanks_around_header_names_load_the_same_table(tmp_path, table):
    load, name = LOADERS[table]
    padded = _rewrite(tmp_path, name, lambda rows: [[f" {v}  " for v in rows[0]], *rows[1:]])
    assert padded.read_text(encoding="utf-8").startswith(" ")
    assert load(padded) == load(REFERENCE / name)


def test_stackmap_columns_load_in_any_order(tmp_path):
    reordered = _rewrite(tmp_path, "stackmap.csv", lambda rows: [row[::-1] for row in rows])
    assert reordered.read_text(encoding="utf-8").startswith("range_end,")
    assert stacksmap.load_stackmap(reordered).shelves == stacksmap.load_stackmap(
        REFERENCE / "stackmap.csv").shelves


@pytest.mark.parametrize("text", ["", "bib_id,title\nb_1,x\n"])
def test_read_table_names_the_columns_it_expected(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    message = f"{path}: expected columns bib_id,title,format"
    with pytest.raises(ValueError, match=re.escape(message)):
        list(read_table(path, ("bib_id", "title", "format")))




def _oracle_rows(path, columns, optional):
    """read_table's rows by csv.DictReader: (line number, values of columns then optional)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        reader.fieldnames = [name.strip() for name in reader.fieldnames or ()]
        return [
            (reader.line_num, tuple(row[c] for c in columns) + tuple(row.get(c, "") for c in optional))
            for row in reader
        ]


NAMES = ["a", "b", "c", "d"]
# Commas, quotes and line breaks make the writer quote a field; a break inside
# quotes spans lines.
VALUES = st.text('xy ,"\n\r', max_size=4)


@st.composite
def tables(draw):
    """(header, rows, columns, optional): a header of NAMES in any order, padded with
    blanks and maybe repeating one; rows short, long or empty (a blank line)."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5))
    header = [draw(st.sampled_from(["", " ", "\t"])) + n + draw(st.sampled_from(["", "  "]))
              for n in names]
    rows = draw(st.lists(st.lists(VALUES, max_size=len(names) + 2), max_size=8))
    columns = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)))
    optional = tuple(draw(st.lists(st.sampled_from(NAMES + ["tx_power"]), max_size=2, unique=True)))
    return header, rows, columns, optional


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_read_table_agrees_with_a_dict_reader(tmp_path_factory, table):
    header, rows, columns, optional = table
    path = tmp_path_factory.mktemp("table") / "table.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    got = list(read_table(path, columns, optional))
    assert got == _oracle_rows(path, columns, optional)
    assert all(len(values) == len(columns) + len(optional) for _, values in got)


def test_read_table_reads_one_column_as_one_tuples(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,b\n1,2\n\n3\n", encoding="utf-8")
    assert list(read_table(path, ("b",))) == [(2, ("2",)), (4, ("",))]


def test_read_table_reads_an_absent_optional_column_as_blank(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("beacon_id,x,y\nb1,1,2\nb2,3,4,extra\n", encoding="utf-8")
    assert list(read_table(path, ("beacon_id",), optional=("tx_power",))) == [
        (2, ("b1", "")), (3, ("b2", ""))]


def test_count_column_counts_either_column_order_and_a_short_row_as_blank(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("bib_id,charge_date\nb1,d\nb1,d\n\nb2\n", encoding="utf-8")
    second.write_text("charge_date,bib_id\nd,b1\nd,b1\n\nd\n", encoding="utf-8")
    assert count_column(first, ("bib_id", "charge_date")) == Counter({"b1": 2, "b2": 1})
    assert count_column(second, ("bib_id", "charge_date")) == Counter({"b1": 2, "": 1})


def test_read_table_refuses_a_field_over_the_csv_limit_naming_the_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text('a,b\n1,"' + "x" * (csv.field_size_limit() + 1) + '"\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: field larger than field limit"):
        list(read_table(path, ("a", "b")))


# A table with a blank line before a bad row: the row is on line 4.
def _after_blank_line(tmp_path, name, header, good, bad):
    path = tmp_path / name
    path.write_text(f"{header}\n{good}\n\n{bad}\n", encoding="utf-8")
    return path


def test_catalog_diagnostic_counts_the_blank_line(tmp_path):
    path = _after_blank_line(tmp_path, "catalog.csv", "bib_id,title,call_number,format",
                             "uiu_1,One,PS100 .A1,print", "uiu_2,Two,???,print")
    (message,) = corpus.load_corpus(path).diagnostics
    assert message.startswith(f"{path} row 4: ")


def test_stackmap_diagnostic_counts_the_blank_line(tmp_path):
    path = _after_blank_line(tmp_path, "stackmap.csv", ",".join(stacksmap._COLUMNS),
                             "12,150,40,160,60,PR80,PR90", "20,wide,40,210,60,E150,E900")
    (message,) = stacksmap.load_stackmap(path).diagnostics
    assert message.startswith("row 4: ")


def test_bad_beacon_row_error_counts_the_blank_line(tmp_path):
    path = _after_blank_line(tmp_path, "beacons.csv", "beacon_id,x,y", "b1,0,0", "b2,zero,0")
    with pytest.raises(ValueError, match=re.escape(f"{path} row 4: could not convert")):
        locate.load_beacons(path)
