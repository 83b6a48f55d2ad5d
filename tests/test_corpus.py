import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackrec import corpus, lccn
from stackrec.corpus import ArticleResult, BibRecord, CorpusLoadError, CorpusStore, load_corpus

from conftest import (
    CALL_NUMBERS,
    REFERENCE,
    call_number_ranges,
    count_calls,
    oracle_call_number_key,
    random_call_number,
)


def test_basic_load(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "bib_id,title,call_number,format\n"
        'uiu_1,"One","PS100 .A1",print\n'
        'uiu_2,"Two","PS200 .B2",print\n'
        'hat_3,"Three","PS300 .C3",ebook\n',
        encoding="utf-8",
    )
    store = load_corpus(path)
    assert len(store.records) == 3
    assert store.records["hat_3"].format == "ebook"


def test_bib_record_is_slotted_and_hashable():
    a = BibRecord("uiu_1", "One", lccn.parse("PS100 .A1"), "print")
    b = BibRecord("uiu_1", "One", lccn.parse("PS100.A1"), "print")
    assert not hasattr(a, "__dict__")
    assert a == b and hash(a) == hash(b)


def test_bad_call_number_skipped_and_reported(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "bib_id,title,call_number,format\n"
        'uiu_1,"One","PS100 .A1",print\n'
        'uiu_2,"Two","???",print\n',
        encoding="utf-8",
    )
    store = load_corpus(path)
    assert len(store.records) == 1
    assert len(store.diagnostics) == 1


def test_short_catalog_row_is_skipped_and_reported(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "bib_id,title,call_number,format\n"
        "uiu_1,A title\n"
        'uiu_2,"Two","PS100 .A1",print\n',
        encoding="utf-8",
    )
    store = load_corpus(path)
    assert list(store.records) == ["uiu_2"]
    (message,) = store.diagnostics
    assert message.startswith(f"{path} row 2: ")


def test_duplicate_bib_id_fatal(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "bib_id,title,call_number,format\n"
        'uiu_1,"One","PS100 .A1",print\n'
        'uiu_1,"One again","PS101 .A1",print\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusLoadError, match="duplicate"):
        load_corpus(path)


def test_known_ids_resolve_to_call_numbers(ref_corpus):
    assert (
        lccn.canonical_format(ref_corpus.records["uiu_8127460"].call_number)
        == "PN1995 .C655 2015"
    )
    assert (
        lccn.canonical_format(ref_corpus.records["uiu_7419985"].call_number)
        == "SF446 .C763 2014"
    )


def test_known_subjects_resolve_through_classify(ref_corpus, ref_outline):
    expectations = {
        "uiu_7734446": "Computer games. Video games. Fantasy games",
        "uiu_5180498": "English literature: Provincial, local, etc.",
        "uiu_4168504": "Fiction and juvenile belles lettres",
        "uiu_7878848": "Radio broadcasts",
        "hat_606736": "English literature",
        "hat_615138": "American literature",
        "hat_345695": "History of the Americas. United States",
        "hat_659370": "History of the Americas. United States",
    }
    for bib_id, label in expectations.items():
        record = ref_corpus.records[bib_id]
        assert ref_outline.classify(record.call_number) == label


def test_books_in_range_includes_known_ebook(ref_corpus):
    records = ref_corpus.books_in_range(lccn.parse_range("PR1", "PR9999"))
    assert "hat_606736" in [r.bib_id for r in records]


def test_books_in_range_empty_intersection(ref_corpus):
    assert ref_corpus.books_in_range(lccn.parse_range("QA1", "QA939")) == []


def test_books_in_range_matches_linear_scan(tmp_path):
    rng = random.Random(99)
    rows = ["bib_id,title,call_number,format"]
    seen = set()
    i = 0
    while i < 500:
        cn = random_call_number(rng)
        text = lccn.canonical_format(cn)
        if text in seen or cn.suffix:
            continue
        seen.add(text)
        i += 1
        fmt = "ebook" if rng.random() < 0.2 else "print"
        rows.append(f'uiu_{i},"Title {i}","{text}",{fmt}')
    path = tmp_path / "catalog.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    store = load_corpus(path)
    assert len(store.records) == 500

    for _ in range(40):
        a, b = random_call_number(rng), random_call_number(rng)
        if a.sort_key() > b.sort_key():
            a, b = b, a
        r = lccn.CallNumberRange(a, b)
        expected = sorted(
            (rec for rec in store.records.values() if lccn.in_range(rec.call_number, r)),
            key=lambda rec: (rec.call_number.sort_key(), rec.bib_id),
        )
        assert store.books_in_range(r) == expected


@settings(max_examples=200, deadline=None)
@given(
    cns=st.lists(CALL_NUMBERS, max_size=40),
    r=call_number_ranges(),
)
def test_books_in_range_matches_in_range_scan(cns, r):
    records = {
        f"uiu_{i}": BibRecord(f"uiu_{i}", f"Title {i}", cn, "ebook" if i % 3 == 0 else "print")
        for i, cn in enumerate(cns)
    }
    store = CorpusStore(records, Counter(), [], [])
    expected = sorted(
        (rec for rec in records.values() if lccn.in_range(rec.call_number, r)),
        key=lambda rec: (oracle_call_number_key(rec.call_number), rec.bib_id),
    )
    assert store.books_in_range(r) == expected


def test_books_in_range_class_prefix_end_covers_its_class():
    texts = ["B1", "B1 .A1", "B5802", "B5802 .X9 1990", "B5802.5", "B5803", "BF1"]
    records = {
        f"uiu_{i}": BibRecord(f"uiu_{i}", text, lccn.parse(text), "print") for i, text in enumerate(texts)
    }
    store = CorpusStore(records, Counter(), [], [])
    got = store.books_in_range(lccn.parse_range("B1", "B5802"))
    assert [rec.title for rec in got] == ["B1", "B1 .A1", "B5802", "B5802 .X9 1990"]


def test_books_in_range_calls_no_in_range(monkeypatch, ref_corpus):
    calls = count_calls(monkeypatch, lccn, "in_range")
    assert ref_corpus.books_in_range(lccn.parse_range("PN1", "PZ90"))
    assert calls[0] == 0


def _assert_repeated_values_shared(store):
    """Each repeated value of a loaded store is one object: the class letters,
    the class fraction, each cutter's letter and digits, the year, the format,
    and each charge count's bib_id.  Returns the class letters, the years and
    the shared strings of the shelf keys."""
    letters, years, strings = set(), {}, {}
    for record in store.records.values():
        cn = record.call_number
        key = cn.sort_key()  # (letters, int, frac, L1, D1, ..., "", has_year, year, suffix)
        assert key[0] is cn.class_letters and key[2] is cn.class_frac
        for part in (key[0], key[2], *key[3:-4]):
            assert strings.setdefault(part, part) is part
        letters.add(cn.class_letters)
        if cn.year is not None:
            assert years.setdefault(cn.year, key[-2]) is key[-2] and cn.year is key[-2]
        assert any(record.format is fmt for fmt in corpus.FORMATS)
    for bib_id in store.charges:
        if bib_id in store.records:
            assert bib_id is store.records[bib_id].bib_id
    return letters, years, strings


def test_load_shares_one_object_per_repeated_value(ref_corpus):
    letters, _, _ = _assert_repeated_values_shared(ref_corpus)
    assert Counter(r.call_number.class_letters for r in ref_corpus.records.values())["PS"] == 7
    assert len(ref_corpus.charges) == 13 and set(ref_corpus.charges) <= set(ref_corpus.records)


def test_load_shares_years_and_letters_however_the_text_spells_them(tmp_path):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(
        "bib_id,title,call_number,format\n"
        "uiu_1,One,ps100 .a1 1999,print\n"
        "uiu_2,Two, PS200 .B2 1999 ,print \n"
        "uiu_3,Three,Ps300.C3 1999,ebook\n"
        "uiu_4,Four,PS400 2001,\tebook\n"
        "uiu_5,Five,PS100.50 .A10 b20,print\n"
        "uiu_6,Six,ps7.5 .C3 B2 2001,print\n",
        encoding="utf-8",
    )
    circulation = tmp_path / "circulation.csv"
    circulation.write_text(
        "charge_date,bib_id\n2016-09-01, uiu_1\n2016-09-02,uiu_1\n2016-09-03,uiu_9\n",
        encoding="utf-8",
    )
    store = load_corpus(catalog, circulation)
    letters, years, strings = _assert_repeated_values_shared(store)
    assert letters == {"PS"} and set(years) == {1999, 2001}
    assert set(strings) == {"PS", "", "5", "A", "1", "B", "2", "C", "3"}
    assert store.charges == Counter({"uiu_1": 2, "uiu_9": 1})


def test_circulation_header_must_name_charge_date(tmp_path):
    circulation = tmp_path / "circulation.csv"
    circulation.write_text("bib_id\nuiu_1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected columns bib_id,charge_date"):
        load_corpus(REFERENCE / "catalog.csv", circulation)


def test_circulation_counts(ref_corpus):
    assert ref_corpus.circulation_count("uiu_8378456") == 12
    assert ref_corpus.circulation_count("uiu_9000001") == 2
    assert ref_corpus.circulation_count("uiu_404") == 0
    # never-charged known bib
    assert ref_corpus.circulation_count("hat_606736") == 0


def test_circulation_matches_hand_sum(ref_corpus):
    with open(REFERENCE / "circulation.csv", encoding="utf-8") as fh:
        next(fh)
        lines = [line.split(",")[0] for line in fh if line.strip()]
    for bib_id in set(lines):
        assert ref_corpus.circulation_count(bib_id) == lines.count(bib_id)


def test_article_search_no_match(ref_corpus):
    assert ref_corpus.article_search("Astrophysics") == []


def test_article_search_whole_word_case_insensitive(ref_corpus):
    results = ref_corpus.article_search("philosophy")
    assert len(results) == 10
    # substring is not a word match
    assert ref_corpus.article_search("philo") == []


def test_article_search_matches_scan_oracle(ref_corpus):
    import re

    query = "American literature"
    pattern = re.compile(rf"\b{re.escape(query)}\b", re.IGNORECASE)
    expected = sorted(
        (
            ArticleResult(j, a)
            for j, a, s in ref_corpus.articles
            if pattern.search(s)
        ),
        key=lambda r: (r.journal_title, r.article_title),
    )
    assert ref_corpus.article_search(query) == expected
    assert len(expected) == 8


def test_load_is_idempotent():
    kwargs = dict(
        catalog_path=REFERENCE / "catalog.csv",
        circulation_path=REFERENCE / "circulation.csv",
        articles_path=REFERENCE / "articles.csv",
        databases_path=REFERENCE / "databases.csv",
    )
    a, b = load_corpus(**kwargs), load_corpus(**kwargs)
    assert a.records == b.records
    assert a.charges == b.charges
    assert a.articles == b.articles
    assert a.databases == b.databases


def test_database_entries_group_repeated_names(ref_corpus):
    by_name = {d.name: d for d in ref_corpus.databases}
    assert len(by_name["Literature Online"].subject_ranges) == 2
    assert len(by_name["America: History and Life"].subject_ranges) == 1
