"""End-to-end acceptance checks, one printed pass/fail line per check.

Each test enforces its own wall-clock budget and emits a single summary line
via `_report` so `pytest -v -s` gives a readable scorecard.
"""

import json
import random
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime

import pytest

from stackrec import harness, lccn, telemetry
from stackrec.gateway import Gateway, GatewayServer, TransactionLog
from stackrec.recommend import Recommender

from conftest import (
    KNOWN_SORT_ORDER,
    KNOWN_SUBJECTS,
    distribution_of,
    oracle_call_number_key,
    random_call_number,
)
from test_recommend import _synthetic_world


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_1_subject_coding_parity(ref_outline):
    start = time.perf_counter()
    hits = sum(
        1
        for text, label in KNOWN_SUBJECTS
        if ref_outline.classify(lccn.parse(text)) == label
    )
    elapsed = time.perf_counter() - start
    _report(
        "subject-coding parity",
        hits == len(KNOWN_SUBJECTS) and elapsed < 1.0,
        f"{hits}/{len(KNOWN_SUBJECTS)} labels exact in {elapsed:.3f}s",
    )


def test_2_ordering_oracle():
    start = time.perf_counter()
    rng = random.Random(2024)
    values = [random_call_number(rng) for _ in range(1200)]
    agree = 0
    for _ in range(1200):
        a, b = rng.choice(values), rng.choice(values)
        ka, kb = oracle_call_number_key(a), oracle_call_number_key(b)
        expected = -1 if ka < kb else (1 if ka > kb else 0)
        got = -1 if a.sort_key() < b.sort_key() else (1 if a.sort_key() > b.sort_key() else 0)
        if got == expected:
            agree += 1
    ordered = sorted(KNOWN_SORT_ORDER, key=lambda t: lccn.parse(t).sort_key())
    elapsed = time.perf_counter() - start
    _report(
        "ordering oracle",
        agree == 1200 and ordered == KNOWN_SORT_ORDER and elapsed < 5.0,
        f"{agree}/1200 comparisons agree, 11-value order "
        f"{'exact' if ordered == KNOWN_SORT_ORDER else 'WRONG'} in {elapsed:.2f}s",
    )


def test_3_wire_parity(
    ref_stackmap, ref_corpus, ref_outline, tmp_path
):
    start = time.perf_counter()
    txn_log = TransactionLog(tmp_path / "api.jsonl")
    gw = Gateway(
        ref_stackmap, ref_corpus, ref_outline, txn_log,
        radius=25.0,
    )
    with GatewayServer(gw) as server:
        with urllib.request.urlopen(
            server.base_url + "/api/wayfinder/map_data/uiu_undergrad/uiu_8127460",
            timeout=10,
        ) as resp:
            body = json.loads(resp.read())
        map_ok = (
            body["x"] == 337
            and body["y"] == 128
            and body["shelf_number"] == 30
            and body["call_number"] == "PN1995 .C655 2015"
        )
        rec_uri = "/api/recommend/popularnear?x=4362.047852&y=3160.110596"
        with urllib.request.urlopen(server.base_url + rec_uri, timeout=10) as resp:
            body = json.loads(resp.read())
        prints = [i["bib_id"] for i in body["items"] if i["kind"] == "print"]
    txn_log.close()
    annotated = telemetry.annotate(
        telemetry.parse_logs([txn_log.path]).entries,
        ref_corpus, ref_outline, ref_stackmap,
    )
    rec_rows = [a for a in annotated if a.entry.module == "recommend"]
    rec_ok = (
        len(prints) == 5
        and rec_rows[0].entry.uri == rec_uri
        and [x.bib_id for x in rec_rows[0].annotations[:5]] == prints
    )
    elapsed = time.perf_counter() - start
    _report(
        "wire parity",
        map_ok and rec_ok and elapsed < 1.0,
        f"map_data {'exact' if map_ok else 'WRONG'}, popularnear logged "
        f"{len(prints)} bibs matching uri shape in {elapsed:.3f}s",
    )


def test_4_pipeline_oracle(tmp_path, ref_outline):
    start = time.perf_counter()
    store, stack = _synthetic_world(tmp_path, seed=41, n_records=500)
    radius = 35.0
    rec = Recommender(stack, store, ref_outline, radius=radius)
    rng = random.Random(6)
    agree = 0
    for _ in range(50):
        p = (rng.uniform(-30, 330), rng.uniform(-30, 230))
        result = rec.recommend_near(p)
        ranges = [
            s.range
            for s in sorted(
                (s for s in stack.shelves if s.bounds.distance_to(p) <= radius),
                key=lambda s: (s.bounds.distance_to(p), s.shelf_number),
            )
        ]
        in_any = [
            r for r in store.records.values()
            if any(lccn.in_range(r.call_number, rr) for rr in ranges)
        ]
        prints = sorted(
            ((r, store.circulation_count(r.bib_id)) for r in in_any
             if r.format == "print" and store.circulation_count(r.bib_id) > 0),
            key=lambda pair: (-pair[1], pair[0].bib_id),
        )
        ebooks = sorted(
            (r for r in in_any if r.format == "ebook"),
            key=lambda r: (r.call_number.sort_key(), r.bib_id),
        )
        expected_prints = [r.bib_id for r, _ in prints[:5]]
        expected_ebooks = [r.bib_id for r in ebooks[:3]]
        got_prints = [i.bib_id for i in result.items if i.kind == "print"]
        got_ebooks = [i.bib_id for i in result.items if i.kind == "ebook"]
        if got_prints == expected_prints and got_ebooks == expected_ebooks:
            agree += 1
    elapsed = time.perf_counter() - start
    _report(
        "pipeline oracle equivalence",
        agree == 50 and elapsed < 10.0,
        f"{agree}/50 points item-for-item in {elapsed:.2f}s",
    )


def test_5_long_tail_reproduction(tmp_path):
    start = time.perf_counter()
    summary = harness.run_report(
        harness.ReportConfig(out_dir=str(tmp_path))
    )
    elapsed = time.perf_counter() - start
    top2 = [name for name, _ in summary["subject_distribution"][:2]]
    exponent = summary["power_law"]["exponent"]
    r2 = summary["power_law"]["r_squared"]
    ok = (
        top2 == ["American literature", "English literature"]
        and -1.3 <= exponent <= -0.7
        and r2 >= 0.8
        and summary["heatmap_mass"] == summary["recommend_requests"]
        and summary["heatmap_out_of_extent"] == 0
        and elapsed < 60.0
    )
    _report(
        "long-tail reproduction",
        ok,
        f"top2={top2}, exponent={exponent:.3f}, R^2={r2:.3f}, "
        f"mass={summary['heatmap_mass']}/{summary['recommend_requests']} in {elapsed:.1f}s",
    )


def test_6_conservation_suite(
    ref_stackmap, ref_corpus, ref_outline, tmp_path
):
    rng = random.Random(60)
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
    spec = telemetry.GridSpec(0, 0, 10, 10, 10)
    bin_ok = telemetry.heatmap_points(points, spec, "bin").total_mass == 300
    gauss_mass = telemetry.heatmap_points(points, spec, "gaussian", sigma=8.0).total_mass
    gauss_ok = abs(gauss_mass - 300) <= 1e-9

    txn_log = TransactionLog(tmp_path / "api.jsonl")
    gw = Gateway(
        ref_stackmap, ref_corpus, ref_outline, txn_log,
        radius=25.0,
    )
    uri = "/api/recommend/popularnear?x=4362.047852&y=3160.110596"
    with GatewayServer(gw) as server:
        def hit(_):
            with urllib.request.urlopen(server.base_url + uri, timeout=10) as resp:
                resp.read()
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(hit, range(100)))
    txn_log.close()
    parsed = telemetry.parse_logs([txn_log.path])
    append_ok = len(parsed.entries) == 100 and not parsed.malformed
    round_trip_ok = all(
        type(e).parse(e.to_json()) == e for e in parsed.entries
    )

    annotated = telemetry.annotate(parsed.entries, ref_corpus, ref_outline)
    dist = telemetry.subject_distribution(annotated)
    occurrences = sum(len(a.annotations) for a in annotated)
    subject_ok = dist.total + dist.unknown == occurrences

    ok = bin_ok and gauss_ok and append_ok and round_trip_ok and subject_ok
    _report(
        "telemetry conservation",
        ok,
        f"bin={'exact' if bin_ok else 'FAIL'}, gaussian drift {abs(gauss_mass - 300):.2e}, "
        f"{len(parsed.entries)}/100 concurrent lines parseable, "
        f"subjects {dist.total}+{dist.unknown}=={occurrences}",
    )


def test_7_text_mining_semantics():
    rng = random.Random(70)
    words = ["fish", "google", "math", "test", "hiv", "poetry", "film", "novel"]
    entries = []
    oracle = Counter()
    for i in range(1000):
        q = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        oracle.update(q.split())
        entries.append(
            telemetry.ApiLogEntry(
                timestamp=datetime(2016, 9, (i % 28) + 1, 10),
                module="catalog",
                uri=f"/api/catalog/search?q={q.replace(' ', '+')}",
                params={"q": q},
                status=200,
            )
        )
    stats = telemetry.mine_queries(entries, "catalog")
    top5 = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    mining_ok = (
        stats.total_words == sum(oracle.values())
        and stats.unique_forms == len(oracle)
        and stats.top == top5
    )
    fit = telemetry.fit_power_law(distribution_of([100.0 * r ** -1.0 for r in range(1, 21)]))
    fit_ok = abs(fit.exponent - (-1.0)) <= 1e-6
    _report(
        "text-mining semantics",
        mining_ok and fit_ok,
        f"1000-query corpus {'matches' if mining_ok else 'MISMATCHES'} oracle, "
        f"synthetic fit exponent {fit.exponent:.8f}",
    )
