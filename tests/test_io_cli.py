"""Tests for corpus JSONL persistence and the CLI."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.whois.io import (
    iter_corpus,
    load_corpus,
    record_from_dict,
    record_to_dict,
    save_corpus,
)


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=600)).labeled_corpus(25)


# ----------------------------------------------------------------------
# JSONL round trips
# ----------------------------------------------------------------------


def test_record_dict_roundtrip(corpus):
    for record in corpus:
        clone = record_from_dict(record_to_dict(record))
        assert clone.domain == record.domain
        assert clone.raw_lines == record.raw_lines
        assert clone.block_labels == record.block_labels
        assert clone.sub_labels == record.sub_labels
        assert clone.registrar == record.registrar


def test_save_load_corpus(tmp_path, corpus):
    path = tmp_path / "corpus.jsonl"
    assert save_corpus(corpus, path) == len(corpus)
    loaded = load_corpus(path)
    assert len(loaded) == len(corpus)
    assert [r.domain for r in loaded] == [r.domain for r in corpus]


def test_iter_corpus_skips_blank_lines(tmp_path, corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus[:2], path)
    path.write_text(path.read_text() + "\n\n")
    assert len(list(iter_corpus(path))) == 2


def test_load_corpus_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(ValueError, match="malformed"):
        load_corpus(path)


def test_record_from_dict_rejects_misaligned():
    with pytest.raises(ValueError):
        record_from_dict({
            "domain": "x.com",
            "raw_lines": ["a", "b"],
            "labels": [{"block": "domain"}],
        })


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_jsonl_roundtrip_property(seed):
    record = CorpusGenerator(CorpusConfig(seed=seed)).labeled_corpus(1)[0]
    clone = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
    assert clone.text == record.text
    assert clone.block_labels == record.block_labels


# ----------------------------------------------------------------------
# CLI workflow
# ----------------------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    model_path = tmp_path / "model"
    crawl_path = tmp_path / "crawl.jsonl"

    assert main(["generate", str(corpus_path), "--count", "60",
                 "--seed", "3"]) == 0
    assert corpus_path.exists()

    assert main(["train", str(corpus_path), str(model_path)]) == 0
    assert (model_path / "parser.json").exists()

    # Parse one record from the corpus through the CLI.
    record = load_corpus(corpus_path)[0]
    record_path = tmp_path / "record.txt"
    record_path.write_text(record.text)
    capsys.readouterr()
    assert main(["parse", str(model_path), str(record_path), "--lines"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert output["domain"] == record.domain
    assert output["lines"]

    assert main(["eval", str(model_path), str(corpus_path),
                 "--confusion"]) == 0
    out = capsys.readouterr().out
    assert "line error" in out

    assert main(["crawl", str(crawl_path), "--domains", "150",
                 "--seed", "3"]) == 0
    assert crawl_path.exists()
    rows = [json.loads(line) for line in crawl_path.read_text().splitlines()]
    assert any(row["thin_text"] for row in rows)
    capsys.readouterr()
    assert main(["survey", str(model_path), str(crawl_path)]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Table 5" in out


def test_cli_survey_takes_the_registrar_from_the_thin_record(tmp_path):
    """A crawl row whose thick record has no registrar line surveys with
    the thin record's registrar; rows of older crawl files, which carry
    no ``thin_text``, survey without one."""
    from repro.survey.store import SqliteStore

    corpus_path = tmp_path / "c.jsonl"
    model_path = tmp_path / "m"
    main(["generate", str(corpus_path), "--count", "40", "--seed", "9"])
    main(["train", str(corpus_path), str(model_path)])
    thick = (
        "Domain Name: {}\n"
        "Creation Date: 2012-03-04\n"
        "Registrant Name: John Smith\n"
        "Registrant Country: US\n"
    )
    rows = [
        {"domain": "hinted.com", "status": "ok",
         "thin_text": "   Domain Name: HINTED.COM\n"
                      "   Registrar: KEY-SYSTEMS GMBH\n",
         "thick_text": thick.format("HINTED.COM")},
        {"domain": "older.com", "status": "ok",
         "thick_text": thick.format("OLDER.COM")},
    ]
    crawl_path = tmp_path / "crawl.jsonl"
    crawl_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    db_path = tmp_path / "survey.db"
    assert main(["survey", "--store", "sqlite", "--db", str(db_path),
                 str(model_path), str(crawl_path)]) == 0
    store = SqliteStore(db_path, read_only=True)
    assert store.get("hinted.com").registrar == "Key-Systems"
    assert store.get("older.com").registrar is None
    store.close()


def test_cli_parse_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    corpus_path = tmp_path / "c.jsonl"
    model_path = tmp_path / "m"
    main(["generate", str(corpus_path), "--count", "40", "--seed", "9"])
    main(["train", str(corpus_path), str(model_path)])
    record = load_corpus(corpus_path)[5]
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(record.text))
    assert main(["parse", str(model_path), "-"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert output["domain"] == record.domain


def test_cli_parse_jobs_reports_worker_metrics(tmp_path, capsys):
    """``parse --jobs 2 --metrics-out`` keeps what the workers recorded."""
    corpus_path = tmp_path / "c.jsonl"
    model_path = tmp_path / "m"
    main(["generate", str(corpus_path), "--count", "40", "--seed", "9"])
    main(["train", str(corpus_path), str(model_path)])
    paths = []
    for i, record in enumerate(load_corpus(corpus_path)[:4]):
        path = tmp_path / f"record{i}.txt"
        path.write_text(record.text)
        paths.append(str(path))
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["parse", str(model_path), *paths, "--jobs", "2",
                 "--metrics-out", str(metrics)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    counters = json.loads(metrics.read_text())["counters"]
    assert "parse.line_cache.misses" in counters


def test_cli_metrics_out(tmp_path, capsys):
    """--metrics-out writes pipeline metrics alongside each command."""
    corpus_path = tmp_path / "corpus.jsonl"
    model_path = tmp_path / "model"
    crawl_path = tmp_path / "crawl.jsonl"
    main(["generate", str(corpus_path), "--count", "50", "--seed", "4"])

    train_metrics = tmp_path / "train-metrics.json"
    assert main(["train", str(corpus_path), str(model_path),
                 "--metrics-out", str(train_metrics)]) == 0
    trained = json.loads(train_metrics.read_text())
    assert "train.iterations" in trained["counters"]
    assert "train.loss" in trained["gauges"]

    crawl_metrics = tmp_path / "crawl-metrics.json"
    assert main(["crawl", str(crawl_path), "--domains", "80", "--seed", "4",
                 "--metrics-out", str(crawl_metrics)]) == 0
    crawled = json.loads(crawl_metrics.read_text())
    assert "crawler.queries" in crawled["counters"]
    assert "crawler.query_seconds" in crawled["histograms"]
    # Simulated-clock span: the crawl takes whole virtual seconds even
    # though it replays in milliseconds of wall time.
    zone_span = crawled["histograms"]["crawl.zone_seconds"][0]["value"]
    assert zone_span["sum"] > 1.0

    survey_metrics = tmp_path / "survey-metrics.prom"
    capsys.readouterr()
    assert main(["survey", str(model_path), str(crawl_path),
                 "--metrics-out", str(survey_metrics)]) == 0
    prom = survey_metrics.read_text()
    assert "# TYPE parse_line_cache_hits counter" in prom
    assert "parse_decode_seconds_bucket" in prom

    # No --metrics-out: no registry installed, no file written.
    capsys.readouterr()
    assert main(["survey", str(model_path), str(crawl_path)]) == 0


def test_cli_rdap_lookup(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    model_path = tmp_path / "model"
    crawl_path = tmp_path / "crawl.jsonl"
    main(["generate", str(corpus_path), "--count", "50", "--seed", "5"])
    main(["train", str(corpus_path), str(model_path)])
    main(["crawl", str(crawl_path), "--domains", "60", "--seed", "5"])
    with crawl_path.open() as handle:
        thick = [json.loads(line) for line in handle]
    domain = next(row["domain"] for row in thick if row.get("thick_text"))

    capsys.readouterr()
    assert main(["rdap", str(model_path), str(crawl_path), domain]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objectClassName"] == "domain"
    assert payload["ldhName"] == domain

    capsys.readouterr()
    assert main(["rdap", str(model_path), str(crawl_path),
                 "no-such-domain.com"]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["errorCode"] == 404


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_report_smoke(tmp_path, capsys):
    """The one-shot reproduction report runs end to end at smoke scale."""
    out = tmp_path / "report.md"
    assert main(["report", str(out), "--smoke"]) == 0
    text = out.read_text()
    for heading in ("Table 1", "Figures 2–3", "Table 2", "Section 5.3",
                    "Section 2.3", "Section 4.1", "Table 3", "Table 5",
                    "Tables 8–9", "Figure 4a", "Figure 5", "Ablations"):
        assert heading in text, heading
