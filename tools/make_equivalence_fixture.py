#!/usr/bin/env python3
"""Freeze the equivalence fixtures that pin parser outputs across refactors.

Four fixtures live in ``tests/data``, each produced by a known-good
commit and compared by ``tests/test_domain_equivalence.py`` against the
same pipeline run on the current code:

- ``whois_equivalence.json.gz``: a parser trained on a fixed 150-record
  WHOIS corpus, ``parse_many`` over a disjoint 500-record corpus (the
  ``to_jsonable`` wire shape plus the raw per-line ``blocks`` grouping);
- ``syslog_equivalence.json.gz``: the same for the syslog domain (line
  granularity);
- ``citations_equivalence.json.gz``: the same for the citations plug-in
  of ``examples/citations`` (char granularity);
- ``gate_equivalence.json.gz``: :class:`~repro.resilience.RecordGate`
  verdicts at three confidence floors, with each record's mean and tail
  line confidence, over a seeded mix of clean WHOIS records and records
  damaged the way the simulated internet damages them (truncated
  mid-stream, garbled with mojibake);
- ``encoding_equivalence.json.gz``: what the bulk
  :class:`~repro.parser.bulk.LineEncoder` makes of each distinct line
  of the first WHOIS and syslog fixture records (block- and
  registrant-level attribute ids in their order, indentation and
  headword), and the packed first-level encoding of the first citations
  records (the char path).

The parse and encoding fixtures must be reproduced byte for byte; the
gate fixture's verdicts exactly and its confidences to 1e-9.  Every
fixture fits its parser through :class:`~repro.crf.train.LBFGSTrainer`,
which runs the fit on one BLAS thread, so the fitted floats -- and the
files -- are the same whatever ``OPENBLAS_NUM_THREADS`` is set to.  (The
gate fixture is the one whose confidences move with the fit's last
bits; it is frozen from a one-thread fit.)

Usage::

    PYTHONPATH=src python tools/make_equivalence_fixture.py [NAME ...]

With no names every fixture is rewritten -- only ever from a commit
whose outputs are known-good.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA = REPO_ROOT / "tests" / "data"

#: Pinned pipeline parameters; the regression test mirrors these exactly.
TRAIN_SEED = 20150217
CORPUS_SEED = 840840
N_TRAIN = 150
N_CORPUS = 500
L2 = 0.1

SYSLOG_TRAIN_SEED = 5140
SYSLOG_CORPUS_SEED = 5141
SYSLOG_N_TRAIN = 80
SYSLOG_N_CORPUS = 200

CITATIONS_TRAIN_SEED = 1980
CITATIONS_CORPUS_SEED = 1981
CITATIONS_N_TRAIN = 40
CITATIONS_N_CORPUS = 80

GATE_TRAIN_SEED = 4242
GATE_CORPUS_SEED = 4243
GATE_DAMAGE_SEED = 4244
GATE_N_TRAIN = 100
GATE_N_RECORDS = 150
#: share of records truncated and garbled; the rest stay clean
GATE_DAMAGE = (("truncate", 0.3), ("garble", 0.2))
GATE_FLOORS = (0.5, 0.8, 0.9)

#: leading records of each parse fixture's corpus whose encodings are
#: frozen (a subset keeps the fixture small)
ENCODING_N_WHOIS = 120
ENCODING_N_SYSLOG = 120
ENCODING_N_CITATIONS = 40


def _parsed_rows(parsed) -> list[dict]:
    return [{**record.to_jsonable(), "blocks": record.blocks} for record in parsed]


def whois_world():
    """The WHOIS fixture's fitted parser and its 500-record corpus."""
    from repro.datagen import CorpusConfig, CorpusGenerator
    from repro.parser import WhoisParser

    train = CorpusGenerator(CorpusConfig(seed=TRAIN_SEED)).labeled_corpus(N_TRAIN)
    corpus = CorpusGenerator(CorpusConfig(seed=CORPUS_SEED)).labeled_corpus(N_CORPUS)
    return WhoisParser(l2=L2).fit(train), corpus


def syslog_world():
    """The syslog fixture's fitted parser and its corpus."""
    from repro.domain import get_domain
    from repro.parser import WhoisParser

    spec = get_domain("syslog")
    train = spec.generator(seed=SYSLOG_TRAIN_SEED).labeled_corpus(SYSLOG_N_TRAIN)
    corpus = spec.generator(seed=SYSLOG_CORPUS_SEED).labeled_corpus(
        SYSLOG_N_CORPUS
    )
    return WhoisParser(domain="syslog", l2=L2).fit(train), corpus


def citations_world():
    """The citations fixture's fitted parser and its corpus."""
    plugin_root = str(REPO_ROOT / "examples" / "citations")
    if plugin_root not in sys.path:
        sys.path.insert(0, plugin_root)
    from repro_citations import CitationConfig, CitationGenerator

    from repro.parser import WhoisParser

    train = CitationGenerator(
        CitationConfig(seed=CITATIONS_TRAIN_SEED)
    ).labeled_corpus(CITATIONS_N_TRAIN)
    corpus = CitationGenerator(
        CitationConfig(seed=CITATIONS_CORPUS_SEED)
    ).labeled_corpus(CITATIONS_N_CORPUS)
    return WhoisParser(domain="citations", l2=L2).fit(train), corpus


def _parse_outputs(world) -> list[dict]:
    parser, corpus = world()
    return _parsed_rows(parser.parse_many([record.text for record in corpus]))


def build_outputs() -> list[dict]:
    """Train on the pinned WHOIS corpus and parse the fixed 500 records."""
    return _parse_outputs(whois_world)


def build_syslog_outputs() -> list[dict]:
    """The syslog domain's pinned train-then-``parse_many`` run."""
    return _parse_outputs(syslog_world)


def build_citations_outputs() -> list[dict]:
    """The citations plug-in's pinned train-then-``parse_many`` run."""
    return _parse_outputs(citations_world)


def _line_profile_rows(parser, texts) -> list[list]:
    """One row per distinct labelable line, in first-seen order:
    ``[line, block obs ids, block edge ids, indent, headword,
    registrant obs ids, registrant edge ids]`` from cold encoders."""
    from repro.whois.records import is_labelable

    block, registrant = parser._encoders()
    seen: set[str] = set()
    rows = []
    for text in texts:
        for line in parser._raw_lines(text):
            if line in seen or not is_labelable(line):
                continue
            seen.add(line)
            obs, edge, indent, headword = block._line_profile(line)
            row = [line, list(obs), list(edge), indent, headword]
            if registrant is not None:
                sub_obs, sub_edge, _indent, _head = registrant._line_profile(line)
                row += [list(sub_obs), list(sub_edge)]
            rows.append(row)
    return rows


def build_encoding_outputs() -> dict:
    """Line profiles (WHOIS, syslog) and packed char encodings
    (citations) of each parse fixture's leading records."""
    outputs: dict = {}
    for name, world, n in (
        ("whois", whois_world, ENCODING_N_WHOIS),
        ("syslog", syslog_world, ENCODING_N_SYSLOG),
    ):
        parser, corpus = world()
        outputs[name] = _line_profile_rows(
            parser, [record.text for record in corpus[:n]]
        )
    from repro.crf.features import split_ids

    parser, corpus = citations_world()
    block, _registrant = parser._encoders()
    rows = []
    for record in corpus[:ENCODING_N_CITATIONS]:
        encoded = block.encode_record(parser._raw_lines(record.text))
        rows.append([
            encoded.obs_flat.tolist(),
            encoded.obs_counts.tolist(),
            split_ids(encoded.edge_flat, encoded.edge_counts),
        ])
    outputs["citations"] = rows
    return outputs


def gate_world():
    """The gate fixture's parser and its ``(domain, text, damage)`` mix."""
    from repro.datagen import CorpusConfig, CorpusGenerator
    from repro.netsim.faults import FaultPlan, FaultProfile
    from repro.parser import WhoisParser

    train = CorpusGenerator(
        CorpusConfig(seed=GATE_TRAIN_SEED)
    ).labeled_corpus(GATE_N_TRAIN)
    records = CorpusGenerator(
        CorpusConfig(seed=GATE_CORPUS_SEED)
    ).labeled_corpus(GATE_N_RECORDS)
    parser = WhoisParser(l2=L2).fit(train)
    plan = FaultPlan(FaultProfile(), seed=GATE_DAMAGE_SEED)
    rng = random.Random(GATE_DAMAGE_SEED)
    mix = []
    for i, record in enumerate(records):
        draw, damage = rng.random(), "clean"
        for kind, share in GATE_DAMAGE:
            if draw < share:
                damage = kind
                break
            draw -= share
        text = record.text
        if damage != "clean":
            text = plan.corrupt(f"whois.host{i}.example", damage, text)
        mix.append((record.domain, text, damage))
    return parser, mix


def _check_of(error) -> str | None:
    """Which gate check rejected a record: structure, mean, or tail."""
    if error is None:
        return None
    message = str(error)
    if "record tail" in message:
        return "tail"
    if "parser confidence" in message:
        return "mean"
    return "structure"


def gate_rows(mix, scores, verdicts) -> list[dict]:
    """Fixture rows from per-record line scores and per-floor verdicts.

    ``scores[i]`` is record ``i``'s ``line_confidences`` output and
    ``verdicts[floor][i]`` the gate's error (or None) for it.
    """
    rows = []
    for i, (domain, _text, damage) in enumerate(mix):
        scored = [c for _, _, c in scores[i]]
        rows.append({
            "domain": domain,
            "damage": damage,
            "mean": sum(scored) / len(scored) if scored else None,
            "tail": min(scored[-2:]) if scored else None,
            "verdicts": {
                str(floor): (
                    None if verdicts[floor][i] is None
                    else [verdicts[floor][i].code, _check_of(verdicts[floor][i])]
                )
                for floor in GATE_FLOORS
            },
        })
    return rows


def build_gate_outputs() -> list[dict]:
    """Gate verdicts and confidences over the seeded clean/damaged mix."""
    from repro.resilience import RecordGate

    parser, mix = gate_world()
    verdicts = {
        floor: [
            RecordGate(min_mean_confidence=floor).inspect(domain, text, parser)
            for domain, text, _damage in mix
        ]
        for floor in GATE_FLOORS
    }
    scores = [parser.line_confidences(text) for _domain, text, _damage in mix]
    return gate_rows(mix, scores, verdicts)


#: fixture name -> (builder, file under tests/data)
FIXTURES = {
    "whois": (build_outputs, "whois_equivalence.json.gz"),
    "syslog": (build_syslog_outputs, "syslog_equivalence.json.gz"),
    "citations": (build_citations_outputs, "citations_equivalence.json.gz"),
    "gate": (build_gate_outputs, "gate_equivalence.json.gz"),
    "encoding": (build_encoding_outputs, "encoding_equivalence.json.gz"),
}


def fixture_path(name: str) -> Path:
    """Where fixture ``name`` is committed."""
    return DATA / FIXTURES[name][1]


def load_fixture(name: str):
    """The committed rows of fixture ``name``."""
    return json.loads(gzip.decompress(fixture_path(name).read_bytes()))


def main(argv: list[str]) -> int:
    """Write the named gzipped fixtures (all by default)."""
    names = argv or list(FIXTURES)
    for name in names:
        builder, _filename = FIXTURES[name]
        outputs = builder()
        path = fixture_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(outputs, sort_keys=True).encode()
        with path.open("wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(blob)
        print(f"wrote {len(outputs)} {name} rows ({len(blob)} bytes raw) "
              f"to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
