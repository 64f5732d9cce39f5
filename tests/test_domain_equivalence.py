"""Frozen-fixture equivalence: parser and gate outputs across refactors.

``tests/data/*_equivalence.json.gz`` were frozen from known-good code
(``tools/make_equivalence_fixture.py``):

- the WHOIS, syslog and citations fixtures hold ``parse_many`` outputs
  of a parser trained on a pinned corpus; rebuilding them on the current
  code must reproduce the fixture byte for byte;
- the gate fixture holds :class:`~repro.resilience.RecordGate` verdicts
  at three confidence floors plus each record's mean and tail line
  confidence, over clean and netsim-damaged WHOIS records; verdicts must
  match exactly and confidences to 1e-9, whether the gate scores one
  record at a time or a whole batch at once.  The confidences carry the
  fit's last bits; the fit runs on one BLAS thread, so they hold under
  any ``OPENBLAS_NUM_THREADS``;
- the encoding fixture holds the bulk line encoder's per-line profiles
  (attribute ids in order, indentation, headword) over WHOIS and syslog
  records and its packed char-path encodings over citations records;
  cold encoders on the current code must reproduce it exactly, since
  the id order is the summation order of the potentials.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fixture_tool():
    spec = importlib.util.spec_from_file_location(
        "make_equivalence_fixture",
        REPO_ROOT / "tools" / "make_equivalence_fixture.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_is_committed(fixture_tool):
    for name in fixture_tool.FIXTURES:
        assert fixture_tool.fixture_path(name).exists(), (
            f"regenerate with `python tools/make_equivalence_fixture.py "
            f"{name}` (only ever from a commit whose outputs are known-good)"
        )


def _assert_parse_fixture_holds(fixture_tool, name, size):
    frozen = fixture_tool.load_fixture(name)
    builder, _filename = fixture_tool.FIXTURES[name]
    rebuilt = builder()
    assert len(rebuilt) == len(frozen) == size
    # Compare record-by-record first so a regression names the index
    # instead of dumping a large diff.
    for i, (new, old) in enumerate(zip(rebuilt, frozen)):
        assert new == old, f"{name} record {i} diverged from the frozen output"


def test_parse_many_is_bit_identical_to_pre_refactor(fixture_tool):
    _assert_parse_fixture_holds(fixture_tool, "whois", fixture_tool.N_CORPUS)


def test_syslog_parse_many_is_bit_identical_to_frozen(fixture_tool):
    _assert_parse_fixture_holds(
        fixture_tool, "syslog", fixture_tool.SYSLOG_N_CORPUS
    )


def test_citations_parse_many_is_bit_identical_to_frozen(fixture_tool):
    _assert_parse_fixture_holds(
        fixture_tool, "citations", fixture_tool.CITATIONS_N_CORPUS
    )


def test_line_encodings_are_identical_to_frozen(fixture_tool):
    frozen = fixture_tool.load_fixture("encoding")
    rebuilt = json.loads(json.dumps(fixture_tool.build_encoding_outputs()))
    assert rebuilt.keys() == frozen.keys()
    for name in frozen:
        assert len(rebuilt[name]) == len(frozen[name]), name
        for i, (new, old) in enumerate(zip(rebuilt[name], frozen[name])):
            assert new == old, f"{name} encoding row {i} diverged: {old[0]!r}"


@pytest.fixture(scope="module")
def gate_world(fixture_tool):
    return fixture_tool.gate_world()


def _assert_gate_rows_match(rebuilt, frozen):
    assert len(rebuilt) == len(frozen)
    for i, (new, old) in enumerate(zip(rebuilt, frozen)):
        assert new["domain"] == old["domain"] and new["damage"] == old["damage"]
        assert new["verdicts"] == old["verdicts"], f"gate record {i} flipped"
        for key in ("mean", "tail"):
            if old[key] is None:
                assert new[key] is None
            else:
                assert math.isclose(new[key], old[key], rel_tol=0, abs_tol=1e-9)


def test_gate_verdicts_per_record_match_frozen(fixture_tool, gate_world):
    from repro.resilience import RecordGate

    parser, mix = gate_world
    verdicts = {
        floor: [
            RecordGate(min_mean_confidence=floor).inspect(domain, text, parser)
            for domain, text, _damage in mix
        ]
        for floor in fixture_tool.GATE_FLOORS
    }
    scores = [parser.line_confidences(text) for _domain, text, _damage in mix]
    _assert_gate_rows_match(
        fixture_tool.gate_rows(mix, scores, verdicts),
        fixture_tool.load_fixture("gate"),
    )


def test_gate_verdicts_on_whole_batches_match_frozen(fixture_tool, gate_world):
    from repro.resilience import RecordGate, screen_and_parse

    parser, mix = gate_world
    records = [(domain, text) for domain, text, _damage in mix]
    verdicts = {}
    for floor in fixture_tool.GATE_FLOORS:
        admitted, rejected = screen_and_parse(
            RecordGate(min_mean_confidence=floor), parser, records
        )
        errors = [None] * len(records)
        for i, error in rejected:
            errors[i] = error
        verdicts[floor] = errors
        # The admitted records are parsed exactly as a plain parse_many.
        assert [parsed for _i, parsed in admitted] == parser.parse_many(
            [records[i][1] for i, _parsed in admitted]
        )
    scores = parser.line_confidences_many([text for _domain, text in records])
    _assert_gate_rows_match(
        fixture_tool.gate_rows(mix, scores, verdicts),
        fixture_tool.load_fixture("gate"),
    )
