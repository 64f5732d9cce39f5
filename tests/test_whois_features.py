"""Tests for the WHOIS featurizer (Section 3.3 feature families)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parser.bulk import fit_encoder
from repro.whois.features import FeaturizerConfig, WhoisFeaturizer
from repro.whois.records import WhoisRecord, is_labelable
from tests.crf_data import names


FZR = WhoisFeaturizer()


def featurize(lines, featurizer=FZR):
    """Per labelable line, the ``(obs, edge)`` attribute names the
    encoder gives it, on a vocabulary built from ``lines`` themselves
    (so an edge attribute of the first line is not in it)."""
    encoder = fit_encoder(featurizer, ["x"], [lines])
    return names(encoder.index, encoder.encode_record(lines))


def test_title_value_word_tagging():
    obs, *_ = FZR.line_analysis("Registrant Name: John Smith")
    assert "registrant@T" in obs
    assert "name@T" in obs
    assert "john@V" in obs
    assert "smith@V" in obs
    assert "SEP" in obs
    assert "SEP:colon" in obs


def test_no_separator_all_value_words():
    obs, *_ = FZR.line_analysis("John Smith")
    assert "john@V" in obs
    assert "smith@V" in obs
    assert all(not a.endswith("@T") for a in obs)
    assert "SEP" not in obs


def test_header_line_gets_emptyval():
    obs, *_ = FZR.line_analysis("Registrant:")
    assert "registrant@T" in obs
    assert "EMPTYVAL" in obs


def test_edge_attrs_include_title_words_and_sep():
    _, edge, *_ = FZR.line_analysis("Created on: 1997-01-01")
    assert "created@T" in edge
    assert "SEP" in edge


def test_edge_attrs_for_bare_header():
    _, edge, *_ = FZR.line_analysis("Administrative Contact")
    assert "administrative@V" in edge


def test_symbol_start_marker():
    obs, edge, *_ = FZR.line_analysis("% NOTICE: terms of use")
    assert "SYM" in obs
    assert "SYM" in edge


def test_word_class_attrs_on_value():
    obs, *_ = FZR.line_analysis("Registrant Postal Code: 92093")
    assert "CLS:fivedigit" in obs


def test_featurize_lines_nl_marker():
    obs, edge = featurize(["Domain Name: X.COM", "", "Registrant Name: J"])
    assert len(obs) == 2
    assert "NL" not in obs[0]
    assert "NL" in obs[1]
    assert "NL" in edge[1]


def test_featurize_lines_symbol_only_line_counts_as_break():
    obs, _edge = featurize(["a: 1", "-----------", "b: 2"])
    assert len(obs) == 2
    assert "NL" in obs[1]


def test_featurize_lines_shift_markers():
    obs, edge = featurize(["Registrant:", "   John Smith", "Domain: X"])
    assert len(obs) == 3
    assert "SHR" in obs[1]
    assert "SHL" in obs[2]
    assert "SHL" in edge[2]
    # The indented line sits under the "Registrant:" header.
    assert "CTX:registrant" in obs[1] and "CTX:registrant" not in obs[2]


def test_featurize_record_matches_labelable_lines():
    text = "Domain Name: X.COM\n\n%%%\nRegistrant Name: J\n   More: y"
    record = WhoisRecord(domain="x.com", text=text)
    obs, edge = featurize(FZR.segment(record.text))
    assert len(obs) == len(edge) == len(record)


def test_bias_attribute_always_present():
    obs, _edge = featurize(["a", "b: c"])
    assert all("BIAS" in attrs for attrs in obs)


def test_tv_tagging_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(tv_tagging=False))
    obs, *_ = fzr.line_analysis("Registrant Name: John")
    assert "registrant@V" in obs
    assert all(not a.endswith("@T") for a in obs)


def test_markers_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(markers=False))
    obs, _edge = featurize(["a: 1", "", "b: 2"], fzr)
    assert "NL" not in obs[1]


def test_classes_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(classes=False))
    obs, *_ = fzr.line_analysis("Postal Code: 92093")
    assert not any(a.startswith("CLS:") for a in obs)


def test_edge_markers_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(edge_markers=False))
    obs, edge = featurize(["a: 1", "", "b: 2"], fzr)
    assert "NL" in obs[1]  # observation marker retained
    assert "NL" not in edge[1]


def test_edge_words_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(edge_words=False))
    _, edge, *_ = fzr.line_analysis("Created on: 1997")
    assert "created@T" not in edge


record_text = st.lists(
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs"), max_codepoint=0x2000
        ),
        max_size=60,
    ),
    max_size=15,
)


@given(record_text)
@settings(max_examples=80, deadline=None)
def test_featurizer_alignment_invariant(lines):
    """One attribute list per labelable line, whatever the input."""
    obs, edge = featurize(lines)
    expected = sum(1 for ln in lines if is_labelable(ln))
    assert len(obs) == expected
    assert len(edge) == expected
    for attrs in obs:
        assert "BIAS" in attrs


@given(record_text)
@settings(max_examples=50, deadline=None)
def test_featurizer_is_deterministic(lines):
    first, second = (fit_encoder(FZR, ["x"], [lines]) for _ in range(2))
    assert first.index.to_dict() == second.index.to_dict()
    assert first.encode_record(lines) == second.encode_record(lines)
