"""Tests for the WHOIS featurizer (Section 3.3 feature families)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.whois.features import FeaturizerConfig, WhoisFeaturizer
from repro.whois.records import WhoisRecord, is_labelable


FZR = WhoisFeaturizer()


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
    seq = FZR.featurize_lines(["Domain Name: X.COM", "", "Registrant Name: J"])
    assert len(seq) == 2
    assert "NL" not in seq.obs[0]
    assert "NL" in seq.obs[1]
    assert "NL" in seq.edge[1]


def test_featurize_lines_symbol_only_line_counts_as_break():
    seq = FZR.featurize_lines(["a: 1", "-----------", "b: 2"])
    assert len(seq) == 2
    assert "NL" in seq.obs[1]


def test_featurize_lines_shift_markers():
    seq = FZR.featurize_lines(["Registrant:", "   John Smith", "Domain: X"])
    assert len(seq) == 3
    assert "SHR" in seq.obs[1]
    assert "SHL" in seq.obs[2]
    assert "SHL" in seq.edge[2]


def test_featurize_record_matches_labelable_lines():
    text = "Domain Name: X.COM\n\n%%%\nRegistrant Name: J\n   More: y"
    record = WhoisRecord(domain="x.com", text=text)
    seq = FZR.featurize_lines(FZR.segment(record.text))
    assert len(seq) == len(record)


def test_bias_attribute_always_present():
    seq = FZR.featurize_lines(["a", "b: c"])
    assert all("BIAS" in attrs for attrs in seq.obs)


def test_tv_tagging_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(tv_tagging=False))
    obs, *_ = fzr.line_analysis("Registrant Name: John")
    assert "registrant@V" in obs
    assert all(not a.endswith("@T") for a in obs)


def test_markers_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(markers=False))
    seq = fzr.featurize_lines(["a: 1", "", "b: 2"])
    assert "NL" not in seq.obs[1]


def test_classes_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(classes=False))
    obs, *_ = fzr.line_analysis("Postal Code: 92093")
    assert not any(a.startswith("CLS:") for a in obs)


def test_edge_markers_ablation():
    fzr = WhoisFeaturizer(FeaturizerConfig(edge_markers=False))
    seq = fzr.featurize_lines(["a: 1", "", "b: 2"])
    assert "NL" in seq.obs[1]  # observation marker retained
    assert "NL" not in seq.edge[1]


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
    seq = FZR.featurize_lines(lines)
    expected = sum(1 for ln in lines if is_labelable(ln))
    assert len(seq) == expected
    assert len(seq.edge) == expected
    for attrs in seq.obs:
        assert "BIAS" in attrs


@given(record_text)
@settings(max_examples=50, deadline=None)
def test_featurizer_is_deterministic(lines):
    a = FZR.featurize_lines(lines)
    b = FZR.featurize_lines(lines)
    assert a.obs == b.obs and a.edge == b.edge
