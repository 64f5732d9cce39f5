"""Tests for the Section 3.3 text analysis primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.whois.records import LabeledLine, LabeledRecord, WhoisRecord, is_labelable
from repro.whois.text import (
    detect_symbol_start,
    indentation,
    split_title_value,
    tokenize,
    word_classes,
)


# ----------------------------------------------------------------------
# split_title_value
# ----------------------------------------------------------------------


def test_colon_separator():
    assert split_title_value("Registrant Name: John Smith") == (
        "Registrant Name",
        " John Smith",
        "colon",
    )


def test_tab_separator_before_colon():
    title, value, kind = split_title_value("Name\tJohn: Smith")
    assert (title, kind) == ("Name", "tab")
    assert "John" in value


def test_dot_leader_separator():
    title, value, kind = split_title_value("Created on..............: 1997-01-01")
    assert title == "Created on"
    assert kind == "dots"
    assert value.strip() == "1997-01-01"


def test_url_colon_not_a_separator():
    # The colon in http:// must not split the line; there is no other
    # separator, so the whole line is a value.
    assert split_title_value("http://www.example.com") is None


def test_url_after_title_colon():
    title, value, _kind = split_title_value("Registrar URL: http://www.godaddy.com")
    assert title == "Registrar URL"
    assert value.strip() == "http://www.godaddy.com"


def test_timestamp_colons_skipped():
    assert split_title_value("2015-02-17 12:30:00") is None


def test_no_separator():
    assert split_title_value("John Smith") is None


def test_header_with_empty_value():
    title, value, _ = split_title_value("Registrant:")
    assert title == "Registrant"
    assert value == ""


# ----------------------------------------------------------------------
# tokenize / layout
# ----------------------------------------------------------------------


def test_tokenize_lowercases_and_splits_on_punctuation():
    assert tokenize("Registrar URL: http://WWW.GoDaddy.com") == [
        "registrar",
        "url",
        "http",
        "www",
        "godaddy",
        "com",
    ]


def test_tokenize_empty():
    assert tokenize("***---***") == []


@given(st.text(max_size=80))
@settings(max_examples=100, deadline=None)
def test_tokenize_never_raises_and_is_lowercase(text):
    for word in tokenize(text):
        assert word == word.lower()
        assert word.isalnum()


def test_indentation_counts_spaces_and_tabs():
    assert indentation("abc") == 0
    assert indentation("   abc") == 3
    assert indentation("\tabc") == 4
    assert indentation(" \tabc") == 5


def test_detect_symbol_start():
    assert detect_symbol_start("% NOTICE: access restricted")
    assert detect_symbol_start("# comment")
    assert detect_symbol_start("   >>> boilerplate")
    assert not detect_symbol_start("Registrant Name: x")
    assert not detect_symbol_start("   indented text")
    assert not detect_symbol_start("")
    assert not detect_symbol_start('"quoted"')


# ----------------------------------------------------------------------
# word classes
# ----------------------------------------------------------------------


def test_five_digit_class_for_zip():
    assert "CLS:fivedigit" in word_classes("San Diego, CA 92093")


def test_five_digit_not_in_longer_numbers():
    assert "CLS:fivedigit" not in word_classes("account 123456789")


def test_email_class():
    assert "CLS:email" in word_classes("contact jsmith@example.com for details")


def test_url_class():
    assert "CLS:url" in word_classes("see http://whois.godaddy.com")
    assert "CLS:url" in word_classes("www.example.com/path")


def test_phone_class():
    assert "CLS:phone" in word_classes("+1.8587334000")
    assert "CLS:phone" in word_classes("(858) 534-2230")


def test_date_class():
    assert "CLS:date" in word_classes("1997-09-15")
    assert "CLS:date" in word_classes("15-sep-1997")
    assert "CLS:date" in word_classes("09/15/1997")


def test_ipv4_class():
    assert "CLS:ipv4" in word_classes("ns1 at 192.168.10.1")


def test_domain_class():
    assert "CLS:domain" in word_classes("EXAMPLE.COM")


def test_uk_postcode_class():
    assert "CLS:postcode" in word_classes("London EC1A 1BB")


def test_japanese_postcode_class():
    assert "CLS:postcode" in word_classes("150-0002")


def test_allcaps_and_alpha():
    classes = word_classes("UNITED STATES")
    assert "CLS:allcaps" in classes
    assert "CLS:alpha" in classes
    assert "CLS:hasdigit" not in classes


@given(st.text(max_size=60))
@settings(max_examples=100, deadline=None)
def test_word_classes_never_raise(text):
    classes = word_classes(text)
    assert len(set(classes)) == len(classes)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def test_is_labelable():
    assert is_labelable("Domain Name: X.COM")
    assert is_labelable("  x")
    assert not is_labelable("")
    assert not is_labelable("   ")
    assert not is_labelable("-----%%%-----")


def test_whois_record_labelable_lines():
    rec = WhoisRecord(domain="x.com", text="a\n\n--\nb")
    assert rec.labelable_lines() == [(0, "a"), (3, "b")]
    assert len(rec) == 2


def test_labeled_record_validates_alignment():
    raw = ["Domain Name: X.COM", "", "Registrant Name: J"]
    lines = [
        LabeledLine("Domain Name: X.COM", "domain"),
        LabeledLine("Registrant Name: J", "registrant", "name"),
    ]
    rec = LabeledRecord(domain="x.com", raw_lines=raw, lines=lines)
    assert rec.block_labels == ["domain", "registrant"]
    assert rec.sub_labels == [None, "name"]
    assert rec.to_record().text == "Domain Name: X.COM\n\nRegistrant Name: J"
    assert [l.text for l in rec.registrant_lines()] == ["Registrant Name: J"]


def test_labeled_record_rejects_count_mismatch():
    with pytest.raises(ValueError):
        LabeledRecord(
            domain="x.com",
            raw_lines=["a", "b"],
            lines=[LabeledLine("a", "domain")],
        )


def test_labeled_record_rejects_text_mismatch():
    with pytest.raises(ValueError):
        LabeledRecord(
            domain="x.com",
            raw_lines=["a"],
            lines=[LabeledLine("b", "domain")],
        )
