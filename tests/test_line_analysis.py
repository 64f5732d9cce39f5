"""The line encoder's cold path against frozen reference copies.

``split_title_value``, ``_find_colon``, ``word_classes`` and the
featurizer's per-line analysis were rewritten for speed (one split and
one tokenization per line, ``str.find`` instead of a regex scan, regexes
gated on the characters they need).  The functions below are the
earlier implementations, kept verbatim as references: every attribute
list, and so every encoded id and its order, must stay the same.
"""

from __future__ import annotations

import gc
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.whois.features import FeaturizerConfig, WhoisFeaturizer
from repro.whois.text import (
    _find_colon,
    detect_symbol_start,
    indentation,
    split_title_value,
    tokenize,
    word_classes,
)

# ----------------------------------------------------------------------
# Reference implementations (the code before the rewrite)
# ----------------------------------------------------------------------

_REF_DOT_LEADER = re.compile(r"\.{2,}:?")
_REF_EMAIL = re.compile(r"[\w.+-]+@[\w-]+(\.[\w-]+)+", re.UNICODE)
_REF_URL = re.compile(r"(https?://|www\.)\S+", re.IGNORECASE)
_REF_FIVE_DIGIT = re.compile(r"(?<!\d)\d{5}(?!\d)")
_REF_PHONE = re.compile(r"\+?\d[\d\s().-]{6,}\d")
_REF_DATE = re.compile(
    r"(\d{4}[-/.]\d{1,2}[-/.]\d{1,2})|(\d{1,2}[-/.]\d{1,2}[-/.]\d{4})"
    r"|(\d{1,2}-[a-z]{3}-\d{4})",
    re.IGNORECASE,
)
_REF_IPV4 = re.compile(r"(?<!\d)(\d{1,3}\.){3}\d{1,3}(?!\d)")
_REF_DOMAIN = re.compile(
    r"(?<![\w.-])([a-z0-9-]+\.)+(com|net|org|info|biz|io|co|us|uk|cn|jp|de|fr)"
    r"(?![\w-])",
    re.IGNORECASE,
)
_REF_POSTCODE_ALNUM = re.compile(
    r"(?<![\w])([A-Z]{1,2}\d{1,2}[A-Z]?\s?\d[A-Z]{2}|\d{3}-\d{4})(?![\w])"
)


def ref_find_colon(line: str) -> int | None:
    for match in re.finditer(":", line):
        i = match.start()
        rest = line[i + 1 :]
        if rest.startswith("//"):  # http:// inside a value
            continue
        if i + 1 < len(line) and line[i + 1].isdigit() and i > 0 and line[i - 1].isdigit():
            continue  # 12:30:00 timestamps
        return i
    return None


def ref_split_title_value(line: str) -> tuple[str, str, str] | None:
    candidates: list[tuple[int, int, str]] = []  # (position, end, kind)
    tab = line.find("\t")
    if tab != -1:
        candidates.append((tab, tab + 1, "tab"))
    dots = _REF_DOT_LEADER.search(line)
    if dots is not None:
        candidates.append((dots.start(), dots.end(), "dots"))
    colon = ref_find_colon(line)
    if colon is not None:
        candidates.append((colon, colon + 1, "colon"))
    if not candidates:
        return None
    pos, end, _kind = min(candidates)
    return line[:pos], line[end:], _kind


def ref_word_classes(text: str, gazetteer) -> list[str]:
    classes: list[str] = []
    if _REF_EMAIL.search(text):
        classes.append("CLS:email")
    if _REF_URL.search(text):
        classes.append("CLS:url")
    if _REF_FIVE_DIGIT.search(text):
        classes.append("CLS:fivedigit")
    if _REF_DATE.search(text):
        classes.append("CLS:date")
    if _REF_IPV4.search(text):
        classes.append("CLS:ipv4")
    if _REF_PHONE.search(text):
        classes.append("CLS:phone")
    if _REF_DOMAIN.search(text):
        classes.append("CLS:domain")
    if _REF_POSTCODE_ALNUM.search(text):
        classes.append("CLS:postcode")
    if text.strip().strip(".").lower() in gazetteer:
        classes.append("CLS:country")
    letters = [ch for ch in text if ch.isalpha()]
    if letters and all(ch.isupper() for ch in letters):
        classes.append("CLS:allcaps")
    if any(ch.isdigit() for ch in text):
        classes.append("CLS:hasdigit")
    if not any(ch.isdigit() for ch in text) and letters:
        classes.append("CLS:alpha")
    return classes


def ref_line_attributes(
    fzr: WhoisFeaturizer, line: str
) -> tuple[list[str], list[str]]:
    from repro.whois import text as text_module

    cfg = fzr.config
    obs: list[str] = ["BIAS"]
    edge: list[str] = []
    split = ref_split_title_value(line)
    if split is not None:
        title, value, kind = split
        obs.append("SEP")
        obs.append(f"SEP:{kind}")
        title_words = tokenize(title)[: cfg.max_words_per_line]
        value_words = tokenize(value)[: cfg.max_words_per_line]
        if not value_words:
            obs.append("EMPTYVAL")
        class_text = value if value_words else line
    else:
        title_words = []
        value_words = tokenize(line)[: cfg.max_words_per_line]
        class_text = line
    if cfg.tv_tagging:
        obs.extend(f"{w}@T" for w in title_words)
        obs.extend(f"{w}@V" for w in value_words)
    else:
        obs.extend(f"{w}@V" for w in title_words + value_words)
    if cfg.plain_words:
        obs.extend(dict.fromkeys(title_words + value_words))
    if cfg.prefixes:
        header_words = title_words if title_words else value_words[:3]
        obs.extend(dict.fromkeys(
            f"P4:{w[:4]}@H" for w in header_words if len(w) >= 4
        ))
    if cfg.classes:
        obs.extend(
            ref_word_classes(class_text, text_module._COUNTRY_GAZETTEER)
        )
    if detect_symbol_start(line):
        obs.append("SYM")
        if cfg.edge_markers:
            edge.append("SYM")
    if cfg.edge_words:
        edge.extend(f"{w}@T" for w in title_words[:4])
        if not title_words and value_words:
            edge.extend(f"{w}@V" for w in value_words[:2])
    if split is not None and cfg.edge_markers:
        edge.append("SEP")
    return obs, edge


def ref_headword(line: str) -> str | None:
    split = ref_split_title_value(line)
    if split is not None:
        title, value, _kind = split
        if not tokenize(value):
            words = tokenize(title)
            return words[0] if words else None
        return None
    words = tokenize(line)
    if words and len(words) <= 4:
        return words[0]
    return None


# ----------------------------------------------------------------------
# Generated text: the characters the separator and class logic key on
# ----------------------------------------------------------------------

PIECES = [
    ":", ".", "..", "...:", "://", "\t", "@", "/", " ", "  ", "-", "+",
    "(", ")", "_", ",", "#", "%",
    "0", "1", "12", "2015", "92093", "٣", "²", "12:30",
    "WWW.", "www.", "http", "https", "HTTP://",
    "com", "net", "example", "Registrant", "Name", "NAME", "Admin",
    "john", "SW1A", "1AA", "usa", "UK", "Straße", "中国", "ǅ",
]

line_text = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=24).map("".join),
    st.text(max_size=40),
)

FEATURIZERS = [
    WhoisFeaturizer(),
    WhoisFeaturizer(FeaturizerConfig(
        tv_tagging=False, plain_words=False, prefixes=False,
    )),
    WhoisFeaturizer(FeaturizerConfig(
        classes=False, edge_words=False, edge_markers=False,
        max_words_per_line=2,
    )),
    WhoisFeaturizer(FeaturizerConfig(max_words_per_line=0)),
]


@settings(max_examples=600, deadline=None)
@given(line_text)
def test_find_colon_matches_reference(line):
    assert _find_colon(line) == ref_find_colon(line)


@settings(max_examples=600, deadline=None)
@given(line_text)
def test_split_title_value_matches_reference(line):
    assert split_title_value(line) == ref_split_title_value(line)


@settings(max_examples=600, deadline=None)
@given(line_text)
def test_word_classes_match_reference(text):
    from repro.whois import text as text_module

    assert word_classes(text) == ref_word_classes(
        text, text_module._COUNTRY_GAZETTEER
    )


@settings(max_examples=600, deadline=None)
@given(line_text, st.sampled_from(range(len(FEATURIZERS))))
def test_line_analysis_matches_reference(line, which):
    fzr = FEATURIZERS[which]
    obs, edge = ref_line_attributes(fzr, line)
    assert fzr.line_analysis(line) == (
        obs, edge, indentation(line), ref_headword(line)
    )


@pytest.mark.parametrize("line", [
    "Registrant:",
    "   Administrative Contact:",
    "Domain servers in listed order",
    "Created on..............: 1997-01-01",
    "Registrar URL: http://www.godaddy.com",
    "2015-02-17 12:30:00",
    "Name\tJohn: Smith",
    "E-mail: JOHN@EXAMPLE.COM",
    "Phone: +1.8585551234",
    "Postal Code: SW1A 1AA",
    "Country: UNITED STATES",
    "Address: 1.2.3.4 and 10.0.0.1",
])
def test_line_analysis_matches_reference_on_whois_shapes(line):
    for fzr in FEATURIZERS:
        obs, edge = ref_line_attributes(fzr, line)
        assert fzr.line_analysis(line) == (
            obs, edge, indentation(line), ref_headword(line)
        )


def test_char_analysis_has_no_layout():
    fzr = WhoisFeaturizer(FeaturizerConfig(granularity="char"))
    for ch in "aZ9 ,.":
        obs, edge = fzr.char_attributes(ch)
        assert fzr.line_analysis(ch) == (obs, edge, 0, None)


# ----------------------------------------------------------------------
# Encoder caches stay out of the collector
# ----------------------------------------------------------------------


def _cache_values(encoder):
    for cache in (
        encoder._profiles, encoder._lines, encoder._ctx,
        encoder._ctx_obs_ids, encoder._ctx_edge_ids,
    ):
        yield from cache.values()


def test_encoder_cache_values_are_untracked_after_a_collection():
    from repro.datagen import CorpusConfig, CorpusGenerator
    from repro.parser import WhoisParser

    generator = CorpusGenerator(CorpusConfig(seed=311))
    corpus = generator.labeled_corpus(70)
    parser = WhoisParser(l2=0.1).fit(corpus[:40])
    parser.parse_many([record.text for record in corpus[40:]])
    gc.collect()
    encoders = [e for e in parser._encoders() if e is not None]
    assert len(encoders) == 2
    values = [v for encoder in encoders for v in _cache_values(encoder)]
    assert len(values) > 500
    tracked = [v for v in values if gc.is_tracked(v)]
    assert tracked == []
