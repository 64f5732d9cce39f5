"""The attributes of WHOIS text, the CRF's features (Section 3.3).

:class:`WhoisFeaturizer` gives each unit of a record (a labelable line,
or a character under char granularity) the attributes that reproduce
the paper's feature families:

- dictionary words suffixed ``@T`` (left of the first separator) or ``@V``
  (right of it, or the whole line when no separator exists);
- the ``SEP`` marker and its kind when a separator is present;
- layout markers ``NL`` (preceded by one or more blank lines), ``SHL`` /
  ``SHR`` (indentation shift left/right relative to the previous labelable
  line) and ``SYM`` (line begins with a symbol such as ``#`` or ``%``);
- word-class attributes (``CLS:fivedigit``, ``CLS:email``, ...) as in
  eq. (7).

Observation attributes feed features of the forms in eqs. (6)-(7);
the *edge* attributes (markers plus title words) feed the
transition-detecting features of eq. (8) that Figure 1 visualizes.
Every family can be disabled independently for the ablation benchmarks.
The layout markers and header context depend on neighbouring lines, so
the encoder (:class:`repro.parser.bulk.LineEncoder`) adds them to each
line's own attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.whois.records import segment_chars
from repro.whois.text import (
    detect_symbol_start,
    indentation,
    split_title_value,
    tokenize,
    word_classes,
)

#: the observation naming each separator kind of ``split_title_value``
_SEP_KIND = {kind: f"SEP:{kind}" for kind in ("tab", "dots", "colon")}


@dataclass(frozen=True)
class FeaturizerConfig:
    """Switches for the feature families (used by the ablation study).

    ``granularity`` selects what one CRF token *is*: ``"line"`` (the
    paper's WHOIS setup -- each labelable line is one token) or
    ``"char"`` (each character of a normalized single-line record is
    one token, for domains with no line structure such as citation
    strings).  It travels inside model snapshots with the rest of the
    configuration, so a loaded parser always segments its input the way
    it was trained.
    """

    tv_tagging: bool = True
    markers: bool = True
    classes: bool = True
    edge_words: bool = True
    edge_markers: bool = True
    #: also emit each word untagged (no @T/@V suffix).  A "more general
    #: class of words" feature: it lets evidence transfer between title and
    #: value positions, which helps on templates never seen in training
    #: (e.g. a bare "ADMINISTRATIVE CONTACT" banner when training only saw
    #: "Administrative Contact:" titles).
    plain_words: bool = True
    #: 4-character prefix features on title words ("P4:admi@T"), linking
    #: morphological variants across registrar vocabularies: admin ~
    #: administrative, tech ~ technical, organisation ~ organization,
    #: created ~ creation, expires ~ expiration ~ expiry.
    prefixes: bool = True
    #: propagate block-header context: lines indented under a header such as
    #: "Registrant:" receive a ``CTX:registrant`` attribute.  This encodes
    #: the paper's observation that "a field title appears alone with the
    #: following block representing the associated value" (Section 4.2).
    header_context: bool = True
    max_words_per_line: int = 40
    #: unit of labeling: "line" (one token per labelable line) or
    #: "char" (one token per character; see :meth:`WhoisFeaturizer.
    #: char_attributes`)
    granularity: str = "line"


class WhoisFeaturizer:
    """The attributes of WHOIS text, unit by unit.

    Analysis here is deliberately cache-free.  The encoder
    (:class:`repro.parser.bulk.LineEncoder`) layers a memoizing per-line
    *encoding* cache on top of :meth:`line_analysis`, exploiting the
    massive line repetition across records of the same registrar schema.
    """

    def __init__(self, config: FeaturizerConfig | None = None) -> None:
        """Featurizer with ``config`` switches."""
        self.config = config or FeaturizerConfig()
        if self.config.granularity not in ("line", "char"):
            raise ValueError(
                f"unknown featurizer granularity "
                f"{self.config.granularity!r}; expected 'line' or 'char'"
            )

    def segment(self, text: str) -> list[str]:
        """Split raw record text into this configuration's units.

        Lines under line granularity (the paper's setup); normalized
        characters (:func:`~repro.whois.records.segment_chars`) under
        char granularity.  This is the one place text is split into
        units, so a parser splits by its own featurizer's configuration.
        """
        if self.config.granularity == "char":
            return segment_chars(text)
        return text.splitlines()

    # ------------------------------------------------------------------
    # Per-line analysis
    # ------------------------------------------------------------------

    def line_analysis(
        self, line: str
    ) -> tuple[list[str], list[str], int, str | None]:
        """Everything about one unit of text that its neighbors do not
        change: ``(obs, edge, indent, headword)``.

        ``obs`` and ``edge`` are the unit's observation and edge
        attributes, ``indent`` its :func:`indentation` and ``headword``
        the first word of a block-header line ("Registrant:", or a short
        line with no separator), else None.  The line is split at its
        separator once and its title and value tokenized once each.

        Under char granularity a unit is one character: the attributes
        are :meth:`char_attributes` and there is no layout (0, None).
        The result is context-free, which is what lets the encoder
        (:class:`repro.parser.bulk.LineEncoder`) memoize it per distinct
        unit and add the context on top.
        """
        cfg = self.config
        if cfg.granularity == "char":
            obs, edge = self.char_attributes(line)
            return obs, edge, 0, None
        obs: list[str] = ["BIAS"]
        edge: list[str] = []
        max_words = cfg.max_words_per_line
        split = split_title_value(line)
        if split is not None:
            title, value, kind = split
            obs.append("SEP")
            obs.append(_SEP_KIND[kind])
            title_all = tokenize(title)
            value_all = tokenize(value)
            title_words = title_all[:max_words]
            value_words = value_all[:max_words]
            if not value_words:
                obs.append("EMPTYVAL")
            class_text = value if value_words else line
            # A header's value is empty ("Registrant:"); the uncapped
            # token lists decide, whatever the per-line word cap.
            headword = (
                title_all[0] if title_all and not value_all else None
            )
        else:
            value_all = tokenize(line)
            title_words = []
            value_words = value_all[:max_words]
            class_text = line
            headword = value_all[0] if 0 < len(value_all) <= 4 else None
        if cfg.tv_tagging:
            obs += [w + "@T" for w in title_words]
            obs += [w + "@V" for w in value_words]
        else:
            obs += [w + "@V" for w in title_words + value_words]
        if cfg.plain_words:
            obs.extend(dict.fromkeys(title_words + value_words))
        if cfg.prefixes:
            # "@H" marks head-position words: the title, or the leading
            # words when the line has no separator.
            header_words = title_words if title_words else value_words[:3]
            obs.extend(dict.fromkeys(
                "P4:" + w[:4] + "@H" for w in header_words if len(w) >= 4
            ))
        if cfg.classes:
            obs += word_classes(class_text)
        if detect_symbol_start(line):
            obs.append("SYM")
            if cfg.edge_markers:
                edge.append("SYM")
        if cfg.edge_words:
            edge += [w + "@T" for w in title_words[:4]]
            if not title_words and value_words:
                # Lines without separators transition on their first words
                # (e.g. the bare "Registrant" block headers).
                edge += [w + "@V" for w in value_words[:2]]
        if split is not None and cfg.edge_markers:
            edge.append("SEP")
        return obs, edge, indentation(line), headword

    # ------------------------------------------------------------------
    # Per-character analysis (char granularity)
    # ------------------------------------------------------------------

    def char_attributes(self, ch: str) -> tuple[list[str], list[str]]:
        """Observation and edge attributes intrinsic to one character.

        The char-granularity analog of the line analysis above: the
        character's identity (case-folded, with a ``CAP`` marker), its
        coarse class, and -- for delimiters -- the character itself as
        an *edge* attribute, since field transitions in unstructured
        strings happen at punctuation and whitespace (the role the
        ``SEP``/``NL`` markers play for lines).
        """
        cfg = self.config
        obs: list[str] = ["BIAS"]
        edge: list[str] = []
        if ch.isalnum():
            obs.append(f"C:{ch.lower()}")
            if ch.isupper():
                obs.append("CAP")
            obs.append("CC:digit" if ch.isdigit() else "CC:alpha")
        elif ch.isspace():
            obs.append("CC:space")
            if cfg.edge_markers:
                edge.append("E:space")
        else:
            obs.append(f"C:{ch}")
            obs.append("CC:punct")
            if cfg.edge_markers:
                edge.append(f"E:{ch}")
        return obs, edge

    def char_context(
        self, units: list[str]
    ) -> list[tuple[list[str], list[str]]]:
        """Context attributes for every character of one record.

        These are the char-granularity counterpart of the layout/header
        context the encoder adds to lines -- everything about a
        character that depends on its neighbors:

        - the containing word (``W:``, ``P4:`` prefix, a coarse token
          class, and ``BOW``/``EOW`` boundary markers) for alphanumeric
          characters;
        - the flanking words (``PW:``/``NW:``) for delimiter
          characters, which is how a comma "knows" whether it ends an
          author or precedes a year;
        - a position decile ``POS:`` (authors come early, DOIs late);
        - an edge attribute ``B:<delimiter>`` on the first character
          after a delimiter, feeding the transition features exactly
          where field boundaries occur.

        Attribute namespaces here are disjoint from
        :meth:`char_attributes` output by prefix construction, so the
        bulk encoder can concatenate the two id sets without a dedup
        pass (the invariant :meth:`LineEncoder.encode_record
        <repro.parser.bulk.LineEncoder.encode_record>` relies on).
        """
        cfg = self.config
        n = len(units)
        # Maximal alphanumeric runs of the concatenated text, as
        # (start, end, word) spans.
        tokens: list[tuple[int, int, str]] = []
        i = 0
        while i < n:
            if units[i].isalnum():
                j = i
                while j < n and units[j].isalnum():
                    j += 1
                tokens.append((i, j, "".join(units[i:j])))
                i = j
            else:
                i += 1
        owner: list[int | None] = [None] * n
        prev_token: list[int] = [-1] * n
        last = -1
        for t, (s, e, _w) in enumerate(tokens):
            for k in range(s, e):
                owner[k] = t
        for k in range(n):
            if owner[k] is not None:
                last = owner[k]
            prev_token[k] = last
        out: list[tuple[list[str], list[str]]] = []
        for k in range(n):
            obs: list[str] = []
            edge: list[str] = []
            t = owner[k]
            if t is not None:
                s, e, word = tokens[t]
                lowered = word.lower()
                if cfg.plain_words:
                    obs.append(f"W:{lowered}")
                if cfg.prefixes and len(lowered) >= 4:
                    obs.append(f"P4:{lowered[:4]}")
                if cfg.classes:
                    if word.isdigit():
                        obs.append(
                            "TC:num4" if len(word) == 4 else "TC:num"
                        )
                    elif word[0].isupper():
                        obs.append("TC:cap")
                if cfg.markers:
                    if k == s:
                        obs.append("BOW")
                    if k == e - 1:
                        obs.append("EOW")
            elif cfg.tv_tagging:
                p = prev_token[k]
                if p >= 0:
                    obs.append(f"PW:{tokens[p][2].lower()}")
                if p + 1 < len(tokens):
                    obs.append(f"NW:{tokens[p + 1][2].lower()}")
            if cfg.markers and n:
                obs.append(f"POS:{(k * 10) // n}")
            if cfg.edge_markers and k > 0 and units[k].isalnum():
                before = units[k - 1]
                if not before.isalnum():
                    edge.append(
                        "B:space" if before.isspace() else f"B:{before}"
                    )
            out.append((obs, edge))
        return out
