"""A pythonwhois-style generic regex parser (Section 2.3).

Rule-based open-source parsers craft "a more general series of rules in the
form of regular expressions ... designed to match a variety of common WHOIS
structures (e.g., name:value formats)".  They achieve decent coverage of
mainstream formats but miss block styles and exotic layouts, and they have
no crisp failure signal.  The paper measures pythonwhois finding the
registrant on only 59% of records with a registrant field; this
re-implementation covers the mainstream ``Registrant Name:`` and ``owner:``
shapes (and a couple of bracket styles) while remaining blind to indented
block formats, reproducing that failure mode.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.parser.api import ParserBase
from repro.parser.fields import ParsedRecord, parse_whois_date
from repro.whois.records import LabeledRecord, WhoisRecord

_DOMAIN_PATTERNS: tuple[re.Pattern, ...] = (
    re.compile(r"^\s*Domain Name\s*\.*:?\s*\.*\s*(?P<v>\S+)\s*$",
               re.IGNORECASE | re.MULTILINE),
    re.compile(r"^\s*domain:\s*(?P<v>\S+)\s*$", re.IGNORECASE | re.MULTILINE),
)

_REGISTRANT_PATTERNS: tuple[re.Pattern, ...] = (
    re.compile(r"^\s*Registrant Name\s*\.*:?\s*\.*\s*(?P<v>.+?)\s*$",
               re.IGNORECASE | re.MULTILINE),
    re.compile(r"^\s*Registrant\s*\.+:?\s+(?P<v>.+?)\s*$", re.MULTILINE),
    re.compile(r"^\s*owner:\s*(?P<v>.+?)\s*$", re.IGNORECASE | re.MULTILINE),
    re.compile(r"^\[Registrant\]\s+(?P<v>.+?)\s*$", re.MULTILINE),
)

_ORG_PATTERNS: tuple[re.Pattern, ...] = (
    re.compile(r"^\s*Registrant Organi[sz]ation\s*\.*:?\s*\.*\s*(?P<v>.+?)\s*$",
               re.IGNORECASE | re.MULTILINE),
    re.compile(r"^\s*organization:\s*(?P<v>.+?)\s*$",
               re.IGNORECASE | re.MULTILINE),
)

_EMAIL_PATTERNS: tuple[re.Pattern, ...] = (
    re.compile(r"^\s*Registrant Email\s*\.*:?\s*\.*\s*(?P<v>\S+@\S+)\s*$",
               re.IGNORECASE | re.MULTILINE),
    re.compile(r"^\s*e-?mail:\s*(?P<v>\S+@\S+)\s*$",
               re.IGNORECASE | re.MULTILINE),
)

_DATE_PATTERNS: tuple[tuple[str, re.Pattern], ...] = (
    ("created", re.compile(
        r"^\s*(Creation Date|Created( on)?|created|Registration Date)"
        r"\s*\.*:?\s*\.*\s*(?P<v>.+?)\s*$",
        re.IGNORECASE | re.MULTILINE)),
    ("expires", re.compile(
        r"^\s*(Expir\w+ Date|Expires( on)?|expires|Renewal)"
        r"\s*\.*:?\s*\.*\s*(?P<v>.+?)\s*$",
        re.IGNORECASE | re.MULTILINE)),
)

_REGISTRAR_PATTERN = re.compile(
    r"^\s*(Sponsoring )?Registrar\s*\.*:?\s*\.*\s*(?P<v>.+?)\s*$",
    re.IGNORECASE | re.MULTILINE,
)


@dataclass
class SimpleParseResult:
    registrant_name: str | None = None
    registrant_org: str | None = None
    registrant_email: str | None = None
    registrar: str | None = None
    created: str | None = None
    expires: str | None = None


class SimpleRegexParser(ParserBase):
    """Generic regex extraction over raw WHOIS text.

    :meth:`parse` follows the unified :class:`~repro.parser.api.Parser`
    protocol (any record form in, :class:`ParsedRecord` out);
    :meth:`parse_simple` is the historical flat result for callers that
    want the raw matched strings.
    """

    @staticmethod
    def _text(record: WhoisRecord | LabeledRecord | str) -> str:
        return record if isinstance(record, str) else record.text

    def parse_simple(self, text: str) -> SimpleParseResult:
        result = SimpleParseResult()
        result.registrant_name = self._first(_REGISTRANT_PATTERNS, text)
        result.registrant_org = self._first(_ORG_PATTERNS, text)
        result.registrant_email = self._first(_EMAIL_PATTERNS, text)
        registrar = _REGISTRAR_PATTERN.search(text)
        if registrar:
            result.registrar = registrar.group("v")
        for name, pattern in _DATE_PATTERNS:
            match = pattern.search(text)
            if match:
                setattr(result, name, match.group("v"))
        return result

    def parse(self, record: WhoisRecord | LabeledRecord | str) -> ParsedRecord:
        text = self._text(record)
        simple = self.parse_simple(text)
        domain = self._first(_DOMAIN_PATTERNS, text)
        registrant = {
            key: value
            for key, value in (
                ("name", simple.registrant_name),
                ("org", simple.registrant_org),
                ("email", simple.registrant_email),
            )
            if value is not None
        }
        return ParsedRecord(
            domain=domain.lower() if domain else None,
            registrar=simple.registrar,
            created=parse_whois_date(simple.created) if simple.created else None,
            expires=parse_whois_date(simple.expires) if simple.expires else None,
            registrant=registrant,
        )

    @staticmethod
    def _first(patterns: tuple[re.Pattern, ...], text: str) -> str | None:
        for pattern in patterns:
            match = pattern.search(text)
            if match:
                value = match.group("v").strip()
                if value:
                    return value
        return None

    def registrant_accuracy(self, records) -> float:
        """Fraction of labeled records whose registrant name is recovered.

        Mirrors the paper's §2.3 methodology: filter to records that *have*
        a registrant name line, then check the extracted name matches the
        ground truth.
        """
        checked = correct = 0
        for record in records:
            gold = None
            for line in record.lines:
                if line.block == "registrant" and line.sub == "name":
                    gold = line.text
                    break
            if gold is None:
                continue
            checked += 1
            got = self.parse_simple(record.text).registrant_name
            if got and got.lower().strip() in gold.lower():
                correct += 1
        return correct / checked if checked else 0.0
