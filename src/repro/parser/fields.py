"""Post-processing labeled lines into structured fields.

Once the CRFs (or a baseline parser) have labeled every line, this module
turns the labels into the record a downstream consumer wants: the
registrar, the dates, the name servers, and the registrant contact -- the
"database of the fields extracted by the parser" that Section 6 builds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from functools import lru_cache

from repro.whois.text import split_title_value

_MONTHS = {m: i + 1 for i, m in enumerate(
    ("jan", "feb", "mar", "apr", "may", "jun",
     "jul", "aug", "sep", "oct", "nov", "dec"))}

_DATE_PATTERNS = (
    # 2014-03-05 / 2014/03/05 / 2014.03.05 (optionally with time / T suffix)
    re.compile(r"(?P<y>\d{4})[-/.](?P<m>\d{1,2})[-/.](?P<d>\d{1,2})"),
    # 05-Mar-2014 / 05 Mar 2014 / 05.mar.2014
    re.compile(r"(?P<d>\d{1,2})[-. ](?P<mon>[a-z]{3})[a-z]*[-. ](?P<y>\d{4})",
               re.IGNORECASE),
    # Mar 5, 2014 / March 5, 2014
    re.compile(r"(?P<mon>[a-z]{3})[a-z]*\.? (?P<d>\d{1,2}),? (?P<y>\d{4})",
               re.IGNORECASE),
    # 03/05/2014 (US order)
    re.compile(r"(?P<m>\d{1,2})/(?P<d>\d{1,2})/(?P<y>\d{4})"),
)

#: Entries kept by each per-line memo below.  Assembling a warm
#: 500-record pool needs about 4,800 distinct values and a 300-record
#: survey round adds about 2,200, so 8,192 keeps the hot lines while a
#: long survey's old lines age out instead of staying alive for the
#: life of the process (an unbounded memo grows with every round, and
#: the collector walks every entry of it on each full collection).
MEMO_SIZE = 8192


@lru_cache(maxsize=MEMO_SIZE)
def parse_whois_date(text: str) -> date | None:
    """Best-effort parse of the date formats seen across registrars."""
    for pattern in _DATE_PATTERNS:
        match = pattern.search(text)
        if not match:
            continue
        groups = match.groupdict()
        year = int(groups["y"])
        if "mon" in groups and groups.get("mon"):
            month = _MONTHS.get(groups["mon"][:3].lower())
            if month is None:
                continue
        else:
            month = int(groups["m"])
        day = int(groups["d"])
        try:
            return date(year, month, day)
        except ValueError:
            continue
    return None


_DOMAIN_RE = re.compile(r"(?<![\w.-])([a-z0-9-]+\.)+[a-z]{2,6}(?![\w-])",
                        re.IGNORECASE)
_NS_TITLE = re.compile(r"(name\s*server|nserver|nameserver|domain server|host)",
                       re.IGNORECASE)
_CREATED = re.compile(r"creat|registered|registration date", re.IGNORECASE)
_EXPIRES = re.compile(r"expir|renewal", re.IGNORECASE)
_UPDATED = re.compile(r"updat|modif|changed", re.IGNORECASE)
_REGISTRAR_TITLE = re.compile(
    r"^(sponsoring )?registrar( name| of record)?$|^maintained by$|^source$"
    r"|^registration service provided by$",
    re.IGNORECASE,
)
_STATUS = re.compile(r"status", re.IGNORECASE)


@dataclass
class ParsedRecord:
    """Structured output of parsing one thick WHOIS record."""

    domain: str | None = None
    registrar: str | None = None
    created: date | None = None
    updated: date | None = None
    expires: date | None = None
    statuses: list[str] = field(default_factory=list)
    name_servers: list[str] = field(default_factory=list)
    registrant: dict[str, str] = field(default_factory=dict)
    #: every line grouped by its first-level block label
    blocks: dict[str, list[str]] = field(default_factory=dict)
    #: generic sub-field extraction for non-WHOIS domains (a syslog
    #: record's time/host/src/...); WHOIS assembly leaves it empty
    fields: dict[str, str] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        """A JSON-serializable view (dates as ISO strings).

        The one wire shape shared by ``repro parse`` output and the
        serving tier's ``/parse`` endpoint.  ``fields`` only appears
        when a non-WHOIS assembler filled it, so the WHOIS wire shape
        is byte-identical to what it was before domains were pluggable.
        """
        payload = {
            "domain": self.domain,
            "registrar": self.registrar,
            "created": self.created.isoformat() if self.created else None,
            "updated": self.updated.isoformat() if self.updated else None,
            "expires": self.expires.isoformat() if self.expires else None,
            "statuses": self.statuses,
            "name_servers": self.name_servers,
            "registrant": self.registrant,
        }
        if self.fields:
            payload["fields"] = self.fields
        return payload

    @property
    def registrant_name(self) -> str | None:
        """Registrant person name, when extracted."""
        return self.registrant.get("name")

    @property
    def registrant_org(self) -> str | None:
        """Registrant organization, when extracted."""
        return self.registrant.get("org")

    @property
    def registrant_country(self) -> str | None:
        """Registrant country as printed, when extracted."""
        return self.registrant.get("country")


_BRACKET_TITLE = re.compile(r"^\s*\[([^\]]+)\]\s*(.*)$")


@lru_cache(maxsize=MEMO_SIZE)
def value_of(line: str) -> str:
    """The value part of a line (text after the separator, or the line)."""
    split = split_title_value(line)
    if split is not None:
        text = split[1]
    else:
        bracket = _BRACKET_TITLE.match(line)  # "[Country]   Japan" style
        text = bracket.group(2) if bracket else line
    return text.strip().strip(".").strip()


@lru_cache(maxsize=MEMO_SIZE)
def title_of(line: str) -> str:
    """The normalized lowercase field title of a line ("" if none)."""
    split = split_title_value(line)
    if split is None:
        bracket = _BRACKET_TITLE.match(line)
        if bracket:
            return " ".join(bracket.group(1).split()).strip().lower()
        return ""
    return " ".join(split[0].split()).strip().lower()


def assemble_record(
    lines: list[str],
    block_labels: list[str],
    registrant_subs: list[str] | None = None,
) -> ParsedRecord:
    """Build a :class:`ParsedRecord` from per-line labels.

    ``registrant_subs`` gives the second-level label for each line whose
    block label is ``registrant`` (in order); without it the registrant
    dict is left empty.
    """
    if len(lines) != len(block_labels):
        raise ValueError("lines and block_labels differ in length")
    record = ParsedRecord()
    sub_iter = iter(registrant_subs or [])
    for line, label in zip(lines, block_labels):
        record.blocks.setdefault(label, []).append(line)
        if label == "domain":
            _digest_domain_line(record, line)
        elif label == "date":
            _digest_date_line(record, line)
        elif label == "registrar":
            _digest_registrar_line(record, line)
        elif label == "registrant" and registrant_subs is not None:
            sub = next(sub_iter, "other")
            _digest_registrant_line(record, line, sub)
    if record.domain is None:
        _fallback_domain(record)
    return record


_NS_PREFIX = re.compile(r"^(ns|dns)\d+\.", re.IGNORECASE)


def _fallback_domain(record: ParsedRecord) -> None:
    """Free-form records may only mention the domain in prose or NS names."""
    for line in record.blocks.get("registrar", []):
        match = _DOMAIN_RE.search(line)
        if match:
            candidate = match.group(0).lower()
            if not candidate.startswith(("ns", "dns", "whois.", "www.")):
                record.domain = candidate
                return
    for server in record.name_servers:
        stripped = _NS_PREFIX.sub("", server)
        if stripped != server and "." in stripped:
            record.domain = stripped
            return


def _digest_domain_line(record: ParsedRecord, line: str) -> None:
    title = title_of(line)
    value = value_of(line)
    text = value or line.strip()
    # "Name:" identifies the domain here because the line already sits in a
    # domain-labeled block (banner-sectioned templates title it that way).
    if record.domain is None and ("domain" in title or title == "name"
                                  or not title):
        match = _DOMAIN_RE.search(text)
        if match and not _NS_TITLE.search(title):
            candidate = match.group(0).lower()
            if not candidate.startswith(("ns", "dns")):
                record.domain = candidate
    if _NS_TITLE.search(title) or (not title and _looks_like_ns(text)):
        for match in _DOMAIN_RE.finditer(text):
            record.name_servers.append(match.group(0).lower())
    elif _STATUS.search(title) and value:
        record.statuses.append(value)


def _looks_like_ns(text: str) -> bool:
    token = text.strip().lower()
    return bool(_DOMAIN_RE.fullmatch(token)) and token.startswith(
        ("ns", "dns", "a.", "b.")
    )


def _digest_date_line(record: ParsedRecord, line: str) -> None:
    parsed = parse_whois_date(line)
    if parsed is None:
        return
    title = title_of(line) or line.lower()
    if _EXPIRES.search(title):
        record.expires = record.expires or parsed
    elif _UPDATED.search(title):
        record.updated = record.updated or parsed
    elif _CREATED.search(title):
        record.created = record.created or parsed


_REGISTERED_VIA = re.compile(
    r"registered (?:through|by|with)\s+(?P<v>.+?)\s*$", re.IGNORECASE
)


def _digest_registrar_line(record: ParsedRecord, line: str) -> None:
    if record.registrar is not None:
        return
    title = title_of(line)
    value = value_of(line)
    # "Name:" is registrar-identifying here because the line already sits
    # inside a registrar-labeled block (e.g. a SPONSORING REGISTRAR banner).
    if (_REGISTRAR_TITLE.match(title) or title == "name") and value:
        record.registrar = value
        return
    if not title:
        match = _REGISTERED_VIA.search(line)
        if match:
            record.registrar = match.group("v").rstrip(".")


def _digest_registrant_line(record: ParsedRecord, line: str, sub: str) -> None:
    if sub == "other":
        return
    value = value_of(line)
    if not value:
        return
    if sub in record.registrant:
        if sub == "street":  # multi-line addresses concatenate
            record.registrant[sub] += ", " + value
        return
    record.registrant[sub] = value
