"""Canonicalization of parsed WHOIS fields for the survey (Section 6).

Parsed registrant countries arrive as free text ("UNITED STATES", "U.S.A.",
"US"); registrar names vary in casing and suffixes; privacy protection is
identified "using a small set of keywords to match against registrant name
and/or organization fields" (Section 6.3); brand companies are matched
against the Table 4 list.
"""

from __future__ import annotations

import re

from repro.datagen.countries import COUNTRIES
from repro.datagen.registrars import (
    REGISTRARS,
    TAIL_REGISTRAR_COUNT,
    tail_registrar_profile,
)

#: free-text country spelling (lowercased) -> ISO code
_COUNTRY_LOOKUP: dict[str, str] = {}
for _country in COUNTRIES:
    for _spelling in _country.whois_spellings():
        _COUNTRY_LOOKUP[_spelling.lower()] = _country.code


def canonical_country(text: str | None) -> str | None:
    """ISO code for a country as spelled in a WHOIS record, or None."""
    if not text:
        return None
    cleaned = text.strip().strip(".").lower()
    if cleaned in _COUNTRY_LOOKUP:
        return _COUNTRY_LOOKUP[cleaned]
    # Compact forms like "u.s.a." or stray punctuation.
    compact = re.sub(r"[^a-z ]", "", cleaned).strip()
    return _COUNTRY_LOOKUP.get(compact)


#: registrar display names as the paper's tables print them
_REGISTRAR_DISPLAY = {
    "godaddy.com": "GoDaddy",
    "enom": "eNom",
    "network solutions": "Network Solutions",
    "1&1 internet": "1&1 Internet",
    "wild west domains": "Wild West Domains",
    "hichina": "HiChina",
    "publicdomainregistry": "Public Domain Reg.",
    "pdr ltd": "Public Domain Reg.",
    "register.com": "Register.com",
    "fastdomain": "FastDomain",
    "gmo internet": "GMO Internet",
    "xin net": "Xinnet",
    "tucows": "Tucows",
    "melbourne it": "Melbourne IT",
    "moniker": "Moniker",
    "dreamhost": "DreamHost",
    "name.com": "Name.com",
    "bizcn.com": "Bizcn.com",
    "namecheap": "NameCheap",
}


_CORPORATE_SUFFIX = re.compile(
    r",?\s*(llc|inc\.?|ltd\.?|corporation|corp\.?|ag|sas|gmbh)\.?$",
    re.IGNORECASE,
)


def _strip_suffix(name: str) -> str:
    return _CORPORATE_SUFFIX.sub("", name.strip())


#: suffix-free registrar name (lowercased) -> its spelling in the
#: generator's profiles, so the registry's upper-cased thin-record
#: spelling and the thick record's spelling name one registrar
_REGISTRAR_LOOKUP = {
    _strip_suffix(profile.name).lower(): _strip_suffix(profile.name)
    for profile in (
        *REGISTRARS,
        *map(tail_registrar_profile, range(TAIL_REGISTRAR_COUNT)),
    )
}


def canonical_registrar(name: str | None) -> str | None:
    """Short display name for a registrar, tolerant of case and suffixes."""
    if not name:
        return None
    lowered = name.lower()
    for key, display in _REGISTRAR_DISPLAY.items():
        if key in lowered:
            return display
    # Strip corporate suffixes for registrars outside the table.
    cleaned = _strip_suffix(name)
    return _REGISTRAR_LOOKUP.get(cleaned.lower(), cleaned)


#: Section 6.3 keyword list for privacy/proxy detection
_PRIVACY_KEYWORDS = (
    "privacy", "private", "proxy", "whoisguard", "protect",
    "fbo registrant", "aliyun", "muumuudomain", "happy dreamhost",
    "whois agent", "identity shield", "registration private",
)


def detect_privacy_service(
    registrant_name: str | None, registrant_org: str | None
) -> str | None:
    """The privacy service named by a protected record, else None.

    Matches keywords against the registrant name and organization; when
    protection is detected, the organization field (which carries the
    service's name, e.g. "Domains By Proxy, LLC") is returned, falling back
    to the name field.
    """
    for text in (registrant_org, registrant_name):
        if not text:
            continue
        lowered = text.lower()
        if any(keyword in lowered for keyword in _PRIVACY_KEYWORDS):
            return (registrant_org or registrant_name or "").strip()
    return None


#: EPP/RDAP liveness tokens that carry no restriction and that several
#: schema families print unconditionally ("Active", "ok"), so they say
#: nothing about whether two records agree.
_LIVENESS_STATUSES = frozenset({"ok", "active", "connect", "registered"})


def canonical_status(text: str | None) -> str | None:
    """One EPP status token, canonicalized across protocol vocabularies.

    WHOIS records spell statuses as EPP camelCase
    (``clientTransferProhibited``), sometimes with a trailing ICANN URL;
    RDAP (RFC 8056) spells the same status space-separated
    (``client transfer prohibited``).  Both collapse to one lowercase
    token with separators removed.  Pure liveness markers ("ok",
    "Active") return ``None`` -- they are rendered unconditionally by
    some registrars and carry no comparable signal.
    """
    if not text:
        return None
    # Drop trailing URLs ("clientTransferProhibited https://icann.org/...").
    head = text.strip().split()
    words = [w for w in head if "://" not in w and not w.startswith("(")]
    token = re.sub(r"[^a-z0-9]", "", "".join(words).lower())
    if not token or token in _LIVENESS_STATUSES:
        return None
    return token


def canonical_statuses(values) -> frozenset[str]:
    """The set of comparable status tokens in ``values`` (liveness dropped)."""
    return frozenset(
        token for token in (canonical_status(v) for v in values) if token
    )


def canonical_nameserver(text: str | None) -> str | None:
    """A nameserver host, case-folded with the trailing root dot removed."""
    if not text:
        return None
    host = text.strip().strip(".").lower()
    return host or None


def canonical_nameservers(values) -> frozenset[str]:
    """The set of canonical nameserver hosts in ``values``."""
    return frozenset(
        host for host in (canonical_nameserver(v) for v in values) if host
    )


_BRANDS = (
    "Amazon", "AOL", "Microsoft", "21st Century Fox", "Warner Bros.",
    "Yahoo", "Disney", "Google", "AT&T", "eBay", "Nike",
)


def detect_brand(org: str | None) -> str | None:
    """Table 4 brand company owning this registration's organization."""
    if not org:
        return None
    lowered = org.lower()
    for brand in _BRANDS:
        if brand.lower() in lowered:
            return brand
    return None
