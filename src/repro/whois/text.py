"""Low-level text analysis for WHOIS lines (Section 3.3).

The paper's features are built from three kinds of signal on each line:

- a *separator* (colon, tab, or a run of dots) splitting the line into a
  field title and a field value (``Registrant Name: John Smith``);
- layout markers (``NL`` for preceding blank lines, ``SHL``/``SHR`` for
  indentation shifts, ``SYM`` for lines starting with symbols like # or %);
- word classes capturing the *shape* of text (five-digit numbers that look
  like U.S. ZIP codes, email addresses, phone numbers, URLs, dates, ...).
"""

from __future__ import annotations

import re

# A separator is the first of: a colon, a tab, or a dot-leader (two or more
# consecutive periods, as in "Created on....: 1997-01-01").  The colon form
# requires either a following space/EOL or a short title prefix, so times
# ("12:30:00") and URLs ("http://") inside values don't get split.
_DOT_LEADER = re.compile(r"\.{2,}:?")
_WORD = re.compile(r"[a-z0-9]+")
_EMAIL = re.compile(r"[\w.+-]+@[\w-]+(\.[\w-]+)+", re.UNICODE)
_URL = re.compile(r"(https?://|www\.)\S+", re.IGNORECASE)
_FIVE_DIGIT = re.compile(r"(?<!\d)\d{5}(?!\d)")
_PHONE = re.compile(r"\+?\d[\d\s().-]{6,}\d")
_DATE = re.compile(
    r"(\d{4}[-/.]\d{1,2}[-/.]\d{1,2})|(\d{1,2}[-/.]\d{1,2}[-/.]\d{4})"
    r"|(\d{1,2}-[a-z]{3}-\d{4})",
    re.IGNORECASE,
)
_IPV4 = re.compile(r"(?<!\d)(\d{1,3}\.){3}\d{1,3}(?!\d)")
_DOMAIN = re.compile(
    r"(?<![\w.-])([a-z0-9-]+\.)+(com|net|org|info|biz|io|co|us|uk|cn|jp|de|fr)"
    r"(?![\w-])",
    re.IGNORECASE,
)
_POSTCODE_ALNUM = re.compile(
    r"(?<![\w])([A-Z]{1,2}\d{1,2}[A-Z]?\s?\d[A-Z]{2}|\d{3}-\d{4})(?![\w])"
)

#: gazetteer of country spellings seen in WHOIS records, for the
#: ``CLS:country`` shape feature (a "more general class of words", eq. (7));
#: needed because some templates repeat one field title for every address
#: line and only the content identifies the country line.
_COUNTRY_GAZETTEER: frozenset[str] = frozenset({
    "united states", "united states of america", "usa", "u.s.a.",
    "china", "p.r. china", "united kingdom", "uk", "great britain",
    "germany", "deutschland", "france", "canada", "spain", "espana",
    "australia", "japan", "india", "turkey", "turkiye", "vietnam",
    "viet nam", "russia", "russian federation", "hong kong",
    "netherlands", "the netherlands", "italy", "italia", "brazil",
    "brasil", "south korea", "korea", "republic of korea", "sweden",
    "poland", "polska", "mexico", "switzerland", "denmark", "norway",
    "israel",
    # ISO alpha-2 codes are only matched against a line's *entire* value,
    # so short common words cannot collide.
    "us", "cn", "gb", "de", "fr", "ca", "es", "au", "jp", "in", "tr",
    "vn", "ru", "hk", "nl", "it", "br", "kr", "se", "pl", "mx", "ch",
    "dk", "no", "il",
})


def split_title_value(line: str) -> tuple[str, str, str] | None:
    """Split a line at its first separator into ``(title, value, separator)``.

    Returns ``None`` when no separator is found, in which case every word on
    the line is treated as a value word (suffix ``@V``).
    """
    pos, end, kind = len(line), 0, None
    tab = line.find("\t")
    if tab != -1:
        pos, end, kind = tab, tab + 1, "tab"
    if ".." in line:
        dots = _DOT_LEADER.search(line, 0, pos)
        if dots is not None:
            pos, end, kind = dots.start(), dots.end(), "dots"
    colon = _find_colon(line, pos)
    if colon is not None:
        pos, end, kind = colon, colon + 1, "colon"
    if kind is None:
        return None
    return line[:pos], line[end:], kind


def _find_colon(line: str, stop: int | None = None) -> int | None:
    """Position of the first title-delimiting colon, skipping URL/time
    colons; only colons before ``stop`` (default: anywhere) count."""
    i = line.find(":", 0, stop)
    while i != -1:
        if line.startswith("//", i + 1):
            pass  # http:// inside a value
        elif i > 0 and line[i + 1 : i + 2].isdigit() and line[i - 1].isdigit():
            pass  # 12:30:00 timestamps
        else:
            return i
        i = line.find(":", i + 1, stop)
    return None


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric words, the paper's dictionary units."""
    return _WORD.findall(text.lower())


def indentation(line: str) -> int:
    """Width of the leading whitespace (tabs count as 4 columns)."""
    width = 0
    for ch in line:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += 4
        else:
            break
    return width


def detect_symbol_start(line: str) -> bool:
    """True when the first non-space character is a symbol such as # or %."""
    stripped = line.lstrip()
    if not stripped:
        return False
    first = stripped[0]
    return not (first.isalnum() or first in "\"'([{<")


def word_classes(text: str) -> list[str]:
    """Shape features of the form in eq. (7): the classes of text present.

    Class names carry a ``CLS:`` prefix so they can never collide with
    dictionary words.  A pattern runs only when the text holds what
    every one of its matches needs (``@`` for e-mail, ``.`` for domain,
    ``.`` or ``://`` for URL, a digit for the numeric shapes, and also
    three dots for IPv4 and one of ``-/.`` for dates): a skipped pattern
    is one that could not have matched.  ``str.isdigit`` is true of
    every character ``\\d`` matches, so it is a safe test for the digit.
    """
    classes: list[str] = []
    has_digit = any(map(str.isdigit, text))
    has_dot = "." in text
    if "@" in text and _EMAIL.search(text):
        classes.append("CLS:email")
    if (has_dot or "://" in text) and _URL.search(text):
        classes.append("CLS:url")
    if has_digit:
        if _FIVE_DIGIT.search(text):
            classes.append("CLS:fivedigit")
        if (has_dot or "-" in text or "/" in text) and _DATE.search(text):
            classes.append("CLS:date")
        if has_dot and text.count(".") >= 3 and _IPV4.search(text):
            classes.append("CLS:ipv4")
        if _PHONE.search(text):
            classes.append("CLS:phone")
    if has_dot and _DOMAIN.search(text):
        classes.append("CLS:domain")
    if has_digit and _POSTCODE_ALNUM.search(text):
        classes.append("CLS:postcode")
    if text.strip().strip(".").lower() in _COUNTRY_GAZETTEER:
        classes.append("CLS:country")
    if text.isascii():
        # Every ASCII letter is cased: "has a letter, and every letter
        # is upper case" is exactly str.isupper.
        if text.isupper():
            classes.append("CLS:allcaps")
        has_letter = not has_digit and any(map(str.isalpha, text))
    else:
        letters = [ch for ch in text if ch.isalpha()]
        if letters and all(map(str.isupper, letters)):
            classes.append("CLS:allcaps")
        has_letter = bool(letters)
    if has_digit:
        classes.append("CLS:hasdigit")
    elif has_letter:
        classes.append("CLS:alpha")
    return classes
