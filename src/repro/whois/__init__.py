"""WHOIS record model and the paper's text featurization (Section 3.2-3.3)."""

from repro.whois.labels import (
    BLOCK_LABELS,
    REGISTRANT_LABELS,
    BlockLabel,
    RegistrantLabel,
)
from repro.whois.records import LabeledLine, LabeledRecord, WhoisRecord, is_labelable
from repro.whois.text import (
    detect_symbol_start,
    indentation,
    split_title_value,
    tokenize,
    word_classes,
)
from repro.whois.features import FeaturizerConfig, WhoisFeaturizer

__all__ = [
    "BLOCK_LABELS",
    "REGISTRANT_LABELS",
    "BlockLabel",
    "RegistrantLabel",
    "FeaturizerConfig",
    "LabeledLine",
    "LabeledRecord",
    "WhoisFeaturizer",
    "WhoisRecord",
    "detect_symbol_start",
    "indentation",
    "is_labelable",
    "split_title_value",
    "tokenize",
    "word_classes",
]
