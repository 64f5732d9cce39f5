"""repro — a reproduction of "Who is .com? Learning to Parse WHOIS Records".

The package is organized as::

    repro.crf      linear-chain CRF engine (from scratch, numpy)
    repro.whois    WHOIS record model and the paper's text featurization
    repro.parser   statistical two-level parser + baseline parsers
    repro.datagen  synthetic WHOIS corpus substrate (registrars, schemas, zone)
    repro.netsim   WHOIS protocol simulation and the crawler
    repro.survey   Section 6 registration survey analyses
    repro.eval     metrics, cross-validation, per-figure experiment drivers

The most common entry points are re-exported here.
"""

from repro.crf import ChainCRF

__version__ = "1.0.0"

__all__ = [
    "ChainCRF",
    "CorpusGenerator",
    "WhoisParser",
    "__version__",
]


def __getattr__(name: str):
    # Convenience lazy re-exports; the heavy subpackages only import when
    # actually used.
    if name == "WhoisParser":
        from repro.parser import WhoisParser

        return WhoisParser
    if name == "CorpusGenerator":
        from repro.datagen import CorpusGenerator

        return CorpusGenerator
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
