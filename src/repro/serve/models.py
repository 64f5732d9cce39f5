"""Versioned parser snapshots with atomic hot-swap and rollback.

Section 5.3's maintainability story is a model that *keeps training*:
when a registrar ships a new format, a handful of labeled records and a
``partial_fit`` produce an adapted parser.  Online, that adapted model
has to roll out without dropping the traffic the old one is serving.
:class:`ModelRegistry` provides the mechanism:

- :meth:`publish` snapshots a :class:`~repro.parser.WhoisParser` as a
  numbered version (``v0001``, ``v0002``, ...), persisted under the
  registry root via ``WhoisParser.save`` when a root is configured;
- :meth:`activate` swaps which version is *current*.  The swap is one
  attribute assignment -- atomic under both the event loop and the
  executor threads running batches -- and the micro-batcher resolves
  the current parser at batch-execution time, so in-flight batches
  finish on the old model while the next batch picks up the new one.
  Zero requests are dropped by a swap (asserted under sustained load in
  ``benchmarks/bench_serving.py``);
- :meth:`rollback` re-activates the previously-active version, the
  escape hatch when a freshly adapted model misbehaves in production.

On disk a registry root holds one subdirectory per version plus an
``ACTIVE`` pointer file, so a restarted server resumes serving the same
version.  A plain ``repro train`` output directory (a bare
``WhoisParser.save``) is also accepted and wrapped as v0001; versions
published onto it afterwards (e.g. by ``repro maintain`` retraining in
place) persist as ``v000N`` subdirectories next to the bare files, so
the upgrade to a full registry is seamless.
"""

from __future__ import annotations

from pathlib import Path

from repro import errors, obs
from repro.parser.statistical import WhoisParser

__all__ = ["ModelRegistry"]

_ACTIVE_FILE = "ACTIVE"
_ENCODER_CACHE_FILE = "encoder_cache.npz"


class ModelRegistry:
    """Versioned :class:`WhoisParser` snapshots, one of them active.

    With ``root=None`` the registry is purely in-memory (tests, demos);
    with a directory, every publish persists and activation survives
    restarts.

    Disk-backed versions load with ``mmap=True`` by default: weights are
    memory-mapped read-only from the raw ``.npy`` snapshots, so
    activating a new version is an mmap plus one pointer flip -- no
    decompression, no private copy -- and every worker process mapping
    the same snapshot shares one physical copy.  Superseded versions'
    cached parsers are evicted on activation (keeping only the active
    version and the rollback target), releasing their mappings instead
    of accumulating one per swap.

    Each version directory may also carry an ``encoder_cache.npz``
    (written by :meth:`persist_encoder_cache`, e.g. at server shutdown):
    loading that version then warm-starts its line-encoder caches, so a
    restarted server hits on its first batch instead of re-encoding the
    WHOIS line distribution from scratch.  The file is one uncompressed
    NumPy archive of flat arrays (int32 ids with per-line counts, the
    indents, the headwords and the line keys as one UTF-8 blob) and
    reloads without pickle; a cache file of any other name or format,
    such as the JSON ``encoder_cache.json`` of earlier versions, is
    ignored like a stale one.
    """

    def __init__(
        self,
        root: "str | Path | None" = None,
        *,
        mmap: bool = True,
        domain: str | None = None,
    ) -> None:
        """In-memory registry; with ``root``, load and persist versions.

        ``domain`` pins the registry to one parsing domain: loading or
        publishing a snapshot trained for any other domain raises a
        typed :class:`~repro.errors.DomainMismatch` (unset, any snapshot
        is accepted -- the pre-plug-in behavior).
        """
        self.root = Path(root) if root is not None else None
        self.mmap = mmap
        self.domain = domain
        self._parsers: dict[str, WhoisParser] = {}
        self._versions: list[str] = []
        self._active: "tuple[str, WhoisParser] | None" = None
        self._history: list[str] = []  # activation order, for rollback
        if self.root is not None:
            self._scan()

    # ------------------------------------------------------------------
    # Disk layout
    # ------------------------------------------------------------------

    def _scan(self) -> None:
        """Adopt an existing on-disk registry (or bare model) if present."""
        if not self.root.exists():
            return
        bare = (self.root / "parser.json").exists()
        self._bare = bare
        self._versions = sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / "parser.json").exists()
        )
        if bare:
            # A bare `repro train` model directory: wrap it as v0001,
            # loaded lazily on first activation.  Versions published
            # *onto* a bare directory (the maintenance loop retraining a
            # plain train output in place) live in v000N subdirectories
            # alongside it, so they are also adopted here.
            self._versions = ["v0001"] + [
                v for v in self._versions if v != "v0001"
            ]
        pointer = self.root / _ACTIVE_FILE
        if pointer.exists():
            version = pointer.read_text().strip()
            if version in self._versions:
                self.activate(version)
                return
        if self._versions:
            self.activate("v0001" if bare else self._versions[-1])

    def _version_path(self, version: str) -> Path:
        if getattr(self, "_bare", False) and version == "v0001":
            return self.root
        return self.root / version

    def _load(self, version: str) -> WhoisParser:
        parser = self._parsers.get(version)
        if parser is None:
            if self.root is None:
                raise KeyError(version)
            parser = WhoisParser.load(
                self._version_path(version),
                mmap=self.mmap,
                expect_domain=self.domain,
            )
            cache_file = self._version_path(version) / _ENCODER_CACHE_FILE
            if cache_file.exists():
                loaded = parser.load_encoder_cache(cache_file)
                if loaded:
                    obs.inc("serve.encoder_cache_warm_loads")
                    obs.set_gauge(
                        "serve.encoder_cache_warm_entries", loaded
                    )
            self._parsers[version] = parser
        return parser

    # ------------------------------------------------------------------
    # Publishing and activation
    # ------------------------------------------------------------------

    def versions(self) -> list[str]:
        """Every published version id, oldest first (a copy)."""
        return list(self._versions)

    def publish(
        self,
        parser: WhoisParser,
        *,
        activate: bool = True,
    ) -> str:
        """Snapshot ``parser`` as the next version; optionally activate."""
        if self.domain is not None and parser.spec.name != self.domain:
            raise errors.DomainMismatch(
                f"cannot publish a {parser.spec.name!r} parser into a "
                f"registry configured for domain {self.domain!r}"
            )
        next_number = 1 + max(
            (int(v[1:]) for v in self._versions if v[1:].isdigit()),
            default=0,
        )
        version = f"v{next_number:04d}"
        if self.root is not None:
            parser.save(self._version_path(version))
        self._parsers[version] = parser
        self._versions.append(version)
        obs.inc("serve.model_published")
        if activate or self._active is None:
            self.activate(version)
        return version

    def activate(self, version: str) -> None:
        """Make ``version`` current.  Atomic: one reference assignment."""
        if version not in self._versions:
            raise KeyError(f"unknown model version {version!r}")
        parser = self._load(version)
        self._active = (version, parser)
        self._history.append(version)
        self._evict_stale()
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / _ACTIVE_FILE).write_text(version + "\n")
        obs.inc("serve.model_swaps")
        obs.set_gauge(
            "serve.model_version",
            int(version[1:]) if version[1:].isdigit() else -1,
        )

    def _evict_stale(self) -> None:
        """Drop cached parsers for versions that are neither active nor
        the rollback target.

        Only disk-backed registries evict (an in-memory registry cannot
        reload what it drops).  In-flight batches holding the outgoing
        parser finish safely -- eviction only releases *this* cache's
        reference; the old mapping is unmapped when the last batch
        drops its reference, which is what keeps repeated hot-swaps
        from accumulating one mmap per superseded version.
        """
        if self.root is None:
            return
        keep = set(self._history[-2:])
        for version in [v for v in self._parsers if v not in keep]:
            del self._parsers[version]

    def persist_encoder_cache(self) -> int:
        """Write the active parser's warm line-encoder caches to disk.

        The snapshot lands as ``encoder_cache.npz`` inside the active
        version's directory, fingerprinted against the vocabularies (see
        :meth:`WhoisParser.save_encoder_cache
        <repro.parser.statistical.WhoisParser.save_encoder_cache>`);
        the next load of that version starts warm.  Returns the number
        of line profiles written (0 for in-memory registries).
        """
        if self.root is None or self._active is None:
            return 0
        version, parser = self._active
        return parser.save_encoder_cache(
            self._version_path(version) / _ENCODER_CACHE_FILE
        )

    def rollback(self) -> str:
        """Re-activate the previously-active version and return it."""
        if len(self._history) < 2:
            raise errors.Unavailable("no earlier model version to roll back to")
        previous = self._history[-2]
        # Collapse the history so repeated rollbacks keep walking back.
        self._history = self._history[:-2]
        self.activate(previous)
        return previous

    # ------------------------------------------------------------------
    # The serving-side view
    # ------------------------------------------------------------------

    @property
    def has_active(self) -> bool:
        """True when some version has been activated."""
        return self._active is not None

    def current(self) -> tuple[str, WhoisParser]:
        """The active ``(version, parser)`` pair.

        Raises :class:`~repro.errors.Unavailable` when nothing has been
        published -- the server's ``/readyz`` maps this to 503.
        """
        active = self._active
        if active is None:
            raise errors.Unavailable("no model version published")
        return active

    @property
    def current_version(self) -> str:
        """Version id of the active parser (Unavailable if none)."""
        return self.current()[0]

    @property
    def current_parser(self) -> WhoisParser:
        """The active parser itself (Unavailable if none)."""
        return self.current()[1]
