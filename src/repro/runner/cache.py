"""On-disk result cache for campaign runs.

Each record is stored as one small JSON file whose name is the SHA-256
digest of the run's stable cache key (the key already includes
:data:`repro.runner.spec.CACHE_SCHEMA_VERSION`, so format changes
invalidate old entries automatically).  Two record kinds share the
store: full :class:`RunRecord`s (``get``/``put``) and
:class:`ReducedRecord`s (``get_reduced``/``put_reduced``), whose keys
mix in the reducer fingerprint so the two spaces cannot collide.  Files
are sharded into 256 two-hex-digit subdirectories to keep directories
small for large campaigns.

Serialisation is *strict*: a record whose payload is not exactly
representable in JSON (sets, Fractions, NaN, non-string dict keys, ...)
is rejected at ``put`` time with :class:`TypeError` rather than silently
stringified — a lossy write would make a cache round-trip change value
types and break the serial-vs-cached byte-identity guarantee.

Storage is pluggable (:mod:`repro.runner.store`): the default
:class:`~repro.runner.store.LocalDirStore` keeps today's single-machine
layout and write behaviour; pass a
:class:`~repro.runner.store.SharedStore` to put the cache on a
filesystem shared by a distributed worker fleet.  Writes are atomic
either way, so concurrent campaigns (or workers on other machines)
never observe half-written entries.

Reads are *crash-safe*: any entry that cannot be read back — truncated
file, invalid JSON, a payload the record classes reject — is treated as
a cache miss (with a warning naming the entry) so the run is simply
re-executed and the entry rewritten.  Raising instead would let one
corrupted shard entry sink a whole campaign, and a distributed fleet
must tolerate entries half-destroyed by a crashed writer's filesystem.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.runner.records import RunRecord
from repro.runner.reduce import ReducedRecord
from repro.runner.store import CacheStore, LocalDirStore

logger = logging.getLogger(__name__)


def encode_record_payload(key: str, payload: Dict[str, object]) -> str:
    """Strictly JSON-encode ``payload``, refusing anything lossy.

    ``json.dumps`` with ``default=str`` would silently stringify
    non-JSON cell values; instead we fail loudly at write time and also
    reject non-string dict keys (which JSON would coerce to strings,
    changing the type on the way back out).
    """
    _reject_non_string_keys(key, payload)
    try:
        return json.dumps(payload, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"cache refuses non-JSON-able record under key {key!r}: {exc}"
        ) from None


def _reject_non_string_keys(key: str, value: object) -> None:
    if isinstance(value, dict):
        for sub_key, sub_value in value.items():
            if not isinstance(sub_key, str):
                raise TypeError(
                    f"cache refuses non-JSON-able record under key {key!r}: "
                    f"dict key {sub_key!r} is not a string (JSON would "
                    f"stringify it, changing its type on read-back)"
                )
            _reject_non_string_keys(key, sub_value)
    elif isinstance(value, tuple):
        # json.dumps would serialise a tuple as an array, which reads
        # back as a list — a type change the strict mode must refuse.
        raise TypeError(
            f"cache refuses non-JSON-able record under key {key!r}: "
            f"tuple {value!r} would read back as a list"
        )
    elif isinstance(value, list):
        for item in value:
            _reject_non_string_keys(key, item)


class ResultCache:
    """A content-addressed store of run records.

    ``root`` wraps a plain directory in the historical
    :class:`LocalDirStore`; pass ``store=`` instead to run the cache on
    any other :class:`CacheStore` (e.g. a :class:`SharedStore` for a
    distributed fleet).
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        store: Optional[CacheStore] = None,
    ) -> None:
        if (root is None) == (store is None):
            raise ValueError("ResultCache needs exactly one of root= or store=")
        self.store: CacheStore = store if store is not None else LocalDirStore(root)
        #: Optional observability hook fired once per corrupt entry
        #: (the fleet wires it to ``repro_cache_corrupt_total``); hook
        #: errors are swallowed — metrics must never break a cache read.
        self.on_corrupt: Optional[Callable[[], None]] = None

    @property
    def root(self) -> Optional[Path]:
        """The backing directory, for filesystem-backed stores."""
        return getattr(self.store, "root", None)

    @staticmethod
    def relpath_for(key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return f"{digest[:2]}/{digest}.json"

    def path_for(self, key: str) -> Path:
        """Absolute entry path (filesystem-backed stores only)."""
        root = self.root
        if root is None:
            raise TypeError(f"store {self.store!r} has no filesystem paths")
        return root / Path(self.relpath_for(key))

    # -- raw payload plumbing --------------------------------------------------
    def _read(self, key: str) -> Optional[Dict[str, object]]:
        text = self.store.read_text(self.relpath_for(key))
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._warn_corrupt(key, "invalid JSON")
            return None
        if not isinstance(payload, dict):
            self._warn_corrupt(key, f"expected a JSON object, got {type(payload).__name__}")
            return None
        return payload

    def _decode(self, key: str, payload: Optional[Dict[str, object]], decoder):
        """Decode a payload, demoting any malformed entry to a miss.

        Hits and misses are counted once, by the runner that asked
        (:class:`~repro.runner.records.RunnerStats`), not here.
        """
        if payload is None:
            return None
        try:
            return decoder(payload)
        except Exception as exc:
            self._warn_corrupt(key, f"{type(exc).__name__}: {exc}")
            return None

    def _warn_corrupt(self, key: str, reason: str) -> None:
        """A corrupted/truncated entry is a miss, not an error: warn, drop
        the entry so it cannot mask future writes, and let the caller
        requeue the run."""
        logger.warning(
            "cache entry for key %s is corrupt (%s); treating as a miss and "
            "requeuing the run", key, reason,
        )
        if self.on_corrupt is not None:
            try:
                self.on_corrupt()
            except Exception:  # pragma: no cover - defensive
                logger.debug("on_corrupt hook failed", exc_info=True)
        self.store.delete(self.relpath_for(key))

    def _write(self, key: str, payload: Dict[str, object]) -> None:
        # Encode before touching the store: a rejected record must
        # leave no trace (not even a temp file).
        self.store.write_text(self.relpath_for(key), encode_record_payload(key, payload))

    # -- full run records ------------------------------------------------------
    def get(self, key: str) -> Optional[RunRecord]:
        return self._decode(key, self._read(key), RunRecord.from_dict)

    def put(self, key: str, record: RunRecord) -> None:
        self._write(key, record.as_dict())

    # -- reduced records -------------------------------------------------------
    def get_reduced(self, key: str) -> Optional[ReducedRecord]:
        return self._decode(key, self._read(key), ReducedRecord.from_dict)

    def put_reduced(self, key: str, record: ReducedRecord) -> None:
        self._write(key, record.as_dict())

    def __len__(self) -> int:
        return len(self.store.list("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for relpath in self.store.list("*/*.json"):
            if self.store.delete(relpath):
                removed += 1
        return removed
