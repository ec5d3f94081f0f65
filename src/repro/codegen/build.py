"""The build flavour, the compiled-module address and the derived cache.

:class:`BuildConfig` names *how* a design is compiled; :class:`ModuleKey`
decides *when a compiled module is reusable*.  The in-memory cache keys
on the ``ModuleKey`` itself, the artifact store on its ``digest`` and
``linecache`` on its ``filename`` — nothing else derives any of the
three.  :class:`DerivedCache` is where a design session keeps every
per-module derived result: elaborated IR, value facts, pass results,
findings and compiled modules.
"""

from __future__ import annotations

import hashlib
import json
import linecache
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple,
)

from .. import obs

OPT_LEVELS = ("none", "basic", "full")
MUX_STYLES = ("branch", "select")

# Folded into every digest, so bumping it (whenever the pickled payload
# or the CompiledModule field set changes) turns an old store directory
# into a cold cache: its artifacts are never addressed again.
STORE_FORMAT = "repro.store/v12"


@dataclass(frozen=True)
class BuildConfig:
    """One design point of the code generator.

    ``san_elide`` only matters under ``sanitize``: check elision by
    width and the inline fast paths (:mod:`repro.sanitize.instrument`).
    """

    mux_style: str = "branch"
    sanitize: bool = False
    opt: str = "none"
    san_elide: bool = True

    def __post_init__(self) -> None:
        if self.opt not in OPT_LEVELS:
            raise ValueError(
                f"unknown opt level {self.opt!r} (know {OPT_LEVELS})"
            )
        if self.mux_style not in MUX_STYLES:
            raise ValueError(
                f"unknown mux_style {self.mux_style!r} (know {MUX_STYLES})"
            )


@dataclass(frozen=True)
class ModuleKey:
    """The exact conditions under which a compiled module is reusable.

    ``fingerprint`` is the module's own token fingerprint and
    ``child_fps`` its children's comb signatures (tagged ``+pure``
    where the parent's code skips a pure subtree).  No value fact
    joins the key: none changes what generated code computes, in any
    flavour.
    """

    spec: str
    fingerprint: str = ""
    child_fps: Tuple[str, ...] = ()
    build: BuildConfig = BuildConfig()

    @cached_property
    def digest(self) -> str:
        canonical = json.dumps([
            STORE_FORMAT, self.spec, self.fingerprint, self.child_fps,
            astuple(self.build),
        ])
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def filename(self) -> str:
        """The ``linecache`` name of this module's generated source."""
        return f"<lhdl:{self.spec}@{self.digest[:16]}>"

    def miss_reason(self, latest: Optional["ModuleKey"]) -> str:
        """Why this key missed, given the bucket's most recent key: the
        first component that differs (``cold``: nothing to compare)."""
        if latest is None:
            return "cold"
        if self.fingerprint != latest.fingerprint:
            return "fingerprint"
        return "child_fps"


# Entries kept per (kind, spec, build): the most recently *used* ones.
# A revert goes back exactly one generation, and a hit refreshes it.
CACHE_GENERATIONS = 4


class DerivedCache:
    """Every per-module derived result of one design session.

    One ``kind`` per producer (``elaborate``, ``compile``, ``analyze``,
    ``passes.<name>``) is at once the counter prefix
    (``<kind>.cache_hits`` / ``cache_misses`` / ``cache_evicted``) and,
    with the spec and — for results that differ per flavour — the
    :class:`BuildConfig`, the bucket the bound applies to.

    Inside :meth:`recording` the cache lists every outermost lookup (one
    not made by another lookup's ``compute``) with the value it
    returned: a *trail*.  :meth:`replay` repeats a trail as the hits it
    would be now, so a result built from those values can be handed out
    again without making the lookups, with the buckets, counters and
    reports as if it had made them (LiveCompiler's and the analyzer's
    design reuse).
    """

    def __init__(self) -> None:
        # (kind, spec, build) -> {key: value}, least recently used first.
        self._buckets: Dict[tuple, Dict[Hashable, Any]] = {}
        self._sizes: Dict[str, int] = {}  # kind -> entries held
        self._computing = 0  # lookups whose compute is running
        self._trail: Optional[Trail] = None

    def lookup(
        self,
        kind: str,
        spec: str,
        key: Hashable,
        compute: Callable[[], Any],
        build: Optional[BuildConfig] = None,
        report: Any = None,
    ) -> Any:
        """The value cached under ``key``, else ``compute()``, stored.

        ``report`` (duck-typed ``note(kind, spec, hit)``) learns which
        specs were reused and which computed.
        """
        bucket = self._buckets.setdefault((kind, spec, build), {})
        hit = key in bucket
        if hit:
            value = bucket.pop(key)
            bucket[key] = value  # most recently used last
        else:
            self._computing += 1
            try:
                value = compute()
            finally:
                self._computing -= 1
            self._store(kind, bucket, key, value)
        obs.incr(f"{kind}.cache_hits" if hit else f"{kind}.cache_misses")
        if report is not None:
            report.note(kind, spec, hit)
        if self._trail is not None and not self._computing:
            self._trail.add(bucket, kind, spec, key, value,
                            report is not None)
        return value

    def _store(self, kind: str, bucket: Dict[Hashable, Any],
               key: Hashable, value: Any) -> None:
        """Hold ``value`` as the most recently used entry of ``bucket``
        (in place of any under ``key``), evicting the least recently
        used past the bound."""
        if key in bucket:
            del bucket[key]
        else:
            self._sizes[kind] = self._sizes.get(kind, 0) + 1
        bucket[key] = value
        if len(bucket) > CACHE_GENERATIONS:
            stale = next(iter(bucket))
            del bucket[stale]
            self._sizes[kind] -= 1
            if isinstance(stale, ModuleKey):
                linecache.cache.pop(stale.filename, None)
            obs.incr(f"{kind}.cache_evicted")

    def recall(self, kind: str, spec: str, key: Hashable,
               build: Optional[BuildConfig] = None) -> Any:
        """The value held under ``key`` (refreshed as the most recently
        used), or None; a miss computes nothing and counts nothing."""
        bucket = self._buckets.get((kind, spec, build))
        if bucket is None or key not in bucket:
            return None
        value = bucket[key] = bucket.pop(key)
        return value

    def hold(self, kind: str, spec: str, key: Hashable, value: Any,
             build: Optional[BuildConfig] = None) -> None:
        """Hold ``value`` under ``key``, in place of any value there,
        bounded as :meth:`lookup`'s results are."""
        self._store(kind, self._buckets.setdefault((kind, spec, build), {}),
                    key, value)

    @contextmanager
    def recording(self) -> Iterator["Trail"]:
        """The trail of the lookups made inside the block (it also joins
        any recording around this one)."""
        outer, self._trail = self._trail, Trail()
        try:
            yield self._trail
        finally:
            trail, self._trail = self._trail, outer
            if outer is not None:
                outer.join(trail)

    def replay(self, trail: "Trail", report: Any = None) -> bool:
        """Make the lookups of ``trail`` again as hits: each entry
        refreshed, counted and noted to ``report`` as :meth:`lookup`
        would, and True.  When an entry is gone or holds another value
        than the trail's (so the lookups would not all hit, or not
        return what the trail's result was built from), nothing happens
        and the answer is False."""
        entries = trail.entries
        for bucket, key, value in entries:
            if bucket.get(key, _GONE) is not value:
                return False
        for bucket, key, value in entries:
            del bucket[key]
            bucket[key] = value
        for kind, count in trail.hits.items():
            obs.incr(f"{kind}.cache_hits", count)
        if report is not None:
            for kind, spec in trail.notes:
                report.note(kind, spec, True)
        if self._trail is not None:
            self._trail.join(trail)
        return True

    def latest(self, kind: str, spec: str,
               build: Optional[BuildConfig] = None) -> Optional[Hashable]:
        """The most recently used key of a bucket (None when empty)."""
        return next(reversed(self._buckets.get((kind, spec, build), {})), None)

    def recent(self, kind: str, spec: str,
               build: Optional[BuildConfig] = None) -> List[Any]:
        """The values of a bucket, most recently used first."""
        return list(reversed(
            self._buckets.get((kind, spec, build), {}).values()))

    def size(self, kind: str) -> int:
        """Entries held of ``kind`` (``len(entries(kind))``, counted as
        they come and go rather than walked)."""
        return self._sizes.get(kind, 0)

    def entries(self, kind: str) -> Dict[Hashable, Any]:
        """key -> value over every bucket of ``kind``."""
        return {
            key: value
            for (bucket_kind, _, _), bucket in self._buckets.items()
            if bucket_kind == kind
            for key, value in bucket.items()
        }


_GONE = object()  # what no cached value is


class Trail:
    """The outermost lookups of one :meth:`DerivedCache.recording`:
    ``(bucket, key, value)`` each, the count per kind and the
    ``(kind, spec)`` of those made with a report, in order."""

    __slots__ = ("entries", "hits", "notes")

    def __init__(self) -> None:
        self.entries: List[Tuple[Dict[Hashable, Any], Hashable, Any]] = []
        self.hits: Dict[str, int] = {}
        self.notes: List[Tuple[str, str]] = []

    def add(self, bucket: Dict[Hashable, Any], kind: str, spec: str,
            key: Hashable, value: Any, noted: bool) -> None:
        self.entries.append((bucket, key, value))
        self.hits[kind] = self.hits.get(kind, 0) + 1
        if noted:
            self.notes.append((kind, spec))

    def join(self, other: "Trail") -> None:
        self.entries += other.entries
        for kind, count in other.hits.items():
            self.hits[kind] = self.hits.get(kind, 0) + count
        self.notes += other.notes
