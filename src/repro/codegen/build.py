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
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .. import obs

OPT_LEVELS = ("none", "full")
MUX_STYLES = ("branch", "select")

# Folded into every digest, so bumping it (whenever the pickled payload
# or the CompiledModule field set changes) turns an old store directory
# into a cold cache: its artifacts are never addressed again.  Every
# file the program persists names it in its header
# (:func:`repro.live.checkpoint.write_sealed`), so a file of another
# format is refused before it is decoded.
STORE_FORMAT = "repro.store/v25"


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

    ``fingerprint`` is the module's own token fingerprint,
    ``child_fps`` its children's comb signatures (tagged ``+pure``
    where the parent's code skips a pure subtree) and ``parts`` the
    names of the parts of its settled body its parents call besides
    ``eval_out`` (:func:`repro.codegen.callplan.part_demand`).  No value
    fact joins the key: none changes what generated code computes, in
    any flavour.
    """

    spec: str
    fingerprint: str = ""
    child_fps: Tuple[str, ...] = ()
    build: BuildConfig = BuildConfig()
    parts: Tuple[str, ...] = ()

    @cached_property
    def digest(self) -> str:
        canonical = json.dumps([
            STORE_FORMAT, self.spec, self.fingerprint, self.child_fps,
            astuple(self.build), self.parts,
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
        if self.child_fps != latest.child_fps:
            return "child_fps"
        return "parts"


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
    """

    def __init__(self) -> None:
        # (kind, spec, build) -> {key: value}, least recently used first.
        self._buckets: Dict[tuple, Dict[Hashable, Any]] = {}
        self._sizes: Dict[str, int] = {}  # kind -> entries held

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
        else:
            value = compute()
            self._sizes[kind] = self._sizes.get(kind, 0) + 1
        bucket[key] = value  # most recently used last
        if len(bucket) > CACHE_GENERATIONS:
            stale = next(iter(bucket))
            del bucket[stale]
            self._sizes[kind] -= 1
            if isinstance(stale, ModuleKey):
                linecache.cache.pop(stale.filename, None)
            obs.incr(f"{kind}.cache_evicted")
        obs.incr(f"{kind}.cache_hits" if hit else f"{kind}.cache_misses")
        if report is not None:
            report.note(kind, spec, hit)
        return value

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
