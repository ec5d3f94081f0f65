"""Content-addressed on-disk store for compiled-module artifacts.

:class:`~repro.live.compiler_live.LiveCompiler` caches compiled modules
in memory keyed by :class:`~repro.codegen.build.ModuleKey` — the exact
conditions under which a compiled module is reusable.  This store
persists those artifacts at the key's ``digest`` so they outlive the
process: a warm server restart, or a second session compiling the same
design, loads the generated code from disk instead of running codegen.

A :class:`CompiledModule` holds three exec'd function objects that
cannot be pickled; everything else (including the generated Python
``source``) can.  ``save`` pickles the picklable fields; ``load``
unpickles them and re-``exec``'s the stored source — the cheap half of
compilation (the expensive half, IR scheduling + code generation, is
what the store skips).

Files are sealed (:func:`repro.live.checkpoint.write_sealed`): written
atomically, so concurrent sessions — or a crash mid-write — can never
publish a torn artifact, under a header line whose schema, kind,
length and sha256 :func:`~repro.live.checkpoint.read_sealed` checks
before a byte is unpickled, so a damaged file is never served.  The
store is a cache: every failure path (a file the header check refuses,
full disk) degrades to a miss, counted as a store error, and the
compiler recompiles.  The digest folds in
:data:`~repro.codegen.build.STORE_FORMAT`, so a directory written under
another format is never addressed: a cold cache, not an error.

Counters: ``compile.store_hits`` / ``compile.store_misses`` /
``compile.store_writes`` / ``compile.store_errors``.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from typing import Optional, Tuple

from .. import obs
from ..codegen.build import ModuleKey
from ..codegen.module import CompiledModule, entry_points, exec_source
from ..hdl.errors import SimulationError
from ..live.checkpoint import read_sealed, write_sealed

# CompiledModule fields persisted to disk — everything except the
# three function objects, which are rebuilt from ``source`` on load.
_PICKLED_FIELDS = tuple(
    f.name for f in dataclasses.fields(CompiledModule)
    if not f.name.endswith("_fn")
)


class ArtifactStore:
    """Hash-keyed directory of pickled compile artifacts."""

    def __init__(self, root: str):
        self.root = root

    # -- paths ---------------------------------------------------------------

    def path_for(self, cache_key: ModuleKey) -> str:
        digest = cache_key.digest
        return os.path.join(self.root, digest[:2], digest + ".pkl")

    # -- read-through --------------------------------------------------------

    def load(
        self, cache_key: ModuleKey, sanitize_runtime=None
    ) -> Optional[CompiledModule]:
        """Rehydrate the artifact for ``cache_key`` or None on a miss.

        ``sanitize_runtime`` must be the session's
        :class:`repro.sanitize.SanitizerRuntime` when loading an
        instrumented artifact — the stored source calls ``_san`` hooks.
        """
        path = self.path_for(cache_key)
        try:
            body = read_sealed(path, "artifact")
        except FileNotFoundError:
            obs.incr("compile.store_misses")
            return None
        except (OSError, SimulationError) as exc:
            obs.incr("compile.store_errors")
            obs.incr("compile.store_misses")
            _note_error(f"load {path}: {exc}")
            return None
        module = self._rehydrate(
            cache_key, pickle.loads(body), sanitize_runtime  # noqa: S301
        )
        if module is None:
            obs.incr("compile.store_misses")
            return None
        obs.incr("compile.store_hits")
        return module

    def _rehydrate(
        self, cache_key: ModuleKey, payload: dict, sanitize_runtime=None
    ) -> Optional[CompiledModule]:
        if payload["cache_key"] != cache_key:
            # Digest collision or a file copied to another address;
            # never serve it.
            obs.incr("compile.store_errors")
            return None
        fields = payload["fields"]
        if cache_key.build.sanitize and sanitize_runtime is None:
            # An instrumented artifact without a runtime to bind would
            # crash at eval time; treat as a miss and recompile.
            obs.incr("compile.store_errors")
            _note_error(
                f"rehydrate {fields.get('key')}: sanitized artifact "
                "loaded without a sanitize_runtime"
            )
            return None
        # The source is the text that compiled when it was saved.
        return CompiledModule(
            **entry_points(exec_source(
                fields["source"], cache_key.filename, cache_key.build,
                sanitize_runtime,
            )),
            **fields,
        )

    # -- write-behind --------------------------------------------------------

    def save(self, cache_key: ModuleKey, module: CompiledModule) -> bool:
        """Persist one artifact; returns False (and counts an error)
        when the write fails — the store never breaks a compile."""
        path = self.path_for(cache_key)
        payload = {
            "cache_key": cache_key,
            "fields": {
                name: getattr(module, name) for name in _PICKLED_FIELDS
            },
        }
        try:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_sealed(path, "artifact", body)
        except (OSError, pickle.PicklingError, TypeError) as exc:
            obs.incr("compile.store_errors")
            _note_error(f"save {path}: {exc}")
            return False
        obs.incr("compile.store_writes")
        return True

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._artifact_paths())

    def total_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self._artifact_paths())

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        for path in self._artifact_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def _artifact_paths(self) -> Tuple[str, ...]:
        paths = []
        if not os.path.isdir(self.root):
            return ()
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".pkl") and not name.startswith(".tmp-"):
                    paths.append(os.path.join(shard_dir, name))
        return tuple(paths)


def _note_error(message: str) -> None:
    """Last-error breadcrumb for debugging without a logging setup."""
    _note_error.last = message  # type: ignore[attr-defined]


_note_error.last = ""  # type: ignore[attr-defined]
