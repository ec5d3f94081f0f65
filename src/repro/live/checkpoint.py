"""Checkpointing: capture, selection, and garbage collection (Fig. 2).

During baseline execution LiveSim takes checkpoints at regular
intervals.  On a code change it reloads the checkpoint closest to a
tunable distance (default 10 000 cycles, §III-D) before the stopping
point, replays forward, and reports the result — while older
checkpoints are re-verified in the background.

The paper forks the process so checkpoint capture stays off the
simulation's critical path, and copy-on-write makes a checkpoint cost
the pages written since the one before.  Here capture is an in-process
snapshot (deterministic and picklable — which the parallel verifier
requires) taken against the store's newest checkpoint: one immutable
record per instance (:class:`~repro.sim.stage.StateSnapshot`) that
shares with that checkpoint every register tuple, memory page
(:class:`~repro.sim.stage.MemImage`), image and whole record the
interval did not change, so a checkpoint holds what its interval
changed (:meth:`CheckpointStore.resident_bytes`), and a saved store
writes a shared object once.  A memory's writers mark the pages they
write (:class:`~repro.codegen.module.PageMarks`), so a take compares,
and a rewind copies, only the pages the interval wrote.  Capture cost
is measured and reported by the overhead bench exactly as §V-B does.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Set

from .. import obs
from ..codegen.build import STORE_FORMAT
from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe, PipeSnapshot

# A header line is shorter than this; a file whose first this many
# bytes hold no newline has no header.
_HEADER_BYTES = 256


def _header(kind: str, body: bytes) -> bytes:
    digest = hashlib.sha256(body).hexdigest()
    return f"{STORE_FORMAT} {kind} {len(body)} {digest}\n".encode("ascii")


def write_sealed(path: str, kind: str, body: bytes) -> None:
    """Replace ``path`` with ``body`` under a header line naming the
    schema (:data:`STORE_FORMAT`), ``kind``, the body's length and its
    sha256, or leave it exactly as it was: the bytes go to a temporary
    file beside it that is renamed over ``path`` only once written.

    The session journal, the artifact store and the checkpoint-store
    file (a crashed worker's recovery point) are all written this way,
    so a crash or a full disk mid-write never leaves a torn file.
    """
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".tmp-"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_header(kind, body))
            fh.write(body)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_sealed(path: str, kind: str) -> bytes:
    """The body :func:`write_sealed` wrote to ``path`` as ``kind``
    under this :data:`STORE_FORMAT`, checked against its header before
    anything decodes it.  Any other file (no header, another schema or
    kind, a body that is not the one the header describes) is a
    :class:`SimulationError` naming the path, what was expected and
    what was found."""
    with open(path, "rb") as fh:
        header = fh.readline(_HEADER_BYTES)
        body = fh.read()
    if header == _header(kind, body):
        return body
    fields = header.split()
    if len(fields) != 4 or not header.startswith(b"repro.store/"):
        found = "no header"
    elif fields[:2] != [STORE_FORMAT.encode(), kind.encode()]:
        found = b" ".join(fields[:2]).decode("ascii", "replace")
    else:
        found = "a body that is not the one its header describes"
    raise SimulationError(
        f"{path!r} is not a {STORE_FORMAT} {kind} file: found {found}"
    )


@dataclass
class Checkpoint:
    """One saved simulation state."""

    id: int
    cycle: int
    snapshot: PipeSnapshot
    version: str  # design version the state was captured under
    op_index: int  # session-history position (for replay)
    capture_seconds: float = 0.0

    def total_bytes(self) -> int:
        return self.snapshot.total_bytes()


class GCPolicy(NamedTuple):
    """Fig. 2c: keep the newest N; thin older ones to equal spacing."""

    keep_latest: int = 100
    older_budget: int = 100

    def select_victims(self, checkpoints: List[Checkpoint]) -> List[Checkpoint]:
        """Checkpoints to delete, given the store sorted by cycle."""
        if len(checkpoints) <= self.keep_latest:
            return []
        older = checkpoints[: -self.keep_latest]
        if len(older) <= self.older_budget:
            return []
        # Keep `older_budget` roughly equally spaced by cycle.  Each
        # target claims a *distinct* checkpoint: with clustered cycles
        # several targets would otherwise resolve to the same nearest
        # checkpoint and the keep set would shrink below the budget,
        # deleting more than the policy promises.
        first = older[0].cycle
        last = older[-1].cycle
        span = max(last - first, 1)
        budget = min(self.older_budget, len(older))
        remaining = list(older)
        cycles = [c.cycle for c in remaining]
        keep_ids = set()
        for i in range(budget):
            target = first + span * i / max(budget - 1, 1)
            # The nearest unclaimed checkpoint, by bisection: the last
            # cycle below the target or the first at or above it, a tie
            # to the earlier checkpoint (as a scan from the front).
            at = bisect_left(cycles, target)
            if at and (at == len(cycles)
                       or abs(cycles[at - 1] - target) <= abs(cycles[at] - target)):
                at = bisect_left(cycles, cycles[at - 1])
            keep_ids.add(remaining[at].id)
            del remaining[at], cycles[at]
        return [c for c in older if c.id not in keep_ids]


class CheckpointStore:
    """Ordered collection of checkpoints for one pipeline session.

    Mutation is guarded by a reentrant lock: the background verifier's
    collector thread invalidates post-divergence checkpoints while the
    session thread may be capturing new ones.
    """

    def __init__(
        self,
        interval: int = 10_000,
        policy: Optional[GCPolicy] = None,
        enabled: bool = True,
    ):
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.interval = interval
        self.policy = policy or GCPolicy()
        self.enabled = enabled
        self._checkpoints: List[Checkpoint] = []
        self._next_id = 0
        self._lock = threading.RLock()
        self.total_capture_seconds = 0.0
        self.total_captured = 0
        self.total_collected = 0

    # -- capture -------------------------------------------------------------

    def take(self, pipe: Pipe, version: str, op_index: int) -> Checkpoint:
        """Capture the pipe state now (the Fig. 2a 'fork & save').

        The newest checkpoint is the base: every register tuple,
        memory page and instance record the pipe has not changed since
        is shared with it, not copied (:meth:`~repro.sim.stage.StageInst.snapshot`).
        """
        with self._lock:
            checkpoints = self._checkpoints
            base = checkpoints[-1].snapshot if checkpoints else None
        with obs.timed("live.ckpt_take", cycle=pipe.cycle) as capture:
            snapshot = pipe.snapshot(base)
        obs.incr("checkpoint.taken")
        with self._lock:
            checkpoint = Checkpoint(
                id=self._next_id,
                cycle=pipe.cycle,
                snapshot=snapshot,
                version=version,
                op_index=op_index,
                capture_seconds=capture.seconds,
            )
            self._next_id += 1
            self._insert(checkpoint)
            self.total_capture_seconds += capture.seconds
            self.total_captured += 1
            self.gc()
        return checkpoint

    def maybe_take(self, pipe: Pipe, version: str, op_index: int) -> Optional[Checkpoint]:
        """Capture if the configured interval elapsed since the last one."""
        if not self.enabled:
            return None
        # One read: the background verifier's collector may swap in a
        # shorter (even empty) list between two.
        checkpoints = self._checkpoints
        last_cycle = checkpoints[-1].cycle if checkpoints else None
        if last_cycle is not None and pipe.cycle - last_cycle < self.interval:
            return None
        if last_cycle is None and pipe.cycle < self.interval:
            # First checkpoint also waits one interval, matching the
            # "regular intervals" cadence; cycle 0 state is re-creatable
            # by replay from reset.
            return None
        return self.take(pipe, version, op_index)

    def _insert(self, checkpoint: Checkpoint) -> None:
        # Keep sorted by cycle; same-cycle recapture replaces.  A take
        # after the newest checkpoint (every take but a recapture)
        # appends: a reader outside the lock sees the list before or
        # after, never torn.
        with self._lock:
            checkpoints = self._checkpoints
            if not checkpoints or checkpoints[-1].cycle < checkpoint.cycle:
                checkpoints.append(checkpoint)
                return
            replaced = [
                c for c in self._checkpoints if c.cycle != checkpoint.cycle
            ]
            replaced.append(checkpoint)
            replaced.sort(key=lambda c: c.cycle)
            self._checkpoints = replaced

    # -- selection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._checkpoints)

    def all(self) -> List[Checkpoint]:
        with self._lock:
            return list(self._checkpoints)

    def cycles(self) -> List[int]:
        with self._lock:
            return [c.cycle for c in self._checkpoints]

    def nearest_before(self, cycle: int) -> Optional[Checkpoint]:
        with self._lock:
            candidates = [c for c in self._checkpoints if c.cycle <= cycle]
        return candidates[-1] if candidates else None

    def reload_candidate(
        self, stop_cycle: int, distance: int = 10_000, since: int = 0
    ) -> Optional[Checkpoint]:
        """The checkpoint closest to ``stop_cycle - distance`` (§III-D).

        Never returns a checkpoint after ``stop_cycle`` or before
        ``since``.
        """
        target = max(stop_cycle - distance, 0)
        with self._lock:
            candidates = [
                c for c in self._checkpoints
                if since <= c.cycle <= stop_cycle
            ]
        if not candidates:
            return None
        # Ties break toward the later checkpoint: same distance from
        # the target, but less replay to reach the stop point.
        return min(candidates, key=lambda c: (abs(c.cycle - target), -c.cycle))

    def adopt(self, checkpoints: List[Checkpoint]) -> int:
        """Merge externally-loaded checkpoints (a saved store file)
        into this store, skipping cycles already present.

        With :meth:`take` one of the store's two doors: the caller
        (``ldch``) hands over checkpoints in the version they were taken
        in, and each comes in as a copy under this store's next id (the
        snapshot shared, never copied).  Rewinding to a file keeps the
        file's older checkpoints too, so a session rehydrated from a
        journal has a base at its restore point and at the cycles
        before it.
        """
        added = 0
        with self._lock:
            have = {c.cycle for c in self._checkpoints}
            for checkpoint in checkpoints:
                if checkpoint.cycle in have:
                    continue
                self._checkpoints.append(replace(checkpoint, id=self._next_id))
                self._next_id += 1
                have.add(checkpoint.cycle)
                added += 1
            self._checkpoints.sort(key=lambda c: c.cycle)
        return added

    def invalidate_after(self, cycle: int) -> int:
        """Drop checkpoints past ``cycle`` (post-divergence cleanup)."""
        with self._lock:
            before = len(self._checkpoints)
            self._checkpoints = [
                c for c in self._checkpoints if c.cycle <= cycle
            ]
            dropped = before - len(self._checkpoints)
        if dropped:
            obs.incr("checkpoint.invalidated", dropped)
        return dropped

    # -- GC ------------------------------------------------------------------------

    def gc(self) -> int:
        with self._lock:
            victims = self.policy.select_victims(self._checkpoints)
            if victims:
                victim_ids = {c.id for c in victims}
                self._checkpoints = [
                    c for c in self._checkpoints if c.id not in victim_ids
                ]
                self.total_collected += len(victims)
        if victims:
            obs.incr("checkpoint.collected", len(victims))
        return len(victims)

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str) -> None:
        import pickle  # loaded by the first save or load

        with self._lock:
            payload = {
                "interval": self.interval,
                "checkpoints": list(self._checkpoints),
                "next_id": self._next_id,
                "stats": {
                    "total_captured": self.total_captured,
                    "total_capture_seconds": self.total_capture_seconds,
                    "total_collected": self.total_collected,
                },
            }
        write_sealed(path, "checkpoint", pickle.dumps(payload))

    def load(self, path: str) -> None:
        """Restore a saved store, including its overhead statistics.

        The current GC policy is re-applied immediately: a file saved
        under a looser policy must not leave the store over budget.
        A file :func:`read_sealed` refuses is a
        :class:`SimulationError` naming it, and the store is unchanged.
        """
        import pickle

        data = pickle.loads(read_sealed(path, "checkpoint"))
        stats = data["stats"]
        loaded = (
            data["interval"],
            list(data["checkpoints"]),
            data["next_id"],
            stats["total_captured"],
            stats["total_capture_seconds"],
            stats["total_collected"],
        )
        with self._lock:
            (
                self.interval,
                self._checkpoints,
                self._next_id,
                self.total_captured,
                self.total_capture_seconds,
                self.total_collected,
            ) = loaded
            self.gc()

    def total_bytes(self) -> int:
        """The logical payload: every checkpoint's words, 8 B each."""
        with self._lock:
            return sum(c.total_bytes() for c in self._checkpoints)

    def resident_bytes(self) -> int:
        """What the store holds: :meth:`total_bytes` with each memory
        page, register tuple and record counted once however many
        checkpoints share it."""
        seen: Set[int] = set()
        with self._lock:
            return sum(
                c.snapshot.resident_bytes(seen) for c in self._checkpoints
            )
