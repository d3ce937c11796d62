"""Deterministic snapshot/restore of a running simulation.

The sweep orchestrator (:mod:`repro.orchestrator`) checkpoints long
runs so that a killed worker can resume instead of starting over. That
only works if a restored :class:`~repro.core.system.RacSystem` replays
*exactly* the run the original would have produced — same event order,
same RNG draws, same wire bytes. This module provides that guarantee
on top of :mod:`pickle`:

* Everything reachable from a ``RacSystem`` is plain data, ``random.Random``
  instances (whose Mersenne state pickles exactly) or bound methods of
  picklable objects. The two constructs pickle cannot handle were
  removed at the source: :class:`~repro.simnet.engine.Simulator`
  numbers its events from a plain integer rather than an
  ``itertools.count``, and :class:`~repro.simnet.network.StarNetwork`
  schedules bound methods with explicit arguments instead of closures.

* ``set``/``frozenset`` iteration order depends on each table's private
  insertion history (and, for strings, on ``PYTHONHASHSEED``), so a
  naively re-pickled restore is not guaranteed to be byte-identical to
  its own snapshot. The snapshot pickler therefore writes every set as
  a persistent id carrying its items as a canonically ordered list
  (sorted by ``repr``, which totally orders the mixed int/str/tuple
  keys the protocol uses), and the unpickler rebuilds the set from it —
  see :class:`_SnapshotPickler` for why that hook and no other. This
  makes ``snapshot → restore → snapshot`` a byte fixed-point, and that
  fixed-point is the cheap integrity check :func:`snapshot_system` can
  run before a checkpoint is trusted.

Invariants (pinned by ``tests/integration/test_determinism.py``):

1. restore(snapshot(S)) continued for T sim-seconds produces the same
   ``stats_report()``, event count and clock as S continued for T;
2. snapshot(restore(blob)) == blob (byte equality, ``verify=True``);
3. taking a snapshot does not perturb the live system (the continued
   original and the restored copy stay in lock-step).
"""

from __future__ import annotations

import io
import os
import pickle
from typing import Any, Dict, Tuple

__all__ = [
    "SnapshotError",
    "snapshot_system",
    "restore_system",
    "verify_roundtrip",
    "save_snapshot",
    "load_snapshot",
    "SNAPSHOT_MAGIC",
]

#: Versioned header; bump the digit when the snapshot layout changes.
#: /2: sets travel as persistent ids (see :class:`_SnapshotPickler`).
#: /3: calendar entries are list-backed event records, the sequence
#: counter is a plain integer and the ARQ keeps one record per pair.
#: /4: predecessor monitors hold owed sets, a deadline FIFO and
#: reserved ``(time, seq)`` keys; the calendar holds one check timer per
#: (node, domain) instead of one per first-seen message.
#: /5: the star carries ``overtaking_free`` (and may hold ``_deliver``
#: events scheduled from the router); the ARQ keeps its RTT tallies.
#: /6: the injector holds its plan, an edge timeline and the active
#: sets of the present stretch; a ``Link`` carries ``hop_until``.
SNAPSHOT_MAGIC = b"RACSNAP/6\n"
_MAGIC_PREFIX = b"RACSNAP/"


class SnapshotError(Exception):
    """A snapshot could not be taken, verified or restored."""


class _SnapshotPickler(pickle.Pickler):
    """The C pickler, with every set written as a persistent id.

    The C pickler serialises an exact ``set``/``frozenset`` in its
    built-in fast path, in table order, and offers it to neither
    ``reducer_override`` nor ``dispatch_table`` — but it offers *every*
    object to ``persistent_id`` first. A first-seen set therefore
    leaves as ``(index, is_frozen, repr-sorted items)``, a repeat as
    ``(index,)``; anything else answers ``None`` and pickles normally.
    The pickler's own memo never sees a set, so the index is what keeps
    a set referenced twice one object after :class:`_SnapshotUnpickler`
    rebuilds it. ``_sets`` holds each set alive so its ``id`` cannot be
    reused by a temporary while the dump is running.
    """

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._sets: "Dict[int, Tuple[int, Any]]" = {}

    def persistent_id(self, obj: Any):
        cls = type(obj)
        if cls is not set and cls is not frozenset:
            return None
        seen = self._sets.get(id(obj))
        if seen is not None:
            return (seen[0],)
        index = len(self._sets)
        self._sets[id(obj)] = (index, obj)
        return (index, cls is frozenset, sorted(obj, key=repr))


class _SnapshotUnpickler(pickle.Unpickler):
    """Rebuilds, and index-memoises, the sets :class:`_SnapshotPickler` wrote."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file)
        self._sets: "Dict[int, Any]" = {}

    def persistent_load(self, pid: tuple) -> Any:
        if len(pid) == 1:
            if pid[0] not in self._sets:
                # a set that reaches itself through one of its members
                raise pickle.UnpicklingError(f"set #{pid[0]} is referenced before it is built")
            return self._sets[pid[0]]
        index, is_frozen, items = pid
        built = self._sets[index] = frozenset(items) if is_frozen else set(items)
        return built


def _dumps(obj: Any) -> bytes:
    buffer = io.BytesIO()
    _SnapshotPickler(buffer).dump(obj)
    return buffer.getvalue()


def _loads(data: bytes) -> Any:
    return _SnapshotUnpickler(io.BytesIO(data)).load()


def snapshot_system(system: Any, verify: bool = False) -> bytes:
    """Serialize a (possibly mid-run) system to a self-contained blob.

    The blob is *canonical*: a first pickle is restored in memory and
    re-pickled, which erases identity artifacts of the live process
    (equal strings interned into one object pickle as memo references;
    their restored counterparts are distinct objects). One round-trip
    reaches the byte fixed-point ``snapshot(restore(blob)) == blob``.

    With ``verify=True`` that fixed-point is actually checked — a
    failure means some new state crept in that does not round-trip
    deterministically, and the blob must not be trusted as a checkpoint.
    """
    try:
        blob = SNAPSHOT_MAGIC + _dumps(_loads(_dumps(system)))
    except (pickle.PickleError, TypeError, AttributeError) as exc:
        raise SnapshotError(f"system state is not snapshot-safe: {exc}") from exc
    if verify:
        verify_roundtrip(blob)
    return blob


def restore_system(blob: bytes) -> Any:
    """Rebuild the system a blob was taken from; it resumes where the
    original stood, down to the pending event queue and RNG streams."""
    if not blob.startswith(SNAPSHOT_MAGIC):
        if blob.startswith(_MAGIC_PREFIX):
            found = blob[: len(SNAPSHOT_MAGIC)].decode("ascii", "replace").strip()
            raise SnapshotError(
                f"snapshot format version mismatch: blob is {found}, this build reads "
                f"{SNAPSHOT_MAGIC.decode().strip()}; it cannot be resumed — delete it "
                "or use a fresh run directory"
            )
        raise SnapshotError("not a RAC snapshot (bad magic header)")
    try:
        return _loads(blob[len(SNAPSHOT_MAGIC):])
    except Exception as exc:  # unpickling raises wildly varied types
        raise SnapshotError(f"snapshot blob is corrupt: {exc}") from exc


def verify_roundtrip(blob: bytes) -> Any:
    """Assert the blob is a byte fixed-point; return the restored system.

    ``snapshot(restore(blob)) == blob`` is the invariant: the restored
    system re-serializes to the identical bytes, so a checkpoint chain
    (snapshot → restore → run → snapshot → ...) cannot drift.
    """
    restored = restore_system(blob)
    again = SNAPSHOT_MAGIC + _dumps(restored)
    if again != blob:
        raise SnapshotError(
            "snapshot round-trip is not byte-stable "
            f"({len(blob)} vs {len(again)} bytes) — restored runs may diverge"
        )
    return restored


def save_snapshot(system: Any, path: str, verify: bool = False) -> int:
    """Atomically write a snapshot file (tmp + rename); returns its size.

    The rename is what makes checkpointing crash-safe: a worker killed
    mid-write leaves the previous checkpoint intact, never a torn file.
    A write or fsync that raises takes its tmp file with it.
    """
    blob = snapshot_system(system, verify=verify)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(blob)


def load_snapshot(path: str) -> Any:
    """Restore a system from a snapshot file written by :func:`save_snapshot`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return restore_system(blob)
