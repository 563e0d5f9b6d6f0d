"""Crash-safe persistence tier: atomic writes, journaled generations,
and kill-9 recovery.

The reliability layers of PR2–PR4 made the *in-process* paths robust;
this package makes the *on-disk* state hold up under real process death:

* :mod:`repro.recovery.atomic` — :func:`atomic_write`, the
  temp-file + fsync + ``os.replace`` + directory-fsync primitive every
  persistent artifact saver now writes through, with an injectable sync
  hook so the crash harness can kill at every protocol point.
* :mod:`repro.recovery.store` — :class:`GenerationStore`, a journaled
  directory layout whose fsynced ``MANIFEST.json`` (per-file CRC table,
  written last) is the commit marker; startup :meth:`~GenerationStore.recover`
  re-validates candidates (CRC + static artifact audit) and quarantines
  torn or uncommitted state instead of deleting it.
* :mod:`repro.recovery.crashsim` — the kill-9 trial behind
  ``repro soak crash``: subprocess workloads SIGKILLed at randomized
  sync points (including mid-``os.replace``), then recovery invariants
  asserted — no committed generation lost, ``latest()`` never corrupt,
  all torn temp files quarantined, recovery time bounded.

See ``docs/ARCHITECTURE.md`` ("Durability & recovery") for the commit
protocol and quarantine semantics.
"""

from repro.recovery.atomic import atomic_write, fsync_dir, fsync_file, set_sync_hook
from repro.recovery.store import (
    Generation,
    GenerationStore,
    GenerationTxn,
    RecoveryReport,
)

__all__ = [
    "Generation",
    "GenerationStore",
    "GenerationTxn",
    "RecoveryReport",
    "atomic_write",
    "fsync_dir",
    "fsync_file",
    "set_sync_hook",
]
