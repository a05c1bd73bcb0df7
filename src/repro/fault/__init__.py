"""Fault tolerance: checkpoints, fault injection, recovery proofs.

Two halves:

* :mod:`repro.fault.checkpoint` — versioned envelopes around a pickled
  run; the format worker processes use to ship periodic snapshots to
  the supervising parent, the write-ahead log stores, and
  ``QueryRun.checkpoint()`` / ``MultiQueryRun.checkpoint()`` expose to
  embedders.
* :mod:`repro.fault.inject` — seeded :class:`FaultPlan` scripts (kill a
  worker, corrupt/drop/duplicate a frame, raise inside a stage) that the
  tests, the chaos CLI and the benchmark use to force every recovery
  path to actually run.

The supervision machinery that consumes both lives in
:mod:`repro.parallel.shard`; quarantine of individual failing queries
lives in :mod:`repro.core.multiplex` and
:class:`~repro.xquery.engine.MultiQueryRun`.

Durability (PR 10) adds a third half: :mod:`repro.fault.wal` journals
every frame to a segmented write-ahead log ahead of dispatch, and
:mod:`repro.fault.recover` rebuilds a whole crashed process from it —
restore the newest checkpoint, replay the logged suffix, resume.
"""

from .checkpoint import (CheckpointError, decode_checkpoint,
                         encode_checkpoint, require_schema)
from .inject import (FaultAction, FaultPlan, InjectedFault,
                     arm_stage_fault, error_report)
from .recover import RecoveryError, RecoveryResult, recover
from .wal import WalError, WriteAheadLog, drive_durable, scan_wal

__all__ = [
    "CheckpointError", "encode_checkpoint", "decode_checkpoint",
    "require_schema",
    "FaultPlan", "FaultAction", "InjectedFault", "arm_stage_fault",
    "error_report",
    "WalError", "WriteAheadLog", "drive_durable", "scan_wal",
    "RecoveryError", "RecoveryResult", "recover",
]
