"""The write-ahead log's former path: :mod:`repro.directory.wal` holds it.

The log lives beside :class:`~repro.directory.service.DurableService`, so a
directory shard logs without loading the task system.  This module keeps the
old import path working; patch :data:`CHECKPOINT_INTERVAL` on
:mod:`repro.directory.wal`, where the log reads it.
"""

from repro.directory.wal import CHECKPOINT_INTERVAL, WriteAheadLog

__all__ = ["CHECKPOINT_INTERVAL", "WriteAheadLog"]
