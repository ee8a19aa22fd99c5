"""Shared fixtures: the quick claims grid and the WAL replay oracle."""

import pytest

from repro.directory.service import DirectoryShard, DurableService
from repro.directory.wal import WriteAheadLog


def _shard_digest(snapshot) -> list:
    """A shard snapshot with each inline value replaced by its size: a
    payload's ``repr`` is not a value."""
    return [
        (object_id.key, size, deleted, None if inline is None else inline.size, *tables)
        for object_id, size, inline, deleted, *tables in snapshot
    ]


def _state(service, snapshot):
    if isinstance(service, DirectoryShard):
        return _shard_digest(snapshot)
    return [list(part.items()) if isinstance(part, dict) else part for part in snapshot]


class ReplayOracle:
    """Records every WAL's history and checks each replay against it.

    The history is every ``(kind, data)`` a log is given, in append order,
    keyed by the log object (not ``id()``: ids are reused across runs).  At
    every replay the recovered state must equal what restore-from-nothing
    plus the whole history builds; the recovered state is then put back, so
    the run goes on exactly as it would unobserved.  States are compared
    through the service's own snapshot function, dict orders included.
    ``replays`` counts the checked replays by plane.
    """

    def __init__(self, monkeypatch):
        self.history: dict = {}
        self.replays = {"shard": 0, "lineage": 0}
        append, replay = WriteAheadLog.append, DurableService.replay

        def recording_append(log, kind, data):
            self.history.setdefault(log, []).append((kind, data))
            return append(log, kind, data)

        def checked_replay(service, restore_fn, apply_fn):
            applied = replay(service, restore_fn, apply_fn)
            self._check(service, restore_fn, apply_fn)
            return applied

        monkeypatch.setattr(WriteAheadLog, "append", recording_append)
        monkeypatch.setattr(DurableService, "replay", checked_replay)

    def _check(self, service, restore_fn, apply_fn):
        snapshot_fn = service.wal.snapshot_fn
        recovered = snapshot_fn()
        restore_fn(None)
        for kind, data in self.history.get(service.wal, ()):
            apply_fn(kind, data)
        rebuilt = snapshot_fn()
        restore_fn(recovered)
        assert _state(service, rebuilt) == _state(service, recovered), service.resource
        self.replays["shard" if isinstance(service, DirectoryShard) else "lineage"] += 1

    def run(self, thunk):
        """Run one workload, then drop its logs' histories."""
        result = thunk()
        self.history.clear()
        return result


@pytest.fixture
def replay_oracle(monkeypatch):
    return ReplayOracle(monkeypatch)


@pytest.fixture(scope="session")
def quick_claims():
    """Every claims table on its quick grid (table name -> rows), built once
    per session: the claims test and the record's pin test both read it."""
    from repro.bench import claims

    return {name: claims.build(name, quick=True) for name in claims.FIGURES}
