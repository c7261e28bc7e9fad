"""Tests for the CheckpointedRun supervisor (commit/restore/resume)."""

import os

import pytest

from repro.checkpoint import CheckpointedRun, CheckpointError
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from tests.conftest import UnpickleCounter


def open_run(tmp_path, **kwargs):
    return CheckpointedRun(str(tmp_path / "ckpt"), **kwargs)


class TestCommitRestore:
    def test_roundtrip_with_state(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("week", 0), {"result": [1, 2]}, state={"clock": 7.0})
        run.close()
        resumed = open_run(tmp_path, resume=True)
        assert resumed.completed(("week", 0))
        record = resumed.restore(("week", 0))
        assert record["payload"] == {"result": [1, 2]}
        assert record["state"] == {"clock": 7.0}
        assert resumed.restore(("week", 1)) is None

    def test_scope_prefixes_keys_and_nests(self, tmp_path):
        run = open_run(tmp_path)
        scope = run.scope("week", 3).scope("scan")
        scope.commit(("shard", 0), "payload")
        assert run.completed(("week", 3, "scan", "shard", 0))
        assert scope.completed(("shard", 0))
        assert scope.restore(("shard", 0))["payload"] == "payload"

    def test_corrupt_snapshot_quarantined_not_fatal(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("week", 0), "payload")
        run.close()
        resumed = open_run(tmp_path, resume=True)
        path = resumed.store.path_for(("week", 0))
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        assert resumed.restore(("week", 0)) is None
        assert not resumed.completed(("week", 0))
        assert resumed.provenance["snapshots_quarantined"] == 1
        assert os.listdir(resumed.quarantine_dir)

    def test_missing_snapshot_reruns_unit(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("week", 0), "payload")
        os.remove(run.store.path_for(("week", 0)))
        run.close()
        resumed = open_run(tmp_path, resume=True)
        assert resumed.restore(("week", 0)) is None


class TestRecordLayout:
    """Commit records carry world state as opaque pickled bytes."""

    @pytest.fixture
    def counter(self, monkeypatch):
        monkeypatch.setattr(UnpickleCounter, "loads", 0)
        return UnpickleCounter

    def test_only_restore_decodes_state(self, tmp_path, counter):
        run = open_run(tmp_path)
        run.commit(("week", 0), "payload",
                   state={"clock": 7.0, "marker": counter()})
        run.close()
        resumed = open_run(tmp_path, resume=True)    # replays the journal
        assert resumed.completed(("week", 0))
        assert counter.loads == 0
        state = resumed.restore(("week", 0))["state"]
        assert counter.loads == 1
        assert state["clock"] == 7.0
        assert isinstance(state["marker"], UnpickleCounter)

    def test_in_process_restore_returns_a_decoded_copy(self, tmp_path,
                                                       counter):
        run = open_run(tmp_path)
        state = {"clock": 7.0, "marker": counter()}
        run.commit(("week", 0), "payload", state=state)
        restored = run.restore(("week", 0))["state"]
        assert counter.loads == 1
        assert restored is not state and restored["clock"] == 7.0
        state["clock"] = 9.0                  # later mutation not seen
        assert run.restore(("week", 0))["state"]["clock"] == 7.0

    def test_stateless_commit_restores_none(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("week", 0), "payload")
        assert run.restore(("week", 0))["state"] is None

    def test_old_layout_with_inline_state_still_restores(self, tmp_path):
        run = open_run(tmp_path)
        name = run.store.save(("week", 0), {"result": [1, 2]})
        run.journal.append({"kind": "commit", "key": ("week", 0),
                            "snapshot": name,
                            "state": {"clock": 7.0, "flow_counts": {1: 2}}})
        run.close()
        resumed = open_run(tmp_path, resume=True)
        record = resumed.restore(("week", 0))
        assert record["payload"] == {"result": [1, 2]}
        assert record["state"] == {"clock": 7.0, "flow_counts": {1: 2}}


class TestMetaValidation:
    def test_reopen_without_resume_refused(self, tmp_path):
        run = open_run(tmp_path, meta={"command": "campaign"})
        run.commit(("week", 0), "x")
        run.close()
        with pytest.raises(CheckpointError):
            open_run(tmp_path, meta={"command": "campaign"})

    def test_resume_with_matching_meta_allowed(self, tmp_path):
        run = open_run(tmp_path, meta={"seed": 7})
        run.commit(("week", 0), "x")
        run.close()
        resumed = open_run(tmp_path, meta={"seed": 7}, resume=True)
        assert resumed.completed(("week", 0))

    def test_resume_with_mismatched_meta_refused(self, tmp_path):
        run = open_run(tmp_path, meta={"seed": 7})
        run.commit(("week", 0), "x")
        run.close()
        with pytest.raises(CheckpointError):
            open_run(tmp_path, meta={"seed": 8}, resume=True)


class TestCrashPlane:
    def test_forced_crash_fires_once_across_resume(self, tmp_path):
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        run = open_run(tmp_path, fault_plan=plan)
        run.maybe_crash("week", (0,))  # different point: no crash
        with pytest.raises(InjectedCrash) as crash:
            run.maybe_crash("week", (1,))
        assert crash.value.point == "week:1"
        run.close()
        # The occurrence was journaled: the resumed run proceeds.
        resumed = open_run(tmp_path, resume=True, fault_plan=plan)
        resumed.maybe_crash("week", (1,))
        assert resumed.provenance["crashes_injected"] == 1

    def test_scoped_crash_point_uses_prefixed_canon(self, tmp_path):
        plan = FaultPlan(
            FaultProfile(crash_points=("shard:week/2/scan/1",)), seed=3)
        run = open_run(tmp_path, fault_plan=plan)
        scope = run.scope("week", 2, "scan")
        with pytest.raises(InjectedCrash):
            scope.maybe_crash("shard", (1,))

    def test_forced_torn_write_then_resume_commits(self, tmp_path):
        plan = FaultPlan(FaultProfile(torn_points=(1,)), seed=3)
        run = open_run(tmp_path, fault_plan=plan)
        run.commit(("week", 0), "w0")
        with pytest.raises(InjectedCrash) as crash:
            run.commit(("week", 1), "w1")
        assert crash.value.kind == "torn_write"
        run.close()
        resumed = open_run(tmp_path, resume=True, fault_plan=plan)
        # The torn record was quarantined: week 1 is not committed...
        assert resumed.completed(("week", 0))
        assert not resumed.completed(("week", 1))
        assert resumed.provenance["journal_records_quarantined"] == 1
        # ...and the torn-write draw has moved on (epoch advanced), so
        # recommitting the unit lands durably this time.
        resumed.commit(("week", 1), "w1")
        resumed.close()
        final = open_run(tmp_path, resume=True, fault_plan=plan)
        assert final.completed(("week", 1))


class TestProvenance:
    def test_provenance_counts_and_notes(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("week", 0), "x")
        run.note("resumed_from_week", 0)
        run.note("resumed_from_week", 5)  # first write wins
        provenance = run.provenance
        assert provenance["resumed"] is False
        assert provenance["units_committed"] == 1
        assert provenance["resumed_from_week"] == 0
        run.close()
        resumed = open_run(tmp_path, resume=True)
        resumed.restore(("week", 0))
        provenance = resumed.provenance
        assert provenance["resumed"] is True
        assert provenance["journal_records_replayed"] == 1
        assert provenance["units_restored"] == 1

    def test_write_provenance_is_valid_json(self, tmp_path):
        import json
        run = open_run(tmp_path)
        run.commit(("week", 0), "x")
        path = run.write_provenance()
        with open(path) as handle:
            data = json.load(handle)
        assert data["units_committed"] == 1
