"""Ingest: incremental, idempotent, crash-resume indistinguishable."""

import os
import pickle
import shutil

import pytest

from repro.checkpoint import CheckpointedRun, CheckpointFeed, Journal
from repro.checkpoint import feed as feed_module
from repro.checkpoint import scan_journal
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.observatory import ResolverStore, ingest_checkpoint
from repro.obs import Tracer
from repro.perf import PerfRegistry

from tests.conftest import UnpickleCounter
from tests.observatory.conftest import (
    WEEKS,
    FakeGeo,
    build_world,
    make_campaign,
    run_checkpointed_campaign,
)


def ingest_fresh(directory, tmp_path, name="store", **kwargs):
    store = ResolverStore(str(tmp_path / name))
    report = ingest_checkpoint(store, str(directory), **kwargs)
    return store, report


class TestFolding:
    def test_every_week_folds_once(self, campaign_checkpoint, tmp_path):
        directory, __, campaign = campaign_checkpoint
        store, report = ingest_fresh(directory, tmp_path)
        assert report.weeks_folded == list(range(WEEKS))
        assert report.units_folded == WEEKS
        assert store.weeks() == list(range(WEEKS))
        for snapshot in campaign.snapshots:
            week = store.week(snapshot.week)
            assert {ip for ip in snapshot.result.responders} == {
                "%d.%d.%d.%d" % (v >> 24, (v >> 16) & 255,
                                 (v >> 8) & 255, v & 255)
                for v in week.targets}
            assert week.probes_sent == snapshot.result.probes_sent

    def test_geo_enrichment_labels_every_responder(
            self, campaign_checkpoint, tmp_path):
        directory, __, campaign = campaign_checkpoint
        store, __ = ingest_fresh(directory, tmp_path, geo=FakeGeo())
        geo = FakeGeo()
        for ip in campaign.snapshots[0].result.responders:
            record = store.record(ip)
            country, rir, asn = geo.locate(ip)
            assert (record["country"], record["rir"],
                    record["asn"]) == (country, rir, asn)

    def test_perf_and_tracer_instrumented(self, campaign_checkpoint,
                                          tmp_path):
        directory, __, __ = campaign_checkpoint
        perf, tracer = PerfRegistry(), Tracer(seed=1)
        __, report = ingest_fresh(directory, tmp_path, perf=perf,
                                  tracer=tracer)
        assert perf.counter("observatory_units_folded") \
            == report.units_folded
        assert perf.gauge_value("observatory_ingest_lag_records") >= 0
        assert perf.seconds("observatory_ingest") > 0
        spans = [span for span in tracer.spans
                 if span["stage"] == "observatory_ingest"]
        assert len(spans) == 1 and spans[0]["status"] == "ok"


class TestIdempotence:
    def test_reingesting_the_same_journal_is_a_noop(
            self, campaign_checkpoint, tmp_path):
        directory, __, __ = campaign_checkpoint
        store, first = ingest_fresh(directory, tmp_path)
        digest = store.digest()
        generation = store.generation
        again = ingest_checkpoint(store, str(directory))
        assert not again.changed()
        assert again.units_seen == 0          # cursor skipped the span
        assert store.digest() == digest
        assert store.generation == generation  # no new generation

    def test_replayed_span_is_recognized_by_the_ledger(
            self, campaign_checkpoint, tmp_path):
        # Losing the cursor (as a journal replayed from scratch would)
        # must not double-fold: the per-unit digest ledger catches it.
        directory, __, __ = campaign_checkpoint
        store, __ = ingest_fresh(directory, tmp_path)
        digest = store.digest()
        store.cursors.clear()
        again = ingest_checkpoint(store, str(directory))
        assert again.units_skipped == WEEKS
        assert again.units_folded == 0
        assert store.digest() == digest

    def test_reopened_store_still_knows_what_it_ingested(
            self, campaign_checkpoint, tmp_path):
        directory, __, __ = campaign_checkpoint
        store, __ = ingest_fresh(directory, tmp_path)
        reopened = ResolverStore.open(str(tmp_path / "store"))
        again = ingest_checkpoint(reopened, str(directory))
        assert not again.changed()
        assert reopened.digest() == store.digest()


class TestRecordLayout:
    """Ingest reads commit records without decoding their world state."""

    def test_folds_every_unit_without_decoding_state(
            self, campaign_checkpoint, tmp_path, monkeypatch):
        monkeypatch.setattr(UnpickleCounter, "loads", 0)
        __, __, campaign = campaign_checkpoint
        directory = str(tmp_path / "ckpt")
        checkpoint = CheckpointedRun(directory, meta={"command": "campaign"})
        for snapshot in campaign.snapshots:
            checkpoint.commit(("week", snapshot.week), snapshot,
                              state={"marker": UnpickleCounter()})
        checkpoint.close()
        __, report = ingest_fresh(directory, tmp_path)
        assert report.weeks_folded == list(range(WEEKS))
        assert UnpickleCounter.loads == 0
        resumed = CheckpointedRun(directory, resume=True)
        assert UnpickleCounter.loads == 0
        resumed.restore(("week", 0))
        assert UnpickleCounter.loads == 1

    def test_old_layout_journal_restores_and_ingests_identically(
            self, campaign_checkpoint, tmp_path):
        directory, __, __ = campaign_checkpoint
        new_dir = str(tmp_path / "new")
        old_dir = str(tmp_path / "old")
        shutil.copytree(str(directory), new_dir)
        shutil.copytree(str(directory), old_dir)
        # Rewrite the journal the way earlier versions wrote it: the
        # world-state capture inline in each commit record.
        os.remove(os.path.join(old_dir, "journal.wal"))
        journal = Journal(os.path.join(old_dir, "journal.wal"))
        keys = []
        for __, record in scan_journal(os.path.join(new_dir,
                                                    "journal.wal")):
            if record["kind"] == "commit":
                assert isinstance(record["state"], bytes)
                record = dict(record, state=pickle.loads(record["state"]))
                keys.append(tuple(record["key"]))
            journal.append(record)
        journal.close()
        assert keys
        new_run = CheckpointedRun(new_dir, resume=True)
        old_run = CheckpointedRun(old_dir, resume=True)
        for key in keys:
            # Compared as pickles: cached resolution results have no
            # __eq__.
            assert pickle.dumps(old_run.restore(key)["state"]) \
                == pickle.dumps(new_run.restore(key)["state"])
        new_store, __ = ingest_fresh(new_dir, tmp_path, "new-store",
                                     geo=FakeGeo())
        old_store, __ = ingest_fresh(old_dir, tmp_path, "old-store",
                                     geo=FakeGeo())
        assert old_store.digest() == new_store.digest()

    def test_one_journal_scan_per_pass_and_lag_unchanged(
            self, tmp_path, monkeypatch):
        # A crashed run: its journal ends in a crash record, which the
        # lag counts although it is not a commit.
        directory = str(tmp_path / "ckpt")
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        checkpoint = CheckpointedRun(directory, meta={"weeks": WEEKS},
                                     fault_plan=plan)
        with pytest.raises(InjectedCrash):
            make_campaign(build_world()).run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        path = os.path.join(directory, "journal.wal")
        records = [record for __, record in scan_journal(path)]
        assert records[-1]["kind"] == "crash"
        total = len(records)
        feed_id = CheckpointFeed(directory).identity()
        real_scan = feed_module.scan_journal
        calls = []

        def counting_scan(*args, **kwargs):
            calls.append(args)
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(feed_module, "scan_journal", counting_scan)
        for cursor in (0, total // 2, total):
            del calls[:]
            store = ResolverStore(str(tmp_path / ("store-%d" % cursor)))
            store.cursors[feed_id] = cursor
            report = ingest_checkpoint(store, directory)
            assert len(calls) == 1
            assert report.lag_records == total - cursor


class TestCrashResumeEquality:
    def test_store_from_resumed_campaign_equals_uninterrupted(
            self, tmp_path):
        # Uninterrupted run.
        clean_dir = tmp_path / "clean-ckpt"
        run_checkpointed_campaign(clean_dir)
        clean_store, __ = ingest_fresh(clean_dir, tmp_path, "clean",
                                       geo=FakeGeo())
        # Crashed-at-week-1, resumed-to-completion run: same world
        # builder, fresh incarnation per restart.
        crash_dir = str(tmp_path / "crash-ckpt")
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     fault_plan=plan)
        with pytest.raises(InjectedCrash):
            campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     resume=True)
        campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        resumed_store, __ = ingest_fresh(crash_dir, tmp_path, "resumed",
                                         geo=FakeGeo())
        assert resumed_store.digest() == clean_store.digest()
        assert resumed_store.weeks() == clean_store.weeks()

    def test_ingest_of_partial_run_then_rest_matches_one_shot(
            self, tmp_path):
        # Tail a crashed (incomplete) run, then re-tail after resume:
        # the two-pass store equals a single ingest of the whole run.
        crash_dir = str(tmp_path / "ckpt")
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     fault_plan=plan)
        with pytest.raises(InjectedCrash):
            campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        tailing = ResolverStore(str(tmp_path / "tailing"))
        early = ingest_checkpoint(tailing, crash_dir, geo=FakeGeo())
        assert early.changed()                # week 0 landed pre-crash
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     resume=True)
        campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        ingest_checkpoint(tailing, crash_dir, geo=FakeGeo())
        oneshot, __ = ingest_fresh(crash_dir, tmp_path, "oneshot",
                                   geo=FakeGeo())
        assert tailing.digest() == oneshot.digest()


# -- label units (fingerprint / pipeline), hand-committed -----------------

class FakeChaosObservation:
    def __init__(self, ip, outcome, version):
        self.resolver_ip = ip
        self.outcome = outcome
        self.version_string = version


class FakeCapture:
    def __init__(self, ip):
        self.resolver_ip = ip


class FakeLabeled:
    def __init__(self, ip, label, sublabel):
        self.capture = FakeCapture(ip)
        self.label = label
        self.sublabel = sublabel


class TestLabelUnits:
    def commit_labels(self, directory):
        checkpoint = CheckpointedRun(str(directory),
                                     meta={"command": "fullstudy"})
        checkpoint.commit(
            ("campaign", "study", "fingerprint"),
            {"software": [FakeChaosObservation("10.0.0.1", "bind",
                                               "9.8.1")],
             "classifications": {"10.0.0.2": ("router", "linux",
                                              "netgear")}})
        checkpoint.commit(
            ("pipeline", "Banking", "stage", "labeling"),
            {"labeled": [FakeLabeled("10.0.0.1", "MALICIOUS",
                                     "phishing")],
             "diff_clusters": [], "degraded": []})
        checkpoint.close()

    def test_fingerprints_and_verdicts_fold(self, tmp_path):
        self.commit_labels(tmp_path / "ckpt")
        store = ResolverStore()
        report = ingest_checkpoint(store, str(tmp_path / "ckpt"),
                                   save=False)
        assert report.fingerprints == 2 and report.verdicts == 1
        one = store.record("10.0.0.1")
        assert one["software"] == {"outcome": "bind",
                                  "version": "9.8.1"}
        assert one["verdict"] == "MANIPULATING"
        assert one["labels"] == ["MALICIOUS/phishing"]
        two = store.record("10.0.0.2")
        assert two["device"] == {"hardware": "router", "os": "linux",
                                 "vendor": "netgear"}
        assert two["verdict"] == "CLEAN"

    def test_label_units_are_idempotent_too(self, tmp_path):
        self.commit_labels(tmp_path / "ckpt")
        store = ResolverStore()
        ingest_checkpoint(store, str(tmp_path / "ckpt"), save=False)
        digest = store.digest()
        store.cursors.clear()
        again = ingest_checkpoint(store, str(tmp_path / "ckpt"),
                                  save=False)
        assert again.units_folded == 0 and again.units_skipped == 2
        assert store.digest() == digest
