"""Campaign-store tests: journal round-trip, corruption tolerance, and
cache-maintenance integration (``clear_all`` / ``--cache-stats`` cover the
campaign layer)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import runner
from repro.service.manifest import CampaignManifest, ManifestError
from repro.service.store import JOURNAL_VERSION, CampaignStore

MANIFEST = CampaignManifest.from_dict(
    {"name": "store-test", "factors": {"kind": ["sparse", "stash"]}}
)


@pytest.fixture
def store(tmp_path) -> CampaignStore:
    return CampaignStore(tmp_path / "campaigns")


class TestManifestPersistence:
    def test_create_then_resume(self, store):
        assert store.create(MANIFEST) is True
        assert store.create(MANIFEST) is False  # same manifest: resume
        loaded = store.load_manifest(MANIFEST.campaign_id)
        assert loaded == MANIFEST

    def test_mismatched_manifest_under_same_id_rejected(self, store):
        store.create(MANIFEST)
        # Tamper: overwrite the stored manifest with different content.
        path = store.manifest_path(MANIFEST.campaign_id)
        other = CampaignManifest.from_dict(
            {"name": "imposter", "factors": {"kind": ["stash"]}}
        )
        path.write_text(
            json.dumps({"id": MANIFEST.campaign_id, "manifest": other.to_dict()})
        )
        with pytest.raises(ManifestError, match="different manifest"):
            store.create(MANIFEST)

    def test_load_missing_or_corrupt_returns_none(self, store):
        assert store.load_manifest("deadbeef") is None
        store.create(MANIFEST)
        store.manifest_path(MANIFEST.campaign_id).write_text("{garbage")
        assert store.load_manifest(MANIFEST.campaign_id) is None


class TestJournal:
    def test_append_and_load_round_trip(self, store):
        cid = MANIFEST.campaign_id
        store.append(cid, 0, "computed", key="k0", seconds=0.5,
                     summary={"latency": 1.0})
        store.append(cid, 2, "cache", key="k2", summary={"latency": 2.0})
        records = store.load_journal(cid)
        assert set(records) == {0, 2}
        assert records[0]["src"] == "computed"
        assert records[0]["seconds"] == 0.5
        assert records[2]["summary"] == {"latency": 2.0}
        assert store.last_skipped() == 0

    def test_append_via_persistent_handle(self, store):
        cid = MANIFEST.campaign_id
        with store.open_journal(cid) as handle:
            for index in range(3):
                store.append(cid, index, "computed", handle=handle)
        assert set(store.load_journal(cid)) == {0, 1, 2}

    def test_later_record_wins_for_same_index(self, store):
        cid = MANIFEST.campaign_id
        store.append(cid, 1, "computed", summary={"a": 1.0})
        store.append(cid, 1, "cache", summary={"a": 2.0})
        records = store.load_journal(cid)
        assert records[1]["src"] == "cache"

    def test_truncated_final_line_skipped(self, store):
        cid = MANIFEST.campaign_id
        store.append(cid, 0, "computed")
        # Simulate a crash mid-write: a torn trailing line.
        with open(store.journal_path(cid), "a") as handle:
            handle.write('{"v": 1, "i": 1, "src": "comp')
        records = store.load_journal(cid)
        assert set(records) == {0}
        assert store.last_skipped() == 1

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            '{"v": 99, "i": 0, "src": "computed", "summary": {}}',  # bad version
            '{"v": 1, "i": -1, "src": "computed", "summary": {}}',  # bad index
            '{"v": 1, "i": "x", "src": "computed", "summary": {}}',  # bad type
            '{"v": 1, "i": 0, "src": "computed", "summary": 7}',     # bad summary
            '[1, 2, 3]',
        ],
    )
    def test_malformed_records_skipped(self, store, line):
        cid = MANIFEST.campaign_id
        store.append(cid, 5, "computed")
        with open(store.journal_path(cid), "a") as handle:
            handle.write(line + "\n")
        records = store.load_journal(cid)
        assert set(records) == {5}
        assert store.last_skipped() == 1

    def test_missing_journal_is_empty(self, store):
        assert store.load_journal("deadbeef") == {}
        assert store.last_skipped() == 0

    def test_rewrite_keeps_only_given_records(self, store):
        cid = MANIFEST.campaign_id
        store.append(cid, 0, "computed", key="old")
        store.append(cid, 0, "computed", key="new", summary={"a": 1.0})
        store.append(cid, 1, "cache", key="k1")
        with open(store.journal_path(cid), "a") as handle:
            handle.write('{"v": 1, "i": 2, "src": "comp')
        records = store.load_journal(cid)
        store.rewrite_journal(cid, [records[0]])
        lines = store.journal_path(cid).read_text().splitlines()
        assert [json.loads(line) for line in lines] == [records[0]]
        assert store.load_journal(cid) == {0: records[0]}
        assert store.last_skipped() == 0
        assert [p.name for p in store.dir_for(cid).iterdir()] == ["journal.ndjson"]

    def test_rewrite_without_journal_or_records_writes_nothing(self, store):
        store.rewrite_journal("deadbeef", [])
        assert not store.journal_path("deadbeef").exists()


class TestMaintenance:
    def test_stats(self, store):
        assert store.stats() == {"campaigns": 0, "files": 0, "bytes": 0}
        store.create(MANIFEST)
        store.append(MANIFEST.campaign_id, 0, "computed")
        stats = store.stats()
        assert stats["campaigns"] == 1
        assert stats["files"] == 2  # manifest + journal
        assert stats["bytes"] > 0

    def test_clear_removes_everything(self, store):
        store.create(MANIFEST)
        store.append(MANIFEST.campaign_id, 0, "computed")
        assert store.clear() == 1
        assert store.stats()["campaigns"] == 0


class TestRunnerIntegration:
    """The cache-maintenance satellite: ``clear_all`` and the counters
    report must cover ``.repro_cache/campaigns/``."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path):
        previous = runner.configure()
        runner.configure(cache_dir=str(tmp_path / "cache"))
        yield
        runner.configure(**previous)

    def test_clear_all_clears_campaign_store(self):
        store = CampaignStore(runner.campaigns_root())
        store.create(MANIFEST)
        store.append(MANIFEST.campaign_id, 0, "computed")
        assert store.stats()["campaigns"] == 1
        runner.clear_all()
        assert store.stats()["campaigns"] == 0

    def test_experiments_clear_cache_clears_campaigns(self):
        from repro.analysis.experiments import clear_cache

        store = CampaignStore(runner.campaigns_root())
        store.create(MANIFEST)
        assert store.stats()["campaigns"] == 1
        clear_cache()
        assert store.stats()["campaigns"] == 0

    def test_counters_summary_reports_campaigns(self):
        store = CampaignStore(runner.campaigns_root())
        store.create(MANIFEST)
        store.append(MANIFEST.campaign_id, 0, "computed")
        summary = runner.counters_summary()
        assert "campaigns      1 journaled" in summary

    def test_campaigns_root_follows_cache_dir(self, tmp_path):
        assert runner.campaigns_root() == tmp_path / "cache" / "campaigns"
        assert (
            runner.campaigns_root("/elsewhere")
            == runner.campaigns_root("/elsewhere")
        )
