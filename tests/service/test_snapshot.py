"""Tests for the snapshot store (prepare once, reload per process)."""

import json

import pytest

import repro.disconnection.catalog as catalog_module
import repro.service.snapshot as snapshot_module
from repro.closure import reachability_semiring, widest_path_semiring
from repro.disconnection import DisconnectionSetEngine
from repro.fragmentation import GroundTruthFragmenter
from repro.generators import two_cluster_dumbbell
from repro.service import (
    SnapshotError,
    SnapshotStore,
    is_snapshot_directory,
    load_snapshot,
    save_snapshot,
)


@pytest.fixture(scope="module")
def prepared():
    graph = two_cluster_dumbbell(4, bridge_nodes=2)
    fragmentation = GroundTruthFragmenter([set(range(4)), set(range(4, 8))]).fragment(graph)
    return graph, fragmentation, DisconnectionSetEngine(fragmentation)


class TestSnapshotRoundTrip:
    def test_round_trip_preserves_answers(self, prepared, tmp_path):
        _, _, engine = prepared
        save_snapshot(tmp_path / "snap", engine)
        loaded = load_snapshot(tmp_path / "snap")
        rebuilt = loaded.build_engine()
        for source, target in [(0, 7), (1, 6), (3, 4), (0, 3)]:
            assert rebuilt.query(source, target).value == engine.query(source, target).value

    def test_round_trip_preserves_structure(self, prepared, tmp_path):
        _, fragmentation, engine = prepared
        manifest = save_snapshot(tmp_path / "snap", engine)
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.manifest.version == manifest.version
        assert loaded.fragmentation.fragment_count() == fragmentation.fragment_count()
        assert loaded.fragmentation.disconnection_sets() == fragmentation.disconnection_sets()
        assert loaded.complementary.values == engine.catalog.complementary.values
        assert manifest.edge_count == fragmentation.graph.edge_count()

    def test_load_does_not_recompute_complementary(self, prepared, tmp_path, monkeypatch):
        _, _, engine = prepared
        save_snapshot(tmp_path / "snap", engine)

        def fail(*args, **kwargs):  # pragma: no cover - the point is it never runs
            raise AssertionError("snapshot load must not recompute complementary information")

        # The catalog calls the precomputation only when no complementary
        # information is supplied; a snapshot load must always supply it.
        monkeypatch.setattr(
            catalog_module, "precompute_complementary_information", fail
        )
        loaded = load_snapshot(tmp_path / "snap")
        rebuilt = loaded.build_engine()
        assert rebuilt.query(0, 7).value == engine.query(0, 7).value

    def test_version_is_content_addressed(self, prepared, tmp_path):
        _, _, engine = prepared
        first = save_snapshot(tmp_path / "one", engine)
        second = save_snapshot(tmp_path / "two", engine)
        assert first.version == second.version

    def test_version_differs_for_different_semirings(self, prepared, tmp_path):
        _, fragmentation, engine = prepared
        shortest = save_snapshot(tmp_path / "sp", engine)
        reach_engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        reach = save_snapshot(tmp_path / "reach", reach_engine)
        assert shortest.version != reach.version


class TestSnapshotValidation:
    def test_rejects_non_snapshot_directory(self, tmp_path):
        assert not is_snapshot_directory(tmp_path)
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path)

    def test_rejects_payload_manifest_mismatch(self, prepared, tmp_path):
        _, fragmentation, engine = prepared
        save_snapshot(tmp_path / "a", engine)
        reach_engine = DisconnectionSetEngine(fragmentation, semiring=reachability_semiring())
        save_snapshot(tmp_path / "b", reach_engine)
        # Simulate a botched copy: snapshot a's manifest with b's payload.
        (tmp_path / "a" / "payload.pkl").write_bytes((tmp_path / "b" / "payload.pkl").read_bytes())
        with pytest.raises(SnapshotError, match="does not match its manifest"):
            load_snapshot(tmp_path / "a")

    def test_rejects_flipped_payload_bytes_before_unpickling(self, prepared, tmp_path, monkeypatch):
        _, _, engine = prepared
        save_snapshot(tmp_path / "snap", engine)
        payload = tmp_path / "snap" / "payload.pkl"
        raw = bytearray(payload.read_bytes())
        for index in (len(raw) // 3, len(raw) // 2):
            raw[index] ^= 0xFF
        payload.write_bytes(bytes(raw))

        def refuse(*args, **kwargs):
            raise AssertionError("pickle.loads ran on unverified snapshot bytes")

        monkeypatch.setattr(snapshot_module.pickle, "loads", refuse)
        with pytest.raises(SnapshotError, match="does not match its manifest"):
            load_snapshot(tmp_path / "snap")

    def test_rejects_manifest_without_payload_hash(self, prepared, tmp_path, monkeypatch):
        _, _, engine = prepared
        save_snapshot(tmp_path / "snap", engine)
        manifest_path = tmp_path / "snap" / "manifest.json"
        document = json.loads(manifest_path.read_text())
        del document["payload_sha256"]
        manifest_path.write_text(json.dumps(document))

        def refuse(*args, **kwargs):
            raise AssertionError("pickle.loads ran on unverified snapshot bytes")

        monkeypatch.setattr(snapshot_module.pickle, "loads", refuse)
        with pytest.raises(SnapshotError, match="payload_sha256"):
            load_snapshot(tmp_path / "snap")

    def test_rejects_nonstandard_semiring(self, prepared, tmp_path):
        _, fragmentation, _ = prepared
        engine = DisconnectionSetEngine(fragmentation, semiring=widest_path_semiring())
        with pytest.raises(ValueError):
            save_snapshot(tmp_path / "snap", engine)


class TestSnapshotStore:
    def test_named_snapshots(self, prepared, tmp_path):
        _, _, engine = prepared
        store = SnapshotStore(tmp_path / "store")
        assert store.list_snapshots() == []
        manifest = store.save("main", engine)
        assert store.list_snapshots() == ["main"]
        assert store.manifest("main").version == manifest.version
        loaded = store.load("main")
        assert loaded.manifest.version == manifest.version

    def test_missing_snapshot_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(SnapshotError):
            store.manifest("absent")
