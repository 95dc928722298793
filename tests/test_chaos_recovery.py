"""Crash-recovery guarantees under repeated kill/restore and tampering.

Satellites of the chaos harness:

* a service killed and restored from its checkpoint at *every* k-th
  ingest point emits decisions and a final ICR byte-identical to an
  uninterrupted run — restarts are invisible at any frequency;
* every tampered checkpoint (truncated, header-mangled, key-dropped)
  is rejected with the typed :class:`CheckpointCorruptionError`;
* a failed restore is transactional — the in-memory service is left
  exactly as it was.
"""

import copy
import json

import numpy as np
import pytest

from repro.chaos.faults import TAMPER_MODES, KillHook, tamper_checkpoint
from repro.core.online import CordialService
from repro.core.persistence import (CheckpointCorruptionError,
                                    ModelPersistenceError,
                                    load_service_checkpoint, save_cordial,
                                    save_service_checkpoint)
from repro.core.pipeline import Cordial
from repro.serving import serve


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def cordial(small_dataset, bank_split):
    train, _ = bank_split
    model = Cordial(model_name="LightGBM", random_state=0)
    model.fit(small_dataset, train)
    return model


@pytest.fixture(scope="module")
def test_stream(small_dataset, bank_split):
    _, test = bank_split
    test_set = set(test)
    return [r for r in small_dataset.store if r.bank_key in test_set]


@pytest.fixture(scope="module")
def truth(small_dataset, bank_split):
    _, test = bank_split
    return {bank: small_dataset.bank_truth[bank].uer_row_sequence
            for bank in test
            if small_dataset.bank_truth[bank].uer_row_sequence}


def decisions_json(decisions):
    return json.dumps([d.to_obj() for d in decisions], sort_keys=True)


class TestKillRestoreEquivalence:
    @pytest.mark.parametrize("every_k", [23, 57])
    def test_periodic_kills_are_invisible(self, cordial, test_stream, truth,
                                          tmp_path, every_k):
        stream = test_stream[:180]
        baseline = CordialService(cordial, max_skew=3600.0)
        expect = serve(baseline, stream)[1].decisions

        kill_points = list(range(every_k, len(stream) + 1, every_k))
        hook = KillHook(rng(0))
        _, served = serve(
            CordialService(cordial, max_skew=3600.0), stream, kill_points,
            str(tmp_path / "kr.ckpt"), on_kill=hook)
        outcome = hook.outcome(served)

        assert outcome.restore_count == len(kill_points)
        assert decisions_json(outcome.decisions) == decisions_json(expect)
        assert outcome.service.coverage(truth) == baseline.coverage(truth)
        assert outcome.service.stats.to_dict() == baseline.stats.to_dict()
        assert outcome.service.metrics.as_dict(include_histograms=False) \
            == baseline.metrics.as_dict(include_histograms=False)

    def test_kill_at_every_single_ingest(self, cordial, test_stream,
                                         tmp_path):
        # The brutal end of the spectrum: restart after *every* event.
        stream = test_stream[:40]
        baseline = CordialService(cordial, max_skew=3600.0)
        expect = serve(baseline, stream)[1].decisions
        hook = KillHook(rng(0))
        _, served = serve(
            CordialService(cordial, max_skew=3600.0), stream,
            list(range(1, len(stream) + 1)), str(tmp_path / "kr.ckpt"),
            on_kill=hook)
        outcome = hook.outcome(served)
        assert outcome.restore_count == len(stream)
        assert decisions_json(outcome.decisions) == decisions_json(expect)


class TestTamperedCheckpointsAreRejected:
    @pytest.fixture()
    def checkpoint(self, cordial, test_stream, tmp_path):
        service = CordialService(cordial, max_skew=3600.0)
        serve(service, test_stream[:80])
        path = str(tmp_path / "good.ckpt")
        save_service_checkpoint(service, path)
        return path

    @pytest.mark.parametrize("mode", TAMPER_MODES)
    def test_each_tamper_mode_raises_typed_error(self, checkpoint, mode):
        for seed in range(5):  # several random damage positions per mode
            damaged = tamper_checkpoint(checkpoint, mode, rng(seed))
            with pytest.raises(CheckpointCorruptionError):
                load_service_checkpoint(damaged)

    def test_garbage_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\xffnot json at all")
        with pytest.raises(CheckpointCorruptionError):
            load_service_checkpoint(path)

    def test_empty_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_text("")
        with pytest.raises(CheckpointCorruptionError):
            load_service_checkpoint(path)

    def test_wrong_document_kind_is_not_corruption(self, cordial, tmp_path):
        # A pipeline file is the wrong *kind* of document, not a damaged
        # checkpoint: plain ModelPersistenceError, so callers can tell
        # "fall back to an older checkpoint" from "wrong path".
        path = str(tmp_path / "pipeline.json")
        save_cordial(cordial, path)
        with pytest.raises(ModelPersistenceError) as excinfo:
            load_service_checkpoint(path)
        assert not isinstance(excinfo.value, CheckpointCorruptionError)

    def test_v2_checkpoint_missing_feature_state_is_corrupt(self,
                                                            checkpoint):
        with open(checkpoint, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["version"] >= 2
        del document["state"]["feature_state"]
        from repro.core.persistence import service_from_document
        with pytest.raises(CheckpointCorruptionError, match="feature_state"):
            service_from_document(document)


class TestFailedRestoreIsTransactional:
    def test_live_service_untouched_by_corrupt_state(self, cordial,
                                                     test_stream):
        service = CordialService(cordial, max_skew=3600.0)
        serve(service, test_stream[:80])
        before = copy.deepcopy(service.state_dict())

        for sabotage in [
            lambda s: s.pop("collector"),
            lambda s: s.pop("stats"),
            lambda s: s.__setitem__("replay", {"spared_rows": "nope"}),
            lambda s: s.__setitem__("pattern_of", [["bad"]]),
            lambda s: s.__setitem__("metrics", {"counters": 7}),
        ]:
            state = copy.deepcopy(before)
            sabotage(state)
            with pytest.raises(Exception):
                service.load_state_dict(state)
            assert service.state_dict() == before

        # And the service still works after every failed restore.
        remaining = test_stream[80:100]
        for record in remaining:
            service.ingest(record)
        service.flush()
        assert service.stats.events_ingested == 100

    def test_corrupt_file_leaves_no_half_restored_service(self, cordial,
                                                          test_stream,
                                                          tmp_path):
        service = CordialService(cordial, max_skew=3600.0)
        serve(service, test_stream[:60])
        path = str(tmp_path / "ckpt.json")
        save_service_checkpoint(service, path)
        damaged = tamper_checkpoint(path, "truncate", rng(1))
        with pytest.raises(CheckpointCorruptionError):
            load_service_checkpoint(damaged)
        # The good file still restores to an identical twin.
        restored = load_service_checkpoint(path)
        assert restored.state_dict() == service.state_dict()
