"""Fleet-scale sharded serving: bit-identical to one big service.

Locks down the contract of ``repro.serving``:

(a) shard-count invariance — decisions, ICR, stats, and deterministic
    metrics from a fleet of any size equal the single-service run, byte
    for byte (``n_shards`` is a pure wall-clock knob);
(b) worker-count invariance — spawned process workers change nothing
    either (``n_jobs`` follows the ``ml/parallel.py`` contract);
(c) checkpoint/restart and *re-sharded* restore (save at 4 shards, load
    onto 2) resume bit-identically;
(d) the router quarantines exactly what a single collector would;
(e) fleet-checkpoint corruption surfaces through the same typed error
    taxonomy as single-service checkpoints;
and the serving-path bugfixes that shipped with the engine: out-of-range
``checkpoint_at`` raises instead of silently never firing, report
dead-letter histograms are key-sorted, ``bounded_shuffle`` rejects
non-finite timestamps, and the CLI validates ``--shards`` / ``--jobs`` /
``--checkpoint-at``.
"""

import json
import math
import os

import pytest

from repro.core.online import CordialService
from repro.core.persistence import (CheckpointCorruptionError,
                                    ModelPersistenceError)
from repro.core.pipeline import Cordial
from repro.experiments import runner
from repro.experiments.serve import bounded_shuffle, build_report
from repro.hbm.address import DeviceAddress
from repro.serving import (FleetRouter, ShardedCordialEngine,
                           load_fleet_manifest, merge_decisions, serve,
                           shard_file_name, shard_of_bank)
from repro.telemetry.events import ErrorRecord, ErrorType

MAX_SKEW = 600.0


def rec(seq, t, row, bank=0, error_type=ErrorType.CE):
    address = DeviceAddress(node=0, npu=0, hbm=0, sid=0, channel=0,
                            pseudo_channel=0, bank_group=0, bank=bank,
                            row=row, column=0)
    return ErrorRecord(timestamp=t, sequence=seq, address=address,
                       error_type=error_type)


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
    stream = [r for r in small_dataset.store if r.bank_key in test_set]
    return bounded_shuffle(stream, MAX_SKEW, seed=5)


@pytest.fixture(scope="module")
def truth(small_dataset, bank_split):
    _, test = bank_split
    return {bank: small_dataset.bank_truth[bank].uer_row_sequence
            for bank in test
            if small_dataset.bank_truth[bank].uer_row_sequence}


@pytest.fixture(scope="module")
def baseline(cordial, test_stream):
    service = CordialService(cordial, max_skew=MAX_SKEW)
    _, outcome = serve(service, test_stream)
    service, decisions = outcome.service, outcome.decisions
    return service, decisions


def decisions_json(decisions):
    return json.dumps([d.to_obj() for d in decisions], sort_keys=True)


def run_fleet(cordial, stream, n_shards, n_jobs=1, **kwargs):
    engine = ShardedCordialEngine(cordial, n_shards, n_jobs=n_jobs,
                                  max_skew=MAX_SKEW, **kwargs)
    try:
        for record in stream:
            engine.submit(record)
        return engine.finish()
    finally:
        engine.close()


class TestShardCountInvariance:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_fleet_matches_single_service(self, cordial, test_stream, truth,
                                          baseline, n_shards):
        """(a): the shard count never shows up in the results."""
        expect_service, expect = baseline
        outcome = run_fleet(cordial, test_stream, n_shards)

        assert decisions_json(outcome.decisions) == decisions_json(expect)
        assert outcome.service.coverage(truth) == \
            expect_service.coverage(truth)
        assert outcome.stats == expect_service.stats.to_dict()
        plain = expect_service.metrics.as_dict(include_histograms=False)
        assert outcome.metrics["counters"] == plain["counters"]
        # The merged service is the real thing: full state parity, modulo
        # the metrics block (the merge keeps counters only — gauges and
        # histograms are wall-clock, not shard-count-invariant).
        merged_state = outcome.service.state_dict()
        expect_state = expect_service.state_dict()
        assert merged_state["metrics"]["counters"] == \
            expect_state["metrics"]["counters"]
        merged_state.pop("metrics")
        expect_state.pop("metrics")
        assert json.dumps(merged_state, sort_keys=True) == \
            json.dumps(expect_state, sort_keys=True)

    def test_decision_sequence_is_not_exported(self, baseline):
        """The merge key rides on the dataclass but stays out of the
        serialised decision (digests are unchanged by this PR)."""
        _, expect = baseline
        assert expect, "stream produced no decisions"
        assert all("sequence" not in d.to_obj() for d in expect)
        assert all(d.sequence >= 0 for d in expect)

    def test_process_workers_change_nothing(self, cordial, test_stream,
                                            baseline):
        """(b): spawned workers are a pure wall-clock knob."""
        _, expect = baseline
        outcome = run_fleet(cordial, test_stream, 4, n_jobs=2)
        assert decisions_json(outcome.decisions) == decisions_json(expect)


class TestFleetCheckpoint:
    def test_checkpoint_restart_resumes_identically(self, cordial,
                                                    test_stream, baseline,
                                                    tmp_path):
        """(c): the fleet crash/restart path is invisible in the output."""
        expect_service, expect = baseline
        engine = ShardedCordialEngine(cordial, 2, max_skew=MAX_SKEW)
        try:
            engine, outcome = serve(
                engine, test_stream,
                checkpoint_path=str(tmp_path / "fleet.ckpt"),
                kill_points=[len(test_stream) // 2])
        finally:
            engine.close()
        assert engine.epoch == 1  # the restart really happened
        assert decisions_json(outcome.decisions) == decisions_json(expect)
        assert outcome.stats == expect_service.stats.to_dict()

    def test_resharded_restore(self, cordial, test_stream, baseline,
                               tmp_path):
        """(c): a fleet saved at 4 shards restores onto 2, bit-identically."""
        _, expect = baseline
        directory = str(tmp_path / "reshard.ckpt")
        half = len(test_stream) // 2

        engine = ShardedCordialEngine(cordial, 4, max_skew=MAX_SKEW)
        try:
            for record in test_stream[:half]:
                engine.submit(record)
            engine.checkpoint(directory)
            segments = engine.drain_segments()
        finally:
            engine.close()

        manifest = load_fleet_manifest(directory)
        assert manifest["n_shards"] == 4
        assert all(os.path.exists(os.path.join(directory, name))
                   for name in manifest["shards"])

        successor = ShardedCordialEngine.restore(directory, n_shards=2)
        try:
            for record in test_stream[half:]:
                successor.submit(record)
            outcome = successor.finish()
        finally:
            successor.close()
        decisions = merge_decisions(segments + [outcome.decisions])
        assert decisions_json(decisions) == decisions_json(expect)

    def test_corruption_taxonomy(self, cordial, test_stream, tmp_path):
        """(e): damage is CheckpointCorruptionError, honest version skew
        is ModelPersistenceError — same taxonomy as single-service."""
        directory = str(tmp_path / "fleet.ckpt")
        engine = ShardedCordialEngine(cordial, 2, max_skew=MAX_SKEW)
        try:
            for record in test_stream[:40]:
                engine.submit(record)
            manifest_path = engine.checkpoint(directory)
        finally:
            engine.close()

        original = open(manifest_path, "rb").read()

        with open(manifest_path, "wb") as handle:
            handle.write(original[:len(original) // 2])
        with pytest.raises(CheckpointCorruptionError):
            load_fleet_manifest(directory)

        document = json.loads(original)
        document["version"] = 99
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(ModelPersistenceError):
            load_fleet_manifest(directory)

        document["version"] = 1
        document["shards"][0] = "/etc/passwd"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointCorruptionError):
            load_fleet_manifest(directory)

        with open(manifest_path, "wb") as handle:
            handle.write(original)
        os.remove(os.path.join(directory, shard_file_name(0)))
        with pytest.raises(CheckpointCorruptionError):
            load_fleet_manifest(directory)


class TestRouter:
    def test_shard_assignment_is_stable_and_total(self):
        keys = [(0, 0, 0, 0, 0, 0, 0, b) for b in range(32)]
        for n_shards in (1, 2, 4, 7):
            shards = [shard_of_bank(k, n_shards) for k in keys]
            assert shards == [shard_of_bank(k, n_shards) for k in keys]
            assert all(0 <= s < n_shards for s in shards)
        # More than one shard actually receives traffic at n=4.
        assert len({shard_of_bank(k, 4) for k in keys}) > 1

    def test_router_quarantines_like_a_collector(self, cordial):
        """(d): malformed / non-finite / hopelessly-late records fall
        into the router's ledger with the collector's exact reasons."""
        service = CordialService(cordial, max_skew=10.0)
        router = FleetRouter(4, max_skew=10.0)
        stream = [rec(0, 1000.0, 1), None, rec(1, float("nan"), 2),
                  rec(2, 1.0, 3), rec(3, 1001.0, 4)]
        for item in stream:
            service.ingest(item)
            router.route(item)
        assert router.dead_letter_counts == \
            service.collector.dead_letter_counts
        assert router.dead_letter_counts == {"late": 1, "malformed": 2}
        # The whole ledger matches: reason, detail, timestamp and record.
        assert router.dead_letters == service.collector.dead_letters

    def test_routed_records_never_requarantined(self, cordial, test_stream):
        """Records the router accepts pass their shard collector: the
        fleet dead-letter ledger lives on the coordinator alone."""
        outcome = run_fleet(cordial, test_stream, 4)
        fleet_dead = outcome.service.collector.dead_letter_counts
        plain = CordialService(cordial, max_skew=MAX_SKEW)
        for record in test_stream:
            plain.ingest(record)
        plain.flush()
        assert fleet_dead == plain.collector.dead_letter_counts


class TestServingPathFixes:
    def test_checkpoint_at_outside_stream_raises(self, cordial, test_stream):
        service = CordialService(cordial, max_skew=MAX_SKEW)
        with pytest.raises(ValueError, match="never fire"):
            serve(service, test_stream[:10],
                  checkpoint_path="unused.ckpt.json", kill_points=[11])
        with pytest.raises(ValueError, match="never fire"):
            serve(service, test_stream[:10],
                  checkpoint_path="unused.ckpt.json", kill_points=[0])
        # One stray point among valid ones is not silently dropped.
        with pytest.raises(ValueError, match=r"\[11\] outside"):
            serve(service, test_stream[:10],
                  checkpoint_path="unused.ckpt.json", kill_points=[3, 11])
        # Kill points without a checkpoint path could never restart.
        with pytest.raises(ValueError, match="need a checkpoint_path"):
            serve(service, test_stream[:10], kill_points=[3])

    def test_sharded_checkpoint_at_outside_stream_raises(self, cordial,
                                                         test_stream,
                                                         tmp_path):
        engine = ShardedCordialEngine(cordial, 2, max_skew=MAX_SKEW)
        try:
            with pytest.raises(ValueError, match="never fire"):
                serve(engine, test_stream[:10],
                      checkpoint_path=str(tmp_path / "c"), kill_points=[11])
        finally:
            engine.close()

    def test_report_dead_letters_are_key_sorted(self, cordial):
        service = CordialService(cordial, max_skew=10.0)
        service.ingest(rec(0, 1000.0, 1))
        service.ingest(None)          # "malformed" inserted first
        service.ingest(rec(1, 1.0, 2))  # then "late"
        service.flush()
        report = build_report(service, [], {})
        histogram = report["summary"]["events_dead_lettered"]
        assert list(histogram) == sorted(histogram)
        assert histogram == {"late": 1, "malformed": 1}

    def test_bounded_shuffle_rejects_non_finite_timestamps(self):
        stream = [rec(0, 1.0, 1), rec(1, float("nan"), 2),
                  rec(2, math.inf, 3)]
        with pytest.raises(ValueError, match="non-finite"):
            bounded_shuffle(stream, 60.0, seed=1)
        # Skew 0 is the identity and touches no arithmetic.
        identity = bounded_shuffle(stream, 0.0, seed=1)
        assert [id(r) for r in identity] == [id(r) for r in stream]


class TestCLI:
    def test_serve_replay_with_shards_smoke(self, tmp_path):
        output = tmp_path / "serve_metrics.json"
        code = runner.main([
            "serve-replay", "--scale", "0.08", "--seed", "11",
            "--max-skew", "600", "--shuffle", "--shards", "2",
            "--checkpoint", str(tmp_path / "fleet.ckpt"),
            "--output", str(output),
        ])
        assert code == 0
        report = json.loads(output.read_text())
        assert report["config"]["shards"] == 2
        assert report["summary"]["events_ingested"] > 0
        assert (tmp_path / "fleet.ckpt" / "manifest.json").exists()
        assert "collector.events_ingested" in report["metrics"]["counters"]

    @pytest.mark.parametrize("argv", [
        ["serve-replay", "--shards", "0"],
        ["serve-replay", "--checkpoint-at", "0"],
        ["serve-replay", "--jobs", "-1"],
        ["chaos", "--shards", "0"],
    ])
    def test_bad_counts_are_rejected_by_the_parser(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(argv)
        assert excinfo.value.code == 2
