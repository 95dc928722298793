"""Observability is passive: observed and unobserved runs are identical.

The acceptance contract of ``repro.obs``: attaching the full bundle
(tracer + journal + audit trail) to a serving run changes *nothing*
about the decision stream, the ICR, or the checkpointable service state
— while the journal and audit trail agree exactly with what the service
reports having done.
"""

import json

import pytest

from repro.core.online import CordialService
from repro.core.persistence import (load_service_checkpoint,
                                    save_service_checkpoint)
from repro.core.pipeline import Cordial
from repro.serving import serve
from repro.obs import FakeClock, Observability


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


def make_obs(**kwargs):
    return Observability.create(clock=FakeClock(), **kwargs)


def decisions_json(decisions):
    return json.dumps([d.to_obj() for d in decisions], sort_keys=True)


class TestDecisionEquivalence:
    def test_observed_run_matches_unobserved(self, cordial, test_stream,
                                             truth):
        plain = CordialService(cordial)
        expect = serve(plain, test_stream)[1].decisions

        obs = make_obs()
        observed = CordialService(cordial, obs=obs)
        got = serve(observed, test_stream)[1].decisions

        assert decisions_json(got) == decisions_json(expect)
        assert observed.coverage(truth) == plain.coverage(truth)
        # The non-obs slice of the state dict is untouched too — modulo
        # the wall-clock latency histograms, the one nondeterministic
        # part of any two runs (observed or not).
        observed_state = observed.state_dict()
        observed_state.pop("obs")
        plain_state = plain.state_dict()
        for state in (observed_state, plain_state):
            state["metrics"].pop("histograms")
        assert observed_state == plain_state

    def test_attributions_do_not_change_decisions(self, cordial,
                                                  test_stream):
        plain = CordialService(cordial)
        expect = serve(plain, test_stream[:400])[1].decisions

        obs = make_obs(attributions=True)
        observed = CordialService(cordial, obs=obs)
        got = serve(observed, test_stream[:400])[1].decisions

        assert decisions_json(got) == decisions_json(expect)
        attributed = [r for r in obs.audit.records
                      if r["attributions"]]
        for record in attributed:
            for entries in record["attributions"].values():
                assert entries and all("delta" in e for e in entries)

    def test_unobserved_checkpoint_has_no_obs_key(self, cordial,
                                                  test_stream):
        service = CordialService(cordial)
        for record in test_stream[:50]:
            service.ingest(record)
        assert "obs" not in service.state_dict()


class TestAuditAgreement:
    def test_every_row_decision_is_audited(self, cordial, test_stream):
        obs = make_obs()
        service = CordialService(cordial, obs=obs)
        decisions = serve(service, test_stream)[1].decisions

        audited = obs.audit.records
        assert len(audited) == len(decisions)
        for decision, record in zip(decisions, audited):
            assert tuple(record["bank_key"]) == decision.bank_key
            assert record["action"] == decision.action
            assert record["timestamp"] == decision.timestamp
            assert record["kind"] == ("reprediction"
                                      if decision.is_reprediction
                                      else "trigger")
            if decision.action == "row-spare":
                assert record["rows_requested"] == list(decision.rows)
                assert record["threshold"] == \
                    cordial.predictor.effective_threshold
                flagged = record["flagged_blocks"]
                assert len(record["probabilities"]) == \
                    len(record["block_ranges"])
                for block in flagged:
                    assert (record["probabilities"][block]
                            >= record["threshold"])
        # explain() resolves every spared row to at least one decision.
        some_row_spare = next(d for d in decisions
                              if d.action == "row-spare" and d.rows)
        found = obs.audit.explain(some_row_spare.bank_key,
                                  some_row_spare.rows[0])
        assert any(r["timestamp"] == some_row_spare.timestamp
                   for r in found)

    def test_journal_counts_match_service_stats(self, cordial,
                                                test_stream):
        obs = make_obs()
        service = CordialService(cordial, obs=obs)
        serve(service, test_stream)

        counts = obs.journal.summary()["counts_by_type"]
        assert counts.get("trigger", 0) == service.stats.triggers_fired
        assert counts.get("reprediction", 0) == \
            service.stats.repredictions
        assert counts.get("isolation", 0) == sum(
            service.stats.decisions_by_action.values())
        assert obs.journal.summary()["ingests_seen"] == \
            service.stats.events_ingested


class TestCheckpointV3:
    def test_audit_trail_rides_in_the_checkpoint(self, cordial,
                                                 test_stream, tmp_path):
        obs = make_obs()
        service = CordialService(cordial, obs=obs)
        for record in test_stream[:len(test_stream) // 2]:
            service.ingest(record)
        path = str(tmp_path / "v3.ckpt.json")
        save_service_checkpoint(service, path)

        document = json.loads(open(path).read())
        assert document["version"] == 3
        assert "obs" in document["state"]

        restored = load_service_checkpoint(path)
        assert restored.obs is not None
        assert restored.obs.audit.records == obs.audit.records
        assert restored.state_dict() == service.state_dict()

    def test_midstream_restore_with_obs_matches_clean_run(
            self, cordial, test_stream, truth, tmp_path):
        plain = CordialService(cordial)
        expect = serve(plain, test_stream)[1].decisions

        obs = make_obs()
        service = CordialService(cordial, obs=obs)
        service, outcome = serve(
            service, test_stream,
            checkpoint_path=str(tmp_path / "mid.ckpt.json"),
            kill_points=[len(test_stream) // 2])
        got = outcome.decisions

        assert decisions_json(got) == decisions_json(expect)
        assert service.coverage(truth) == plain.coverage(truth)
        # The journal recorded the restart, and the audit kept growing
        # past it on the same live bundle.
        kinds = [e["kind"] for e in obs.journal.events
                 if e["type"] == "checkpoint"]
        assert kinds == ["save", "restore"]
        assert service.obs is obs
        assert len(obs.audit.records) == len(got)

    def test_restored_audit_keeps_answering(self, cordial, test_stream,
                                            tmp_path):
        obs = make_obs()
        service = CordialService(cordial, obs=obs)
        for record in test_stream:
            service.ingest(record)
        service.flush()
        path = str(tmp_path / "final.ckpt.json")
        save_service_checkpoint(service, path)
        restored = load_service_checkpoint(path)

        target = next(r for r in obs.audit.records if r["rows_requested"])
        bank = tuple(target["bank_key"])
        row = target["rows_requested"][0]
        assert restored.obs.audit.explain(bank, row) == \
            obs.audit.explain(bank, row)


class TestTracerOverheadShape:
    def test_span_per_ingest(self, cordial, test_stream):
        obs = make_obs()
        service = CordialService(cordial, obs=obs)
        for record in test_stream[:100]:
            service.ingest(record)
        service.flush()
        summary = obs.tracer.summary()
        assert summary["by_name"]["service.ingest"]["count"] == 100
        assert summary["by_name"]["service.flush"]["count"] == 1
