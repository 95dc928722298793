"""Property and acceptance tests of the chaos harness.

Three layers:

* operator unit tests — each perturbation is deterministic, conserving
  (or exactly accounting for) the stream it transforms;
* oracle negative tests — a deliberately injected violation (spare-budget
  overcommit, metrics tampering, undetected checkpoint tamper, unbounded
  divergence) is caught and named;
* campaign acceptance — the house plan (all six operators, kill/restore
  faults, checkpoint tampering) over a fixed seed passes every invariant
  and reruns byte-identically, and so do campaigns across a range of
  seeds.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.chaos import (CampaignConfig, ChaosPlan, InvariantOracle,
                         OPERATORS, OperatorSpec, apply_operator,
                         KillHook, default_plan, is_error_record)
from repro.chaos.campaign import decisions_digest, run_campaign
from repro.chaos.operators import (op_burst, op_clock_jitter, op_corrupt,
                                   op_drop, op_duplicate, op_reorder)
from repro.chaos.oracle import CleanBaseline
from repro.core.online import CordialService
from repro.core.pipeline import Cordial
from repro.serving import serve
from repro.hbm.address import DeviceAddress
from repro.telemetry.events import ErrorRecord, ErrorType


def rec(seq, t, row=1, error_type=ErrorType.CE):
    address = DeviceAddress(node=0, npu=0, hbm=0, sid=0, channel=0,
                            pseudo_channel=0, bank_group=0, bank=0,
                            row=row, column=0)
    return ErrorRecord(timestamp=t, sequence=seq, address=address,
                       error_type=error_type)


def stream_of(n, spacing=10.0):
    return [rec(i, i * spacing, row=i % 32) for i in range(n)]


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


class TestOperators:
    def test_drop_is_exact_and_deterministic(self):
        stream = stream_of(200)
        out, dropped = op_drop(stream, rng(3), rate=0.2)
        assert len(out) + dropped == len(stream)
        assert 0 < dropped < len(stream)
        again, dropped2 = op_drop(stream, rng(3), rate=0.2)
        assert again == out and dropped2 == dropped
        assert op_drop(stream, rng(3), rate=0.0) == (stream, 0)

    def test_duplicate_adds_exactly_applied_items(self):
        stream = stream_of(100)
        out, applied = op_duplicate(stream, rng(1), rate=0.3,
                                    max_delay_events=4)
        assert applied > 0
        assert len(out) == len(stream) + applied
        # Every original item survives, in its original relative order,
        # and each sequence appears at most twice.
        sequences = [r.sequence for r in out]
        assert [s for s in dict.fromkeys(sequences)] == \
               [r.sequence for r in stream]
        assert all(sequences.count(r.sequence) <= 2 for r in stream)

    def test_reorder_forces_late_dead_letters(self):
        from repro.telemetry.collector import BMCCollector

        stream = stream_of(100, spacing=100.0)
        out, applied = op_reorder(stream, rng(7), rate=0.2,
                                  displacement=500.0)
        assert applied > 0
        assert sorted(r.sequence for r in out) == list(range(100))
        assert [r.sequence for r in out] != list(range(100))
        # Displaced beyond the skew window, the held records must land
        # in the dead-letter queue — never silently in a bank history.
        collector = BMCCollector(max_skew=50.0)
        released = []
        for record in out:
            released.extend(collector.ingest(record))
        released.extend(collector.flush())
        late = collector.dead_letter_counts.get("late", 0)
        assert late > 0
        assert len(released) + late == len(out)

    def test_clock_jitter_shifts_times_not_order(self):
        stream = stream_of(50)
        out, applied = op_clock_jitter(stream, rng(2), sigma=5.0, rate=1.0)
        assert applied == 50
        assert [r.sequence for r in out] == [r.sequence for r in stream]
        assert any(a.timestamp != b.timestamp
                   for a, b in zip(out, stream))
        assert all(r.timestamp >= 0.0 for r in out)

    def test_corrupt_damages_selected_records(self):
        stream = stream_of(60)
        out, applied = op_corrupt(stream, rng(5), rate=1.0)
        assert applied == 60 and len(out) == 60
        kinds = {"dict": 0, "nan": 0, "row": 0}
        for original, item in zip(stream, out):
            if isinstance(item, dict):
                kinds["dict"] += 1
            elif is_error_record(item) and math.isnan(item.timestamp):
                kinds["nan"] += 1
            else:
                assert item.address.row != original.address.row
                kinds["row"] += 1
        assert all(kinds.values())  # every corruption mode occurred

    def test_burst_permutes_within_chunks_only(self):
        stream = stream_of(64)
        out, applied = op_burst(stream, rng(9), rate=1.0, burst_size=8)
        assert applied == 8
        assert len(out) == 64
        for start in range(0, 64, 8):
            chunk = {r.sequence for r in out[start:start + 8]}
            assert chunk == set(range(start, start + 8))

    def test_operators_tolerate_garbage_items(self):
        stream = stream_of(20)
        stream[3] = {"not": "a record"}
        stream[11] = None
        for name in OPERATORS:
            out, _ = apply_operator(name, stream, rng(4), {})
            assert isinstance(out, list)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos operator"):
            apply_operator("meteor_strike", stream_of(3), rng(0), {})


class TestPlan:
    def test_default_plan_covers_every_operator(self):
        plan = default_plan()
        assert len(plan.operators) >= 6
        assert {spec.name for spec in plan.operators} == set(OPERATORS)

    def test_round_trips_through_json(self):
        plan = default_plan(max_skew=1800.0, kills_per_run=3, intensity=0.5)
        rebuilt = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown plan fields"):
            ChaosPlan.from_dict({"operators": [], "surprise": 1})
        with pytest.raises(ValueError, match="unknown chaos operator"):
            OperatorSpec("nope")
        with pytest.raises(ValueError, match="unknown tamper mode"):
            ChaosPlan(operators=(), tamper_modes=("scribble",))


class TestOracleCatchesInjectedViolations:
    """The oracle is only trustworthy if sabotage actually trips it."""

    @pytest.fixture()
    def outcome(self, cordial, test_stream, tmp_path):
        service = CordialService(cordial, max_skew=3600.0)
        hook = KillHook(rng(0))
        _, served = serve(service, test_stream[:60], kill_points=[30],
                          checkpoint_path=str(tmp_path / "sab.ckpt"),
                          on_kill=hook)
        return hook.outcome(served)

    def test_clean_outcome_is_healthy(self, outcome, truth, tmp_path):
        oracle = InvariantOracle(default_plan())
        icr = outcome.service.coverage(truth)
        assert oracle.check_run(outcome, icr,
                                str(tmp_path / "scratch.ckpt")) == []

    def test_spare_budget_overcommit_is_caught(self, outcome, truth,
                                               tmp_path):
        service = outcome.service
        budget = service.replay.spares_per_bank
        bank = (0, 0, 0, 0, 0, 0, 0)
        service.replay.row_ctrl._spared[bank] = {
            row: 1.0 for row in range(budget + 5)}
        oracle = InvariantOracle(default_plan())
        violations = oracle.check_run(
            outcome, outcome.service.coverage(truth),
            str(tmp_path / "scratch.ckpt"))
        assert "spare_budget" in {v.invariant for v in violations}

    def test_metrics_tampering_is_caught(self, outcome):
        outcome.service.metrics.counter("collector.triggers_fired").inc()
        oracle = InvariantOracle(default_plan())
        violations = oracle.check_metrics_consistency(outcome.service)
        assert [v.invariant for v in violations] == ["metrics_consistency"]

    def test_event_leak_is_caught(self, outcome):
        outcome.service.metrics.counter("collector.events_ingested").inc(3)
        oracle = InvariantOracle(default_plan())
        violations = oracle.check_event_conservation(outcome.service)
        assert violations
        assert all(v.invariant == "event_conservation" for v in violations)

    def test_undetected_tamper_is_caught(self, outcome):
        from repro.chaos.faults import TamperTrial

        outcome.tamper_trials.append(
            TamperTrial(mode="truncate", detected=False, error=""))
        oracle = InvariantOracle(default_plan())
        violations = oracle.check_tamper_detection(outcome)
        assert [v.invariant for v in violations] == ["tamper_detection"]

    def test_unbounded_divergence_is_caught(self):
        oracle = InvariantOracle(
            default_plan(),
            clean=CleanBaseline(decision_count=1000, icr=0.9))
        violations = oracle.check_bounded_divergence(decision_count=0,
                                                     icr=0.1)
        assert {v.invariant for v in violations} == {"bounded_divergence"}

    def test_rewritten_isolation_history_is_caught(self, outcome):
        snapshots = [dict(s) for s in outcome.isolation_snapshots]
        if not any(s["spared_rows"] for s in snapshots):
            pytest.skip("no rows spared in this slice")
        # Forge a snapshot pair where an isolation time changed.
        import copy

        forged = copy.deepcopy(snapshots[-1])
        forged["spared_rows"][0][1][0][1] += 1.0
        oracle = InvariantOracle(default_plan())
        violations = oracle.check_isolation_monotonicity(
            outcome.service, [snapshots[-1], forged])
        assert "isolation_monotonicity" in {v.invariant for v in violations}


class TestCampaignAcceptance:
    @pytest.fixture(scope="class")
    def plan(self):
        return default_plan(max_skew=3600.0, kills_per_run=1)

    @pytest.fixture(scope="class")
    def acceptance(self, cordial, test_stream, truth, plan,
                   tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("chaos-acceptance"))
        return run_campaign(cordial, test_stream[:160], truth, plan,
                            CampaignConfig(runs=20, seed=0), workdir,
                            context={"suite": "acceptance"})

    def test_fixed_seed_campaign_passes_all_invariants(self, acceptance,
                                                       plan):
        assert len(plan.operators) >= 6
        assert len(acceptance["runs"]) >= 20
        assert acceptance["violations_total"] == 0
        assert acceptance["ok"] is True
        # Kill/restore faults genuinely happened ...
        assert all(run["restores"] >= 1 for run in acceptance["runs"])
        # ... and every tampered checkpoint was rejected, typed.
        trials = [t for run in acceptance["runs"]
                  for t in run["tamper_trials"]]
        assert trials and all(t["detected"] for t in trials)
        # The operators did real damage somewhere in the campaign.
        applied = {}
        for run in acceptance["runs"]:
            for op in run["operators"]:
                applied[op["name"]] = (applied.get(op["name"], 0)
                                       + op["applied"])
        assert set(applied) == {s.name for s in plan.operators}
        assert all(count > 0 for count in applied.values())

    def test_campaign_reruns_byte_identically(self, acceptance, cordial,
                                              test_stream, truth, plan,
                                              tmp_path):
        again = run_campaign(cordial, test_stream[:160], truth, plan,
                             CampaignConfig(runs=20, seed=0),
                             str(tmp_path),
                             context={"suite": "acceptance"})
        assert json.dumps(again, sort_keys=True) == \
               json.dumps(acceptance, sort_keys=True)

    def test_different_seed_changes_the_campaign(self, acceptance, cordial,
                                                 test_stream, truth, plan,
                                                 tmp_path):
        other = run_campaign(cordial, test_stream[:160], truth, plan,
                             CampaignConfig(runs=2, seed=1),
                             str(tmp_path))
        assert other["campaign_digest"] != acceptance["campaign_digest"]

    def test_campaigns_pass_across_seeds(self, cordial, test_stream, truth,
                                         plan, tmp_path):
        for seed in range(3):
            report = run_campaign(cordial, test_stream[:120], truth, plan,
                                  CampaignConfig(runs=2, seed=seed),
                                  str(tmp_path))
            assert report["ok"], report["runs"]

    def test_report_carries_no_filesystem_paths(self, acceptance, tmp_path):
        text = json.dumps(acceptance)
        assert "tmp" not in text and "ckpt" not in text

    def test_dead_letter_reasons_aggregate_across_runs(self, acceptance):
        # Regression: the campaign roll-up used to drop the per-reason
        # dead-letter histogram the run summaries carry, so the report
        # could not be reconciled against a journal's quarantine ledger.
        expect = {}
        for run in acceptance["runs"]:
            for reason, count in run["summary"]["dead_letters"].items():
                expect[reason] = expect.get(reason, 0) + count
        assert acceptance["dead_letters_total"] == expect
        # The house plan's reorder/corrupt operators guarantee real
        # quarantines somewhere in 20 runs.
        assert sum(expect.values()) > 0

    def test_observed_campaign_report_is_unchanged(self, acceptance,
                                                   cordial, test_stream,
                                                   truth, plan, tmp_path):
        # Observability attaches to the clean baseline only and must
        # leave the byte-stable report untouched.
        from repro.obs import FakeClock, Observability, SpanTracer

        obs = Observability(tracer=SpanTracer(clock=FakeClock()))
        observed = run_campaign(cordial, test_stream[:160], truth, plan,
                                CampaignConfig(runs=20, seed=0),
                                str(tmp_path),
                                context={"suite": "acceptance"}, obs=obs)
        assert json.dumps(observed, sort_keys=True) == \
               json.dumps(acceptance, sort_keys=True)
        # The journal witnessed the campaign: one run event per run,
        # plus the closing roll-up that matches the report.
        runs = [e for e in obs.journal.events if e["type"] == "run"]
        assert len(runs) == 20
        closing = [e for e in obs.journal.events
                   if e["type"] == "campaign"]
        assert len(closing) == 1
        assert closing[0]["dead_letters_total"] == \
               observed["dead_letters_total"]


class TestCorruptStreamServing:
    def test_nan_corruption_is_quarantined_exactly_once(self, cordial):
        # The op_corrupt "timestamp_nan" payload must land in the
        # malformed dead-letter queue without wedging the reorder buffer.
        service = CordialService(cordial, max_skew=100.0)
        poisoned = dataclasses.replace(rec(99, 50.0), timestamp=math.nan)
        for item in [rec(0, 0.0), poisoned, rec(1, 10.0), rec(2, 20.0)]:
            service.ingest(item)
        service.flush()
        assert service.collector.dead_letter_counts == {"malformed": 1}
        assert service.collector.pending_count == 0
        assert service.stats.events_ingested == 4

    def test_decision_digest_is_stable(self, cordial, test_stream):
        service = CordialService(cordial, max_skew=3600.0)
        decisions = serve(service, test_stream[:80])[1].decisions
        service2 = CordialService(cordial, max_skew=3600.0)
        decisions2 = serve(service2, test_stream[:80])[1].decisions
        assert decisions_digest(decisions) == decisions_digest(decisions2)
