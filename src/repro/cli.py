"""Operator CLI: the fleet workflow from log files alone.

Six subcommands covering the deployment loop:

* ``generate`` — synthesise a fleet and write its MCE log to disk;
* ``train``    — train a Cordial pipeline *from a log file* (bank pattern
  labels come from the observational labeller over each bank's complete
  history — no generator ground truth needed) and save it as JSON;
* ``predict``  — load a saved pipeline, replay a log, and print/emit the
  isolation decisions;
* ``serve``    — replay a log through the *online* sharded fleet engine
  (``repro.serving``), optionally under shard supervision, and emit the
  decision stream plus merged stats/metrics;
* ``evaluate`` — split a log 7:3, train, score pattern/block/ICR
  metrics, and write a markdown report;
* ``analyze``  — run the empirical-study battery (Tables I-II, Figures
  3-4 data) over a log file.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.locality import (compute_locality_chisquare,
                                     format_locality_curve)
from repro.analysis.sudden import compute_sudden_uer_table, format_sudden_table
from repro.analysis.summary import compute_dataset_summary, format_summary_table
from repro.core.patterns import label_bank_pattern
from repro.hbm.address import MicroLevel
from repro.telemetry.events import ErrorType
from repro.core.persistence import load_cordial, save_cordial
from repro.core.pipeline import Cordial
from repro.datasets import FleetGenConfig, generate_fleet_dataset
from repro.ml.selection import train_test_split_groups
from repro.telemetry.collector import BMCCollector
from repro.telemetry.mcelog import read_mce_log, write_mce_log
from repro.telemetry.store import ErrorStore


def _load_store(path: str) -> ErrorStore:
    return ErrorStore(read_mce_log(path))


# -- subcommands -----------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def cmd_generate(args: argparse.Namespace) -> int:
    """Synthesise a fleet and write its MCE log.

    ``--jobs`` shards fault realisation over worker processes; the log is
    bit-identical for any value (the dataset determinism contract).
    """
    dataset = generate_fleet_dataset(FleetGenConfig(scale=args.scale),
                                     seed=args.seed, jobs=args.jobs)
    count = write_mce_log(dataset.store, args.output)
    print(f"wrote {count:,} events ({len(dataset.uer_banks)} UER banks) "
          f"to {args.output}")
    return 0


def _labels_from_log(store: ErrorStore, banks, trigger_uer_rows: int):
    """Observational pattern labels from complete bank histories."""
    labels = {}
    for bank in banks:
        uers = store.uer_rows_of_bank(bank)
        rows = [r.row for r in uers]
        columns = [r.column for r in uers]
        labels[bank] = label_bank_pattern(rows, columns)
    return labels


def cmd_train(args: argparse.Namespace) -> int:
    """Train Cordial from an MCE log and save the pipeline."""
    store = _load_store(args.log)
    banks = store.banks_with_min_uer_rows(args.trigger)
    if len(banks) < 10:
        print(f"error: only {len(banks)} banks reach {args.trigger} UER "
              "rows; need at least 10 to train", file=sys.stderr)
        return 1
    labels = _labels_from_log(store, banks, args.trigger)
    print(f"{len(banks)} trainable banks; label mix: "
          + ", ".join(f"{p.value}={sum(1 for v in labels.values() if v is p)}"
                      for p in set(labels.values())))

    # Wrap the log into the dataset protocol Cordial.fit expects.
    from repro.datasets.fleetgen import BankGroundTruth, FleetDataset

    truth = {}
    for bank in banks:
        uers = store.uer_rows_of_bank(bank)
        truth[bank] = BankGroundTruth(
            bank_key=bank, fault_type=None, pattern=labels[bank],
            anchor_rows=(), cluster_width=0,
            uer_row_sequence=tuple((r.timestamp, r.row) for r in uers))
    dataset = FleetDataset(config=FleetGenConfig(), seed=0, store=store,
                           bank_truth=truth)
    cordial = Cordial(model_name=args.model, trigger_uer_rows=args.trigger,
                      random_state=args.seed, n_jobs=args.jobs)
    cordial.fit(dataset, banks)
    save_cordial(cordial, args.output)
    print(f"saved pipeline ({args.model}, threshold "
          f"{cordial.predictor.effective_threshold:.2f}) to {args.output}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Replay a log through a saved pipeline; print decisions."""
    cordial = load_cordial(args.pipeline)
    store = _load_store(args.log)
    collector = BMCCollector(trigger_uer_rows=cordial.trigger_uer_rows)
    decisions: List[dict] = []
    for trigger in collector.replay(store):
        pattern = cordial.classifier.predict(trigger.history)
        decision = {
            "time": trigger.timestamp,
            "bank": list(trigger.bank_key),
            "pattern": pattern.value,
        }
        if pattern.is_aggregation:
            prediction = cordial.predictor.predict(trigger.history,
                                                   trigger.uer_rows[-1])
            decision["action"] = "row-spare"
            decision["rows"] = prediction.rows_to_isolate()
        else:
            decision["action"] = "bank-spare"
            decision["rows"] = []
        decisions.append(decision)
    if args.json:
        json.dump(decisions, sys.stdout, indent=2)
        print()
    else:
        for d in decisions:
            detail = ("whole bank" if d["action"] == "bank-spare"
                      else f"{len(d['rows'])} rows")
            print(f"day {d['time'] / 86400.0:7.1f}  bank "
                  f"{tuple(d['bank'])}  {d['pattern']:<22} -> "
                  f"{d['action']} ({detail})")
    print(f"\n{len(decisions)} decisions from {len(store):,} events",
          file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Replay a log through the sharded fleet engine; emit decisions.

    Unlike ``predict`` (offline trigger replay), this drives the full
    *online* serving path — reorder buffer, quarantine, isolation replay
    — through ``repro.serving``, optionally under shard supervision
    (``--supervise``), and writes the decision stream plus merged
    stats/metrics as JSON.  Decisions are byte-identical for any
    ``--shards`` / ``--jobs`` combination, supervised or not.
    """
    from repro.serving import ShardedCordialEngine, SupervisorConfig, serve

    cordial = load_cordial(args.pipeline)
    store = _load_store(args.log)
    supervisor = None
    if args.supervise:
        supervisor = SupervisorConfig(
            max_restarts=args.max_restarts,
            batch_timeout=args.batch_timeout,
            poison_threshold=args.poison_threshold,
            snapshot_every=args.snapshot_every)
    engine, outcome = serve(
        ShardedCordialEngine(cordial, n_shards=args.shards, n_jobs=args.jobs,
                             max_skew=args.max_skew, supervisor=supervisor),
        list(store))
    payload = {
        "decisions": [d.to_obj() for d in outcome.decisions],
        "stats": outcome.stats,
        "metrics": outcome.metrics,
    }
    if engine.supervisor_metrics is not None:
        payload["supervision"] = engine.supervisor_metrics.as_dict()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    mode = "supervised" if supervisor is not None else "unsupervised"
    print(f"served {len(store):,} events through {args.shards} shard(s) "
          f"({mode}): {len(outcome.decisions)} decisions, "
          f"{outcome.stats['triggers_fired']} triggers")
    print(f"decisions written to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Split a log 7:3, train, evaluate, and write a markdown report."""
    from repro.core.pipeline import evaluate_neighbor_baseline
    from repro.core.report import write_markdown_report
    from repro.core.costmodel import CostParams
    from repro.datasets.fleetgen import BankGroundTruth, FleetDataset

    store = _load_store(args.log)
    banks = store.banks_with_min_uer_rows(args.trigger)
    if len(banks) < 20:
        print(f"error: only {len(banks)} trainable banks; need 20+",
              file=sys.stderr)
        return 1
    labels = _labels_from_log(store, banks, args.trigger)
    truth = {}
    for bank in store.units_with(MicroLevel.BANK, ErrorType.UER):
        uers = store.uer_rows_of_bank(bank)
        truth[bank] = BankGroundTruth(
            bank_key=bank, fault_type=None,
            pattern=labels.get(bank),
            anchor_rows=(), cluster_width=0,
            uer_row_sequence=tuple((r.timestamp, r.row) for r in uers))
    dataset = FleetDataset(config=FleetGenConfig(), seed=0, store=store,
                           bank_truth=truth)
    train, test = train_test_split_groups(banks, test_fraction=0.3,
                                          seed=args.seed)
    cordial = Cordial(model_name=args.model, trigger_uer_rows=args.trigger,
                      random_state=args.seed, n_jobs=args.jobs)
    cordial.fit(dataset, train)
    evaluation = cordial.evaluate(dataset, test)
    baseline = evaluate_neighbor_baseline(dataset, test,
                                          trigger_uer_rows=args.trigger)
    path = write_markdown_report(evaluation, args.output,
                                 baseline=baseline,
                                 cost_params=CostParams(),
                                 title=f"Cordial evaluation — {args.log}")
    print(f"pattern weighted F1 {evaluation.pattern_weighted.f1:.3f}, "
          f"block F1 {evaluation.block_scores.f1:.3f}, "
          f"ICR {evaluation.icr.icr:.2%} "
          f"(baseline {baseline.icr.icr:.2%})")
    print(f"report written to {path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the empirical-study battery over a log file."""
    store = _load_store(args.log)
    print(format_sudden_table(compute_sudden_uer_table(store)))
    print()
    print(format_summary_table(compute_dataset_summary(store)))
    print()
    print(format_locality_curve(compute_locality_chisquare(store)))
    return 0


# -- entry point -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Cordial fleet workflow: generate / train / predict / "
                    "analyze over MCE log files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a fleet MCE log")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for fault realisation "
                        "(output is identical for any value)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train Cordial from an MCE log")
    p.add_argument("--log", required=True)
    p.add_argument("--output", required=True,
                   help="where to save the pipeline JSON")
    p.add_argument("--model", default="Random Forest",
                   choices=["Random Forest", "XGBoost", "LightGBM"])
    p.add_argument("--trigger", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for model training "
                        "(the fitted pipeline is identical for any value)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="replay a log through a pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable decisions")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("serve", help="replay a log through the online "
                       "fleet engine (optionally supervised)")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--output", default="serve_decisions.json",
                   help="decision/stats JSON destination")
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="bank-key shards (decisions identical for any)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (1 = in-process)")
    p.add_argument("--max-skew", type=float, default=0.0, dest="max_skew",
                   help="reorder-buffer window in seconds")
    p.add_argument("--supervise", action="store_true",
                   help="run the fleet under the shard supervisor "
                        "(crash detection, deterministic restart, poison "
                        "quarantine, degraded failover)")
    p.add_argument("--max-restarts", type=int, default=3,
                   dest="max_restarts",
                   help="restart budget per worker before degraded "
                        "failover")
    p.add_argument("--batch-timeout", type=float, default=30.0,
                   dest="batch_timeout",
                   help="seconds of worker silence before hang detection")
    p.add_argument("--poison-threshold", type=_positive_int, default=2,
                   dest="poison_threshold",
                   help="same-batch kills before poison bisection")
    p.add_argument("--snapshot-every", type=_positive_int, default=8,
                   dest="snapshot_every",
                   help="batches between supervisor replay snapshots")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("evaluate", help="train+evaluate over a log and "
                       "write a markdown report")
    p.add_argument("--log", required=True)
    p.add_argument("--output", default="cordial_report.md")
    p.add_argument("--model", default="Random Forest",
                   choices=["Random Forest", "XGBoost", "LightGBM"])
    p.add_argument("--trigger", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for model training "
                        "(results are identical for any value)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="empirical study over a log")
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
