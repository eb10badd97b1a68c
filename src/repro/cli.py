"""Command-line interface.

Usage examples::

    python -m repro list-workloads
    python -m repro run --sensitive vlc-streaming --batch cpubomb \
        --ticks 600 --policy stayaway
    python -m repro compare --sensitive webservice-memory \
        --batch twitter-analysis --ticks 800
    python -m repro template --sensitive vlc-streaming --batch cpubomb \
        --out /tmp/vlc-map.json
    python -m repro run --ticks 600 --record-stream /tmp/run.jsonl
    python -m repro serve --replay /tmp/run.jsonl

Every command prints plain-text tables; experiments are deterministic
for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis.reports import ascii_table
from repro.core.config import StayAwayConfig
from repro.experiments.chaos import FleetMix, run_fleet_comparison
from repro.experiments.runner import run_scenario, run_trio
from repro.experiments.scenarios import Scenario
from repro.workloads.registry import SENSITIVE_WORKLOADS, available_workloads

POLICIES = ("isolated", "unmanaged", "stayaway", "reactive", "qclouds")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stay-Away (Middleware 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="list available workload models")

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sensitive", default="vlc-streaming",
                       help="sensitive workload name")
        p.add_argument("--batch", action="append", default=None,
                       help="batch workload name (repeatable)")
        p.add_argument("--ticks", type=int, default=1200,
                       help="run length in ticks")
        p.add_argument("--batch-start", type=int, default=60,
                       help="tick at which batch containers start")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    run_parser = sub.add_parser("run", help="run one scenario under one policy")
    add_scenario_args(run_parser)
    run_parser.add_argument("--policy", choices=POLICIES, default="stayaway")
    run_parser.add_argument(
        "--no-telemetry", action="store_true",
        help="disable controller self-telemetry (stage timers + period rows)")
    run_parser.add_argument(
        "--show-telemetry", action="store_true",
        help="print per-stage controller timings and the last three period rows")
    run_parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="write the telemetry JSON snapshot to PATH")
    run_parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the per-run trace (one JSON row per period) to PATH")
    run_parser.add_argument(
        "--prometheus-out", metavar="PATH", default=None,
        help="write the metrics in Prometheus text format to PATH")
    run_parser.add_argument(
        "--record-stream", metavar="PATH", default=None,
        help="record the run as a replayable wire-record stream (JSONL) "
             "for `repro serve --replay PATH`")

    compare_parser = sub.add_parser(
        "compare", help="run isolated/unmanaged/stay-away and compare"
    )
    add_scenario_args(compare_parser)

    template_parser = sub.add_parser(
        "template", help="learn a map with Stay-Away and save it as JSON"
    )
    add_scenario_args(template_parser)
    template_parser.add_argument("--out", required=True,
                                 help="output template path")

    fleet_parser = sub.add_parser(
        "fleet", help="run the fleet chaos drill (coordinator vs per-host vs none)"
    )
    fleet_parser.add_argument("--hosts", type=int, default=12,
                              help="fleet size (default 12)")
    fleet_parser.add_argument("--ticks", type=int, default=240,
                              help="chaos-phase ticks (default 240)")
    fleet_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    fleet_parser.add_argument("--host-crash", type=float, default=0.002,
                              help="per-host per-tick crash probability")
    fleet_parser.add_argument("--blackout", type=float, default=0.01,
                              help="per-host per-tick telemetry-blackout probability")

    serve_parser = sub.add_parser(
        "serve",
        help="run the controller as a service over a metric stream",
    )
    serve_source = serve_parser.add_mutually_exclusive_group(required=True)
    serve_source.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay a recorded wire-record stream (JSONL from "
             "`repro run --record-stream`)")
    serve_source.add_argument(
        "--scrape", metavar="PATH", default=None,
        help="poll a Prometheus text-exposition file (written by the "
             "usage-gauge exporter) once per service cycle")
    serve_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    serve_parser.add_argument(
        "--watermark", type=int, default=None,
        help="stream watermark in ticks (default: config stream_watermark)")
    serve_parser.add_argument(
        "--max-cycles", type=int, default=100_000,
        help="stop pumping after this many service cycles (scrape mode "
             "has no natural end of stream)")
    return parser


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    batches = tuple(args.batch) if args.batch else ("cpubomb",)
    return Scenario(
        sensitive=args.sensitive,
        batches=batches,
        ticks=args.ticks,
        batch_start=args.batch_start,
        seed=args.seed,
    )


def cmd_list_workloads(out) -> int:
    rows = []
    for name in available_workloads():
        kind = "sensitive" if name in SENSITIVE_WORKLOADS else "batch"
        rows.append([name, kind])
    print(ascii_table(["workload", "kind"], rows), file=out)
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    scenario = _scenario_from_args(args)
    config = None
    if getattr(args, "no_telemetry", False):
        config = StayAwayConfig(telemetry=False)
    recorder = None
    pre_middlewares = ()
    if getattr(args, "record_stream", None):
        from repro.service import StreamRecorder

        recorder = StreamRecorder()
        pre_middlewares = (recorder,)
    result = run_scenario(
        scenario,
        policy=args.policy,
        config=config,
        pre_middlewares=pre_middlewares,
    )
    qos = result.qos_values()
    rows = [
        ["policy", args.policy],
        ["ticks", scenario.ticks],
        ["mean QoS", f"{qos.mean():.3f}" if qos.size else "n/a"],
        ["violations", f"{result.violation_ratio():.1%}"],
        ["mean machine utilization", f"{result.utilization().mean():.1%}"],
        ["batch work done", f"{result.batch_work_done():.0f}"],
    ]
    if result.controller is not None:
        summary = result.controller.summary()
        rows.extend([
            ["mapped states", summary["states"]],
            ["violation states", summary["violation_states"]],
            ["throttles / resumes",
             f"{summary['throttles']} / {summary['resumes']}"],
            ["learned beta", f"{summary['beta']:.3f}"],
            ["prediction accuracy", f"{summary['outcome_accuracy']:.1%}"],
        ])
        containment = summary["telemetry"].get("containment") or {}
        if containment.get("enabled"):
            watchdog = containment.get("watchdog") or {}
            rows.extend([
                ["firewall catches", containment["firewall_catches"]],
                ["watchdog heals",
                 f"{watchdog.get('quarantines', 0)} quarantine / "
                 f"{watchdog.get('mode_resets', 0)} mode reset"],
            ])
    print(ascii_table(["metric", "value"], rows), file=out)
    _emit_telemetry(args, result, out)
    if recorder is not None:
        path = recorder.write(args.record_stream)
        print(
            f"{len(recorder.records)} wire records written to {path}", file=out
        )
    return 0


def _emit_telemetry(args: argparse.Namespace, result, out) -> None:
    """Export/print controller self-telemetry per the run flags."""
    telemetry = result.telemetry
    if telemetry is None:
        return
    if getattr(args, "telemetry_out", None):
        path = telemetry.write_json(
            args.telemetry_out,
            scenario={
                "sensitive": result.scenario.sensitive,
                "batches": list(result.scenario.batches),
                "ticks": result.scenario.ticks,
                "seed": result.scenario.seed,
            },
            policy=result.policy,
        )
        print(f"telemetry snapshot written to {path}", file=out)
    if getattr(args, "trace_out", None):
        count = telemetry.write_trace(args.trace_out)
        print(f"{count} rows written to {args.trace_out}", file=out)
    if getattr(args, "prometheus_out", None):
        with open(args.prometheus_out, "w", encoding="utf-8") as handle:
            handle.write(telemetry.to_prometheus())
        print(f"prometheus metrics written to {args.prometheus_out}", file=out)
    if getattr(args, "show_telemetry", False):
        rows = [
            [stage, s["count"], f"{s['mean'] * 1e3:.3f}", f"{s['sum'] * 1e3:.1f}"]
            for stage, s in sorted(telemetry.stage_summary().items())
        ]
        if rows:
            print(ascii_table(
                ["stage", "count", "mean ms", "total ms"], rows
            ), file=out)
        last = list(telemetry.rows)[-3:]
        if last:
            stages = sorted({key for row in last for key in row} - {"tick", "start"})
            print("last periods (ms per stage):", file=out)
            print(ascii_table(["tick"] + stages, [
                [row["tick"]] + [f"{row.get(stage, 0.0) * 1e3:.3f}" for stage in stages]
                for row in last
            ]), file=out)


def cmd_compare(args: argparse.Namespace, out) -> int:
    scenario = _scenario_from_args(args)
    trio = run_trio(scenario)
    rows = []
    for run in (trio.isolated, trio.unmanaged, trio.stayaway):
        qos = run.qos_values()
        rows.append([
            run.policy,
            f"{qos.mean():.3f}" if qos.size else "n/a",
            f"{run.violation_ratio():.1%}",
            f"{run.utilization().mean():.1%}",
        ])
    print(ascii_table(
        ["policy", "mean QoS", "violations", "machine util"], rows
    ), file=out)
    print(
        f"gained utilization: unmanaged "
        f"{trio.utilization.unmanaged_gain_mean:+.1f}pp, stay-away "
        f"{trio.utilization.stayaway_gain_mean:+.1f}pp",
        file=out,
    )
    return 0


def cmd_template(args: argparse.Namespace, out) -> int:
    scenario = _scenario_from_args(args)
    result = run_scenario(scenario, policy="stayaway")
    template = result.controller.export_template(
        sensitive=args.sensitive, batches=list(scenario.batches)
    )
    path = template.save(args.out)
    print(
        f"saved template with {template.representatives.shape[0]} states "
        f"({template.violation_count} violations) to {path}",
        file=out,
    )
    return 0


def cmd_fleet(args: argparse.Namespace, out) -> int:
    mix = FleetMix(
        hosts=args.hosts,
        ticks=args.ticks,
        seed=args.seed,
        host_crash=args.host_crash,
        blackout=args.blackout,
    )
    comparison = run_fleet_comparison(mix)
    rows = []
    for result in comparison.arms.values():
        summary = result.summary()
        migrations = summary.get("fleet", {}).get("migrations", {})
        rows.append([
            result.arm,
            f"{result.violation_ratio():.2%}",
            "crash" if result.crashed_at is not None else "ok",
            summary["crashes"]["crashes"],
            migrations.get("committed", 0),
            migrations.get("rolled_back", 0),
            migrations.get("lost", 0),
            summary["orphaned_migrations"],
        ])
    print(ascii_table(
        ["arm", "violations", "coordinator", "host crashes",
         "migrations", "rolled back", "lost", "orphaned"],
        rows,
    ), file=out)
    print(
        f"improvement over per-host: {comparison.improvement:+.4f} violation ratio",
        file=out,
    )
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.service import (
        ControllerService,
        JsonlReplaySource,
        PrometheusScrapeSource,
    )

    config = StayAwayConfig(seed=args.seed)
    if args.watermark is not None:
        config = dataclasses.replace(config, stream_watermark=args.watermark)
    if args.replay is not None:
        source = JsonlReplaySource(args.replay)
    else:
        scrape_path = args.scrape

        def scrape() -> str:
            with open(scrape_path, encoding="utf-8") as handle:
                return handle.read()

        source = PrometheusScrapeSource(scrape)
    service = ControllerService(source, config=config)
    service.run(max_cycles=args.max_cycles)

    summary = service.summary()
    stream = summary["telemetry"]["stream"]
    actuator = stream["actuator"]
    rows = [
        ["source", "replay" if args.replay else "scrape"],
        ["service state", summary["service_state"]],
        ["ticks processed", stream["ticks_processed"]],
        ["decisions", len(service.decision_sequence())],
        ["throttles / resumes",
         f"{summary['throttles']} / {summary['resumes']}"],
        ["mapped states", summary["states"]],
        ["stream dropped / late", f"{stream['dropped']} / {stream['late']}"],
        ["stream duplicated / reordered",
         f"{stream['duplicated']} / {stream['reordered']}"],
        ["stream imputed / partial closes",
         f"{stream['imputed']} / {stream['ticks_closed_partial']}"],
        ["gap ticks / cells retired",
         f"{stream['gap_ticks']} / {stream.get('cells_retired', 0)}"],
        ["reconnects / stall degrades",
         f"{stream['reconnects']} / {stream['stall_degrades']}"],
        ["actuator acks / retries",
         f"{actuator['acks']} / {actuator['retries']}"],
        ["actuator dead-lettered / pending",
         f"{actuator['dead_lettered']} / {actuator['pending']}"],
    ]
    print(ascii_table(["metric", "value"], rows), file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list-workloads":
        return cmd_list_workloads(out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "compare":
        return cmd_compare(args, out)
    if args.command == "template":
        return cmd_template(args, out)
    if args.command == "fleet":
        return cmd_fleet(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
