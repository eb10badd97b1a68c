"""Controller-as-a-service — replay determinism + stream-fault chaos.

Not a paper figure: this bench guards the service seam
(:mod:`repro.service`). Two gates, both written to
``BENCH_stream_service.json``:

* **Replay determinism** — an in-process run recorded as wire records
  and replayed through :class:`~repro.service.controller_service.
  ControllerService` must reproduce the in-process controller's
  THROTTLE/RESUME/PROBE_RESUME sequence *exactly* (same ticks, same
  kinds, same targets), with a clean stream census (nothing dropped,
  duplicated, late or imputed on a lossless transport).
* **Stream chaos** — under an identical seeded drop(5%)/reorder/
  duplicate/lost-ack fault script, the watermark-assembled service's
  ground-truth violation ratio stays within 2x of the fault-free run
  and tracks it strictly closer than the assembler-less passthrough
  arm, which distorts far further (its zero-filled cells poison the
  map into chronic over-throttling: artificially low violations paid
  for with a large batch-work shortfall). Every arm must finish with
  zero unreconciled (non-dead-lettered) actuator commands.

``python -m benchmarks.bench_stream_service`` runs both standalone
(``--quick`` is the CI smoke profile).
"""

import argparse
from pathlib import Path
from typing import Dict

from benchmarks.helpers import STANDARD_TICKS, banner, write_report
from repro.experiments.scenarios import Scenario
from repro.experiments.stream_chaos import (
    StreamChaosMix,
    check_replay_determinism,
    run_stream_comparison,
)

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_stream_service.json"

#: Chaos run length floor: the passthrough arm's map poisoning needs a
#: few hundred ticks to compound past seed noise; below ~800 the
#: deviation ordering is not yet stable across seeds.
QUICK_CHAOS_TICKS = 800
QUICK_REPLAY_TICKS = 240


def run_experiment(
    out, ticks: int = STANDARD_TICKS, replay_ticks: int = 600
) -> Dict[str, object]:
    """Run both gates and write the BENCH json."""
    replay = check_replay_determinism(Scenario(ticks=replay_ticks, seed=1))

    scenario = Scenario(ticks=ticks, seed=1)
    mix = StreamChaosMix(
        seed=5, drop=0.05, reorder=0.1, duplicate=0.1, ack_drop=0.3
    )
    comparison = run_stream_comparison(scenario, mix=mix)
    chaos = comparison.summary()

    within_2x = (
        chaos["assembled"]["violation_ratio"]
        <= 2.0 * chaos["fault_free"]["violation_ratio"]
    )
    reconciled = all(
        chaos[arm]["unreconciled_commands"] == 0
        for arm in ("fault_free", "assembled", "passthrough")
    )
    report = {
        "bench": "stream_service",
        "ticks": ticks,
        "replay_ticks": replay_ticks,
        "mix": {
            "seed": mix.seed,
            "drop": mix.drop,
            "reorder": mix.reorder,
            "reorder_max_delay": mix.reorder_max_delay,
            "duplicate": mix.duplicate,
            "ack_drop": mix.ack_drop,
        },
        "replay": replay,
        "chaos": chaos,
        "gates": {
            "replay_match": bool(replay["match"] and replay["clean_stream"]),
            "within_2x": bool(within_2x),
            "assembler_better": bool(chaos["assembler_better"]),
            "all_commands_reconciled": bool(reconciled),
        },
    }
    report["passed"] = all(report["gates"].values())
    report["out"] = write_report(report, out)
    report["comparison"] = comparison
    return report


def _print_report(report: Dict[str, object]) -> None:
    replay = report["replay"]
    chaos = report["chaos"]
    print(banner("Service - replay determinism + stream chaos"))
    print(
        f"replay: {replay['replayed_decisions']}/{replay['reference_decisions']} "
        f"decisions, match={replay['match']}, clean_stream={replay['clean_stream']}"
    )
    for arm in ("fault_free", "assembled", "passthrough"):
        side = chaos[arm]
        print(
            f"  {arm:11s} violation ratio {side['violation_ratio']:.3f}  "
            f"batch work {side['batch_work']:7.1f}  "
            f"decisions {side['decisions']:4d}  "
            f"faults {side['faults_injected']:4d}  "
            f"dead-letters {side['dead_letters']}  "
            f"unreconciled {side['unreconciled_commands']}"
        )
    stream = chaos["assembled"]["stream"]
    print(
        f"  assembled stream census: dropped {stream.get('dropped', 0)}, "
        f"duplicated {stream.get('duplicated', 0)}, late {stream.get('late', 0)}, "
        f"imputed {stream.get('imputed', 0)}, "
        f"partial closes {stream.get('ticks_closed_partial', 0)}"
    )
    print(
        f"  deviation from fault-free: assembled "
        f"{chaos['assembled_deviation']:.4f} vs passthrough "
        f"{chaos['passthrough_deviation']:.4f}"
    )
    print(f"  gates: {report['gates']}")
    print(f"  report written to {report['out']}")


def test_stream_service_gates(benchmark, capsys, tmp_path):
    report = benchmark.pedantic(
        run_experiment,
        args=(tmp_path / "BENCH_stream_service.json",),
        kwargs={"ticks": QUICK_CHAOS_TICKS, "replay_ticks": QUICK_REPLAY_TICKS},
        rounds=1,
        iterations=1,
    )
    arms = report["comparison"].arms
    chaos = report["chaos"]

    with capsys.disabled():
        print()
        _print_report(report)

    # Gate (a): lossless replay reproduces the decision sequence exactly.
    assert report["gates"]["replay_match"], report["replay"]
    # Gate (b): the assembled arm stays within 2x of fault-free and
    # tracks it strictly closer than the assembler-less arm.
    assert report["gates"]["within_2x"], chaos
    assert report["gates"]["assembler_better"], chaos
    # Drain leaves nothing in limbo: every command acked or dead-lettered.
    assert report["gates"]["all_commands_reconciled"], chaos
    # The fault script actually fired on both faulted arms (not vacuous).
    assert chaos["assembled"]["faults_injected"] > 100
    assert chaos["passthrough"]["faults_injected"] > 100
    # The assembler did real work: recovered reorders, deduped, imputed.
    stream = chaos["assembled"]["stream"]
    assert stream["reordered"] > 0
    assert stream["duplicated"] > 0
    assert stream["imputed"] > 0
    # Lost acks forced the tracker through its retry path.
    assert stream["actuator"]["retries"] > 0
    # The passthrough arm visibly starved the batch tier.
    assert arms["passthrough"].batch_work() < arms["assembled"].batch_work()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Service gates: replay determinism + stream-fault chaos"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke profile (shorter runs, identical gates)",
    )
    parser.add_argument("--ticks", type=int, default=None,
                        help="chaos run length in ticks per arm")
    parser.add_argument("--replay-ticks", type=int, default=None,
                        help="replay-determinism run length in ticks")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    ticks = args.ticks if args.ticks is not None else (
        QUICK_CHAOS_TICKS if args.quick else STANDARD_TICKS
    )
    replay_ticks = args.replay_ticks if args.replay_ticks is not None else (
        QUICK_REPLAY_TICKS if args.quick else 600
    )
    report = run_experiment(args.out, ticks=ticks, replay_ticks=replay_ticks)
    _print_report(report)
    if not report["passed"]:
        print("FAIL: stream service gates did not pass")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
