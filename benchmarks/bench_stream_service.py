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
  zero unreconciled (non-dead-lettered) actuator commands, the fault
  script must have fired on both faulted arms, and the seam must have
  done real work: reorders recovered, duplicates dropped, NaN cells
  bridged by the guard, lost acks retried.

Every check is one named gate of :func:`run_experiment`.
``python -m benchmarks.bench_stream_service`` runs both standalone
(``--quick`` is the CI profile).
"""

from pathlib import Path
from typing import Dict, Optional

from benchmarks.helpers import (
    STANDARD_TICKS,
    banner,
    enforce_gates,
    gate_main,
    write_report,
)
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
    out,
    ticks: Optional[int] = None,
    replay_ticks: Optional[int] = None,
    quick: bool = False,
) -> Dict[str, object]:
    """Run both gates' drills, gate them and write the BENCH json.

    ``quick`` picks the shorter default run lengths; an explicit
    ``ticks`` / ``replay_ticks`` overrides either profile.
    """
    if ticks is None:
        ticks = QUICK_CHAOS_TICKS if quick else STANDARD_TICKS
    if replay_ticks is None:
        replay_ticks = QUICK_REPLAY_TICKS if quick else 600
    replay = check_replay_determinism(Scenario(ticks=replay_ticks, seed=1))

    scenario = Scenario(ticks=ticks, seed=1)
    mix = StreamChaosMix(
        seed=5, drop=0.05, reorder=0.1, duplicate=0.1, ack_drop=0.3
    )
    chaos = run_stream_comparison(scenario, mix=mix).summary()
    stream = chaos["assembled"]["stream"]

    gates = {
        "replay_match": replay["match"] and replay["clean_stream"],
        "within_2x": (
            chaos["assembled"]["violation_ratio"]
            <= 2.0 * chaos["fault_free"]["violation_ratio"]
        ),
        "assembler_better": chaos["assembler_better"],
        "all_commands_reconciled": all(
            chaos[arm]["unreconciled_commands"] == 0
            for arm in ("fault_free", "assembled", "passthrough")
        ),
        "faults_fired": (
            chaos["assembled"]["faults_injected"] > 100
            and chaos["passthrough"]["faults_injected"] > 100
        ),
        "reorders_recovered": stream["reordered"] > 0,
        "duplicates_dropped": stream["duplicated"] > 0,
        "guard_imputed": stream["imputed"] > 0,
        "acks_retried": stream["actuator"]["retries"] > 0,
        "passthrough_starved_batch": (
            chaos["passthrough"]["batch_work"] < chaos["assembled"]["batch_work"]
        ),
    }
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
    }
    return write_report(report, gates, out)


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
        f"imputed (guard) {stream.get('imputed', 0)}, "
        f"partial closes {stream.get('ticks_closed_partial', 0)}"
    )
    print(
        f"  deviation from fault-free: assembled "
        f"{chaos['assembled_deviation']:.4f} vs passthrough "
        f"{chaos['passthrough_deviation']:.4f}"
    )
    print(f"  gates: {report['gates']}")
    print(f"  report written to {report['out']}")


def test_stream_service_gates(capsys, tmp_path):
    report = run_experiment(tmp_path / "BENCH_stream_service.json", quick=True)
    with capsys.disabled():
        print()
        _print_report(report)
    enforce_gates(report)


def main(argv=None) -> int:
    return gate_main(
        argv, run_experiment, _print_report, DEFAULT_OUT,
        quick=dict(action="store_true",
                   help="CI profile (shorter runs, identical gates)"),
        ticks=dict(type=int, default=None,
                   help="chaos run length in ticks per arm"),
        replay_ticks=dict(type=int, default=None,
                          help="replay-determinism run length in ticks"),
    )


if __name__ == "__main__":
    raise SystemExit(main())
