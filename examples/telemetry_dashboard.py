#!/usr/bin/env python
"""Telemetry dashboard: what the controller spends its periods on.

Runs one short VLC + CPUBomb co-location under Stay-Away, then prints
everything the controller's self-telemetry (PR 2) recorded about the
run:

1. the counters behind the Mapping -> Prediction -> Action loop (how
   many samples were deduplicated away, how often the predictor flagged,
   how many throttles fired);
2. per-stage wall-clock timings (where the period budget actually goes);
3. the last period rows — each period's tick and the seconds every
   stage took inside it;
4. the same registry rendered as a Prometheus scrape payload.

Run with:  PYTHONPATH=src python examples/telemetry_dashboard.py
"""

from repro import Scenario, run_stayaway


def main() -> None:
    scenario = Scenario(
        sensitive="vlc-streaming",
        batches=("cpubomb",),
        ticks=400,
        batch_start=40,
    )
    result = run_stayaway(scenario)
    telemetry = result.telemetry

    print("=== controller self-telemetry: VLC + CPUBomb, 400 ticks ===")

    snapshot = telemetry.snapshot()
    print("\n-- the loop in counters --")
    for key, value in sorted(snapshot["metrics"]["counters"].items()):
        print(f"  {key:42s} {value:10.0f}")
    print("\n-- gauges --")
    for key, value in sorted(snapshot["metrics"]["gauges"].items()):
        print(f"  {key:42s} {value:10.3f}")
    hit_rate = result.controller.mapping.dedup_hit_rate()
    print(f"\n  dedup hit rate: {hit_rate:.1%} of samples absorbed by "
          f"existing states (the paper's §4 reduction)")

    print("\n-- where the period goes (per-stage timings) --")
    print(f"  {'stage':26s} {'count':>6s} {'mean us':>9s} {'total ms':>9s}")
    for stage, s in sorted(telemetry.stage_summary().items()):
        print(f"  {stage:26s} {s['count']:6.0f} {s['mean'] * 1e6:9.1f} "
              f"{s['sum'] * 1e3:9.2f}")

    print("\n-- last two periods (us per stage) --")
    for row in list(telemetry.rows)[-2:]:
        stages = ", ".join(
            f"{name}={seconds * 1e6:.1f}"
            for name, seconds in row.items()
            if name not in ("tick", "start")
        )
        print(f"  tick {row['tick']}: {stages}")

    print("\n-- prometheus exposition (first 12 lines) --")
    for line in telemetry.to_prometheus().splitlines()[:12]:
        print(f"  {line}")

    print(f"\n{snapshot['rows']} period rows kept; export them with "
          f"Telemetry.write_trace(path).")

if __name__ == "__main__":
    main()
