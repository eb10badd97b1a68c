"""Every committed ``BENCH_*.json`` has a producer, every gate script a record."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: A gate script names its report in exactly one line of this shape; the
#: name is read from there, not from the script's file name
#: (``bench_robustness_chaos.py`` writes ``BENCH_fault_containment.json``).
DEFAULT_OUT_RE = re.compile(
    r'^DEFAULT_OUT = .* / "(BENCH_\w+\.json)"$', re.MULTILINE
)


def test_root_reports_match_their_producers():
    produced = [
        name
        for script in (REPO / "benchmarks").glob("bench_*.py")
        for name in DEFAULT_OUT_RE.findall(script.read_text(encoding="utf-8"))
    ]
    # CI smoke steps write git-ignored ``BENCH_*_ci.json`` beside the records.
    committed = [
        path.name
        for path in REPO.glob("BENCH_*.json")
        if not path.name.endswith("_ci.json")
    ]
    assert sorted(committed) == sorted(produced)


def test_every_tracer_patch_point_exists_in_src():
    """The frozen e2e benchmark wraps ``(owner, attribute)`` pairs by
    name (``vars(owner)[attribute]``); tier-1 never collects
    ``benchmarks/e2e``, so a rename in ``src/`` would otherwise kill
    every ``--trace 1`` pass with the suite green."""
    from benchmarks.e2e.tracer import patch_points

    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute} ({span})"
        for owner, attribute, span, _ in patch_points()
        if attribute not in vars(owner)
    ]
    assert missing == []
