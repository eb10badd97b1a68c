"""sacheck command line: scan, report, baseline, import graph.

Usage::

    python -m tools.sacheck                      # scan src/, tests/, tools/, examples/
    python -m tools.sacheck src/repro/core       # scan a subtree
    python -m tools.sacheck --format json --out sacheck_report.json
    python -m tools.sacheck --write-baseline     # regenerate the ratchet
    python -m tools.sacheck --list-rules
    python -m tools.sacheck --import-graph       # print layer edges

Two-phase operation: phase 1 indexes *every* default target into a
:class:`~tools.sacheck.callgraph.ProjectIndex` (symbol table + call
graph), phase 2 walks the requested files with the full rule set.
Restricting the scan to explicit paths restricts phase 2
only — interprocedural rules always resolve against the whole program.

All relative paths (scan targets, ``--baseline``) resolve against the
repo root, never the invocation cwd, so a scan from a subdirectory
produces byte-identical findings.

Exit codes (CI contract): 0 — clean (no findings beyond the justified
baseline); 1 — new findings, stale baseline entries with ``--strict``,
or unjustified baseline entries; 2 — usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from tools.sacheck.baseline import Baseline, baseline_from_findings
from tools.sacheck.callgraph import ProjectIndex
from tools.sacheck.engine import Finding, scan_paths
from tools.sacheck.layering import build_import_graph, layer_edges
from tools.sacheck.rules import default_rules, rule_catalog

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Repo-root-relative so it follows REPO_ROOT (tests rebind that).
DEFAULT_BASELINE = Path("tools") / "sacheck" / "baseline.json"
DEFAULT_TARGETS = ("src", "tests", "tools", "examples")
#: Read for import edges and name uses only, never rule-walked: a
#: benchmark is a caller (SA205, SA206).
IMPORT_ONLY_TARGETS = ("benchmarks",)


def _repo_path(path: Path) -> Path:
    """Resolve a user-supplied path against the repo root, not the cwd."""
    return path if path.is_absolute() else (REPO_ROOT / path)


def _format_text(
    new: List[Finding],
    baselined: List[Finding],
    suppressed: List[Finding],
    stale: int,
    files_checked: int,
) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in new
    ]
    summary = (
        f"sacheck: {files_checked} file(s), {len(new)} new finding(s), "
        f"{len(baselined)} baselined, {len(suppressed)} suppressed"
    )
    if stale:
        summary += f", {stale} stale baseline entr{'y' if stale == 1 else 'ies'}"
    lines.append(summary)
    return "\n".join(lines)


def _format_json(
    new: List[Finding],
    baselined: List[Finding],
    suppressed: List[Finding],
    stale: int,
    files_checked: int,
    parse_errors: List[str],
) -> str:
    return json.dumps(
        {
            "tool": "sacheck",
            "files_checked": files_checked,
            "new": [f.to_dict() for f in new],
            "baselined": [f.to_dict() for f in baselined],
            "suppressed": [f.to_dict() for f in suppressed],
            "stale_baseline_entries": stale,
            "parse_errors": parse_errors,
            "rules": rule_catalog(),
        },
        indent=2,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.sacheck",
        description="Stay-Away invariant linter (determinism, layering, numerics)",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files/directories to scan (default: src/, tests/, tools/, examples/)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", type=Path, help="also write the report to this file")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"baseline file, repo-root-relative (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from this scan (preserves reasons)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail on stale baseline entries (ratchet must tighten)",
    )
    parser.add_argument(
        "--rules", type=str, default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument(
        "--import-graph", action="store_true",
        help="print the repro layer-to-layer import edges and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, info in sorted(rule_catalog().items()):
            print(f"{rule_id}  {info['name']}: {info['rationale']}")
        return 0

    default_targets = [
        REPO_ROOT / t for t in DEFAULT_TARGETS if (REPO_ROOT / t).exists()
    ]
    targets = (
        [_repo_path(p) for p in args.paths] if args.paths else default_targets
    )
    for target in targets:
        if not target.exists():
            print(f"sacheck: no such path: {target}", file=sys.stderr)
            return 2

    if args.import_graph:
        graph = build_import_graph(targets, REPO_ROOT)
        for src_layer, dst_layer in layer_edges(graph):
            print(f"{src_layer} -> {dst_layer}")
        return 0

    rules = default_rules()
    if args.rules:
        wanted = {code.strip().upper() for code in args.rules.split(",") if code.strip()}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            print(f"sacheck: unknown rule id(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    # Phase 1: whole-program index over the default targets, regardless
    # of how narrow the phase-2 scan is.
    import_only = [
        REPO_ROOT / t for t in IMPORT_ONLY_TARGETS if (REPO_ROOT / t).exists()
    ]
    project = ProjectIndex.build(default_targets, REPO_ROOT, import_only)
    # Phase 2: walk the requested files with every active rule.
    result = scan_paths(targets, rules, REPO_ROOT, project=project)
    findings = sorted(result.findings, key=lambda f: (f.path, f.line, f.rule))

    baseline_path = _repo_path(args.baseline)
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)

    if args.write_baseline:
        regenerated = baseline_from_findings(findings, baseline)
        regenerated.save(baseline_path)
        todo = len(regenerated.unjustified())
        print(
            f"sacheck: wrote {baseline_path} with {len(regenerated.entries)} "
            f"entr{'y' if len(regenerated.entries) == 1 else 'ies'}"
            + (f" ({todo} need a reason before the check passes)" if todo else "")
        )
        return 0

    unjustified = baseline.unjustified()
    new, baselined, stale_entries = baseline.apply(findings)

    if args.format == "json":
        report = _format_json(new, baselined, result.suppressed, len(stale_entries),
                              result.files_checked, result.parse_errors)
    else:
        report = _format_text(new, baselined, result.suppressed, len(stale_entries),
                              result.files_checked)
    print(report)
    if args.out:
        args.out.write_text(report + "\n", encoding="utf-8")

    failed = False
    if result.parse_errors:
        for error in result.parse_errors:
            print(f"sacheck: parse error: {error}", file=sys.stderr)
        return 2
    if unjustified:
        failed = True
        for entry in unjustified:
            print(
                f"sacheck: baseline entry without a reason: "
                f"{entry.rule} {entry.path} :: {entry.snippet}",
                file=sys.stderr,
            )
    if new:
        failed = True
    if stale_entries and args.strict:
        failed = True
        for entry in stale_entries:
            print(
                f"sacheck: stale baseline entry (fixed? regenerate): "
                f"{entry.rule} {entry.path} :: {entry.snippet}",
                file=sys.stderr,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
