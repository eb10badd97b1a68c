"""sacheck command line: scan, report, baseline, import graph, diff mode.

Usage::

    python -m tools.sacheck                      # scan src/, tests/, tools/, examples/
    python -m tools.sacheck src/repro/core       # scan a subtree
    python -m tools.sacheck --format json --out sacheck_report.json
    python -m tools.sacheck --format sarif --out sacheck.sarif
    python -m tools.sacheck --diff origin/main   # changed files only
    python -m tools.sacheck --write-baseline     # regenerate the ratchet
    python -m tools.sacheck --list-rules
    python -m tools.sacheck --import-graph       # print layer edges

Two-phase operation: phase 1 indexes *every* default target into a
:class:`~tools.sacheck.callgraph.ProjectIndex` (symbol table + call
graph), phase 2 walks the requested files with the full rule set.
Restricting the scan (explicit paths, ``--diff``) restricts phase 2
only — interprocedural rules always resolve against the whole program.

All relative paths (scan targets, ``--baseline``) resolve against the
repo root, never the invocation cwd, so a scan from a subdirectory
produces byte-identical findings.

Exit codes (CI contract): 0 — clean (no findings beyond the justified
baseline); 1 — new findings, stale baseline entries with ``--strict``,
or unjustified baseline entries; 2 — usage or parse errors.  In
``--diff`` mode stale entries never fail (a subset scan cannot tell
fixed from unscanned).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from tools.sacheck.baseline import Baseline, baseline_from_findings
from tools.sacheck.callgraph import ProjectIndex
from tools.sacheck.engine import Finding, scan_paths
from tools.sacheck.layering import build_import_graph, layer_edges
from tools.sacheck.rules import default_rules, rule_catalog
from tools.sacheck.sarif import to_sarif

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


def _changed_files(base: str) -> Optional[List[Path]]:
    """Python files changed vs ``base`` (committed or not), or None on error."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", base, "--", "*.py"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        print(f"sacheck: git diff against {base!r} failed: {detail.strip()}",
              file=sys.stderr)
        return None
    changed = []
    for line in proc.stdout.splitlines():
        path = REPO_ROOT / line.strip()
        if path.is_file():  # deleted files have nothing to scan
            changed.append(path)
    return changed


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
    parser.add_argument("--format", choices=("text", "json", "sarif"), default="text")
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
        "--diff", metavar="BASE", default=None,
        help="scan only files changed vs this git ref; the call graph "
             "still covers the whole repo",
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

    if args.diff is not None:
        if args.paths:
            print("sacheck: --diff and explicit paths are mutually exclusive",
                  file=sys.stderr)
            return 2
        changed = _changed_files(args.diff)
        if changed is None:
            return 2
        targets = changed

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
    if args.diff is not None:
        stale_entries = []  # subset scan cannot distinguish fixed from unscanned

    if args.format == "sarif":
        reasons: Dict[str, str] = {
            entry.fingerprint: entry.reason for entry in baseline.entries
        }
        report = json.dumps(
            to_sarif(result, rules, baselined=baselined, baseline_reasons=reasons),
            indent=2,
        )
    elif args.format == "json":
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
