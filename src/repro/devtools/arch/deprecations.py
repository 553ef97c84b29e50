"""Deprecation lifecycle: every shim has a registered removal horizon.

A ``DeprecationWarning`` emitted from library code is a promise to
delete something. reproarch makes the promise explicit: each warn site
must appear in ``.reproarch.toml`` ``[[deprecations]]`` with the
function that emits it, a reason, and the PR number by which the shim
must be gone. A site past its ``remove_by_pr`` (relative to the
current PR, read from the changelog by :func:`current_pr`) errors
until the shim is deleted or the horizon is consciously extended; a
registration whose site no longer exists errors so the ledger cannot
rot.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.devtools.arch.project import Project
from repro.devtools.model import Finding, Severity, fingerprint

UNREGISTERED_CODE = "RPA009"
STALE_CODE = "RPA010"

#: The changelog whose entries number the PRs, relative to the repo root.
CHANGELOG_FILENAME = "CHANGES.md"

#: A line that begins an entry: ``PR <n>``, optionally after a bullet.
_ENTRY_RE = re.compile(r"^(?:[-*] +)?PR (\d+)\b", re.MULTILINE)


def current_pr(root: Path) -> int:
    """The highest ``PR <n>`` that begins an entry of the changelog.

    0 when the repo has no changelog. Read, not stored, so the clock
    cannot stop while PRs keep landing.
    """
    path = Path(root) / CHANGELOG_FILENAME
    if not path.is_file():
        return 0
    text = path.read_text(encoding="utf-8")
    return max((int(n) for n in _ENTRY_RE.findall(text)), default=0)


def _finding(code: str, rule: str, path: str, line: int, message: str) -> Finding:
    return Finding(
        code=code, rule=rule, severity=Severity.ERROR, path=path,
        line=line, col=0, message=message,
        fingerprint=fingerprint(path, code, message),
    )


def _sites(project: Project) -> dict[str, tuple[str, int]]:
    """``module:qualname`` -> (path, line) for every warn site in src."""
    found: dict[str, tuple[str, int]] = {}
    for name in sorted(project.modules):
        info = project.modules[name]
        for qualname, line in info.deprecation_sites:
            found[f"{name}:{qualname}"] = (info.path, line)
    return found


def check_deprecations(project: Project) -> list[Finding]:
    spec = project.spec
    now = current_pr(project.root)
    sites = _sites(project)
    registered = {entry.site: entry for entry in spec.deprecations}
    findings: list[Finding] = []

    for site in sorted(sites):
        path, line = sites[site]
        if site not in registered:
            findings.append(
                _finding(
                    UNREGISTERED_CODE, "deprecation-unregistered",
                    path, line,
                    f"DeprecationWarning emitted at {site} has no "
                    f"[[deprecations]] entry in .reproarch.toml; register "
                    f"it with a reason and a remove-by-pr horizon",
                )
            )

    for site in sorted(registered):
        entry = registered[site]
        if site not in sites:
            findings.append(
                _finding(
                    STALE_CODE, "deprecation-stale", ".reproarch.toml", 1,
                    f"[[deprecations]] registers {site} but no such warn "
                    f"site exists in src; delete the stale entry",
                )
            )
            continue
        path, line = sites[site]
        if entry.remove_by_pr <= now:
            findings.append(
                _finding(
                    STALE_CODE, "deprecation-stale", path, line,
                    f"deprecation shim {site} was due for removal by "
                    f"PR {entry.remove_by_pr} (the current PR in "
                    f"{CHANGELOG_FILENAME} is {now}): delete the shim or "
                    f"extend the horizon with a new reason ({entry.reason})",
                )
            )
    return findings
