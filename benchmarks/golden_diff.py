"""Compare the JSON goldens with their versions at a git revision.

    python benchmarks/golden_diff.py --base HEAD~1 --ignore query_samples

Loads every ``tests/analysis/golden*/*.json`` and
``tests/remediate/golden/*.fixed.json`` in the working tree and at
``--base``, drops each ``--ignore`` key wherever it occurs, and requires
the rest to be equal.  Every ``.sarif`` golden must be byte-identical.
Prints, per file, how many hotspots' ignored values changed; exits 1 on
any other difference.  Use it when a change is meant to move one field
of the report and nothing else.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JSON_GLOBS = ("tests/analysis/golden*/*.json", "tests/remediate/golden/*.fixed.json")
SARIF_GLOB = "tests/**/*.sarif"


def at_revision(rev: str, rel: str) -> bytes:
    return subprocess.run(
        ["git", "show", f"{rev}:{rel}"], cwd=ROOT, capture_output=True, check=True
    ).stdout


def split(node, ignore: set[str], dropped: list):
    """``node`` without the ``ignore`` keys; their values go to ``dropped``
    in document order."""
    if isinstance(node, dict):
        for key in sorted(ignore & node.keys()):
            dropped.append((key, node[key]))
        return {k: split(v, ignore, dropped) for k, v in node.items() if k not in ignore}
    if isinstance(node, list):
        return [split(v, ignore, dropped) for v in node]
    return node


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--ignore", action="append", default=[], help="key to drop")
    args = parser.parse_args(argv)
    ignore = set(args.ignore)
    ok = True
    for pattern in JSON_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            rel = path.relative_to(ROOT).as_posix()
            old_dropped: list = []
            new_dropped: list = []
            old = split(json.loads(at_revision(args.base, rel)), ignore, old_dropped)
            new = split(json.loads(path.read_text()), ignore, new_dropped)
            same = old == new and len(old_dropped) == len(new_dropped)
            changed = sum(a != b for a, b in zip(old_dropped, new_dropped))
            ok &= same
            print(
                f"{rel}: {'rest equal' if same else 'DIFFERS'}, "
                f"{changed} of {len(new_dropped)} ignored values changed"
            )
    for path in sorted(ROOT.glob(SARIF_GLOB)):
        rel = path.relative_to(ROOT).as_posix()
        same = path.read_bytes() == at_revision(args.base, rel)
        ok &= same
        print(f"{rel}: {'identical' if same else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
