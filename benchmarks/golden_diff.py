"""Compare the JSON and SARIF goldens with their versions at a git revision.

    python benchmarks/golden_diff.py --base HEAD~1 --ignore query_samples

Loads every ``tests/analysis/golden*/*.json``,
``tests/remediate/golden/*.fixed.json`` and ``.sarif`` golden in the
working tree and at ``--base``, drops each ``--ignore`` key wherever it
occurs, and requires the rest to be equal.  In a SARIF log a key is
dropped under its SARIF spelling (``example_query`` is the
``exampleQuery`` property), and ``before``/``after`` are the two sides of
the ``: 'x' ↦ 'y'`` tail of a sanitizer step's message.  Prints, per
file, how many ignored values changed; exits 1 on any other difference.
Use it when a change is meant to move one field of the report and
nothing else.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GLOBS = (
    "tests/analysis/golden*/*.json",
    "tests/remediate/golden/*.fixed.json",
    "tests/**/*.sarif",
)

#: SARIF spellings of report keys
SARIF_KEYS = {"example_query": "exampleQuery"}

#: the ``: before ↦ after`` tail of a sanitizer step's message, each
#: side a Python string repr
_REPR = r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\""
STEP_TAIL = re.compile(rf": ({_REPR}) ↦ ({_REPR})$")


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
        return {
            k: step_text(v, ignore, dropped)
            if k == "text" and isinstance(v, str)
            else split(v, ignore, dropped)
            for k, v in node.items()
            if k not in ignore
        }
    if isinstance(node, list):
        return [split(v, ignore, dropped) for v in node]
    return node


def step_text(text: str, ignore: set[str], dropped: list) -> str:
    """A SARIF message without its sanitizer ``before``/``after`` when
    they are ignored.  With both ignored the whole tail goes, because a
    step whose samples are both empty prints none."""
    if not text.startswith("sanitizer ") or not {"before", "after"} & ignore:
        return text
    match = STEP_TAIL.search(text)
    if {"before", "after"} <= ignore:
        dropped.append(("before/after", match and match.group(0)))
        return text[: match.start()] if match else text
    if match is None:
        return text
    side = 1 if "before" in ignore else 2
    dropped.append((("before", "after")[side - 1], match.group(side)))
    return text[: match.start(side)] + "…" + text[match.end(side):]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--ignore", action="append", default=[], help="key to drop")
    args = parser.parse_args(argv)
    ok = True
    for pattern in GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            rel = path.relative_to(ROOT).as_posix()
            ignore = set(args.ignore)
            if path.suffix == ".sarif":
                ignore = {SARIF_KEYS.get(key, key) for key in ignore}
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
