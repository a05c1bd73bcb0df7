"""The commands CI and the verify recipe name must exist.

A workflow step or a recipe line outlives the subcommand or file it
calls until somebody runs it: ``.github/workflows/ci.yml`` and
``.claude/skills/verify/SKILL.md`` are not executed by tier-1.  This
guard reads both and requires every ``python -m repro <subcommand>`` to
be one ``cli.main`` dispatches and every repository ``.py`` path they
mention (scripts run with ``python[3]``, pytest targets, files cited in
prose) to be a file in the tree.
"""

import re
from pathlib import Path

import pytest

from repro.cli import SUBCOMMANDS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]

#: First argument of ``python -m repro`` when it is a bare word; a
#: quoted query, an option or a shell variable is not a subcommand.
SUBCOMMAND = re.compile(r"python3? -m repro\s+([a-z][a-z_-]*)(?=\s|$)")
PY_PATH = re.compile(r"(?<![\w/.-])((?:src|tests|benchmarks|examples)"
                     r"/[\w/.-]*\.py)\b")


def _text(source):
    # Join shell continuation lines so `repro export \` + newline +
    # `metrics` reads as one command.
    return re.sub(r"\\\n\s*", " ", (ROOT / source).read_text())


@pytest.mark.parametrize("source", SOURCES)
def test_named_subcommands_are_dispatched(source):
    named = set(SUBCOMMAND.findall(_text(source)))
    assert named, "no `python -m repro <subcommand>` found in " + source
    assert named <= set(SUBCOMMANDS), \
        "{} names subcommands cli.main does not dispatch: {}".format(
            source, sorted(named - set(SUBCOMMANDS)))


@pytest.mark.parametrize("source", SOURCES)
def test_named_python_files_exist(source):
    named = set(PY_PATH.findall(_text(source)))
    assert named, "no repository .py path found in " + source
    missing = sorted(p for p in named if not (ROOT / p).is_file())
    assert not missing, "{} names files not in the tree: {}".format(
        source, missing)
