"""The golden output corpus: every argv of tests/golden_commands.txt, run in process, gives the
exit code and the stdout and stderr bytes that tests/golden.json holds for it.

A change that moves bytes rebuilds the corpus (python tests/make_golden.py) and lists the
moved cells in CHANGES.md.  A mismatch on another platform is a difference to look at too:
the corpus names the Python and the platform it was built on.
"""

import difflib
import json
import shlex

from fermiwire.cli import main
from make_golden import ROOT, TARGET, read_commands, record

CORPUS = json.loads(TARGET.read_text(encoding="utf-8"))


def moved_streams(expected, actual):
    """One line per field of a corpus entry that moved, with the first lines
    of a diff where both texts are stored whole."""
    lines = []
    if actual["exit"] != expected["exit"]:
        lines.append("  exit %r -> %r" % (expected["exit"], actual["exit"]))
    for name in ("stdout", "stderr"):
        old, new = expected[name], actual[name]
        if old["sha256"] == new["sha256"]:
            continue
        lines.append("  %s %d -> %d bytes" % (name, old["bytes"], new["bytes"]))
        if "text" in old and "text" in new:
            diff = difflib.unified_diff(old["text"].splitlines(), new["text"].splitlines(),
                                        lineterm="", n=0)
            lines.extend("    " + line for line in list(diff)[2:8])
    return lines


def test_corpus_holds_every_command():
    commands = read_commands()
    assert len(commands) >= 200
    assert [entry["argv"] for entry in CORPUS["commands"]] == commands


def test_every_command_gives_its_recorded_bytes(monkeypatch):
    monkeypatch.chdir(ROOT)
    moved = []
    for expected in CORPUS["commands"]:
        lines = moved_streams(expected, record(main, expected["argv"]))
        if lines:
            moved.extend([shlex.join(expected["argv"]), *lines])
    assert not moved, "corpus built from %s on Python %s, %s; moved:\n%s" % (
        CORPUS["source"], CORPUS["python"], CORPUS["platform"], "\n".join(moved))


def test_a_moved_line_is_shown():
    expected = record(main, ["tabulate", "occupation", "--grid", "0:1:3"])
    actual = json.loads(json.dumps(expected))
    actual["exit"] = 1
    actual["stdout"] = record(main, ["tabulate", "occupation", "--grid", "0:2:3"])["stdout"]
    assert moved_streams(expected, expected) == []
    assert moved_streams(expected, actual) == [
        "  exit 0 -> 1",
        "  stdout 104 -> 102 bytes",
        "    @@ -3 +2,0 @@",
        "    -fd,1,0.5,0.37754066879814541,",
        "    @@ -4,0 +4 @@",
        "    +fd,1,2,0.11920292202211755,",
    ]
