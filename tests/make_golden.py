"""Write tests/golden.json, the golden output corpus of the fermiwire command line.

    python tests/make_golden.py [--from REV]

Each line of tests/golden_commands.txt is one argv, split as a shell splits
it (shlex); blank lines and lines starting with # are skipped.  Every argv
runs in process through fermiwire.cli.main, in the order listed, from the
root of the repository, with warnings raised as errors (as the test suite
raises RuntimeWarning).  Per argv the corpus holds the exit code and, for
stdout and for stderr, the byte count, the SHA-256 and, below WHOLE_BYTES,
the text itself, so that a failure can show the line that moved.  It also
records the Python version, the platform and the revision it was built
from.

fermiwire is imported from the working tree's src/, or with --from REV from
that revision's src/, unpacked from git archive into a temporary directory;
nothing is fetched.  A change that claims the same bytes builds the corpus
--from its parent; tests/test_golden.py then runs the same lines on the
working tree and names each argv whose record moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ROOT / "tests" / "golden_commands.txt"
TARGET = ROOT / "tests" / "golden.json"
WHOLE_BYTES = 4096  # outputs shorter than this are stored whole


def read_commands():
    """The argv of every command line of COMMANDS, in order."""
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def _stream(text):
    data = text.encode("utf-8")
    entry = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    if len(data) < WHOLE_BYTES:
        entry["text"] = text
    return entry


def record(main, argv):
    """The corpus entry of main(argv), run in process from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": _stream(out.getvalue()),
            "stderr": _stream(err.getvalue())}


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def unpack_src(rev, into):
    """rev's src/ written under the directory into, from git archive; returns its path."""
    archive = _git("archive", "--format=tar", rev, "src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = Path(into, member.name)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())
    return Path(into, "src")


def build(src, source):
    """The corpus of every command, fermiwire imported from the directory src."""
    sys.path.insert(0, str(src))
    from fermiwire.cli import main

    if Path(src).resolve() not in Path(sys.modules["fermiwire"].__file__).resolve().parents:
        raise SystemExit("fermiwire was imported from %s, not from %s"
                         % (sys.modules["fermiwire"].__file__, src))
    os.chdir(ROOT)
    return {"python": platform.python_version(), "platform": platform.platform(),
            "source": source, "commands": [record(main, argv) for argv in read_commands()]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--from", dest="rev", help="git revision whose src/ runs the corpus")
    args = parser.parse_args(argv)
    if args.rev is None:
        corpus = build(ROOT / "src", "working tree")
    else:
        commit = _git("rev-parse", "--verify", args.rev + "^{commit}").decode().strip()
        with tempfile.TemporaryDirectory() as scratch:
            corpus = build(unpack_src(commit, scratch), commit)
    TARGET.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print("%d commands written to %s" % (len(corpus["commands"]), TARGET))


if __name__ == "__main__":
    main()
