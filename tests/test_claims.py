"""The README's claims ledger: every verify row it names prints, in both unit systems,
with the status the ledger quotes, and every claim is the abstract's and has a verdict."""

import re
from pathlib import Path

import pytest

from fermiwire.cli import main

ROOT = Path(__file__).resolve().parents[1]
VERDICTS = ("supported", "qualified", "not reproduced", "none yet")
ROW = re.compile(r"^`([a-z0-9_]+)` (PASS|INFO)$")


def ledger(readme):
    """(claim, {row: status}, verdict, refuted by) of each row of the Claims table."""
    section = readme.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| ")][2:]
    entries = []
    for line in lines:
        claim, rows, verdict, refuted = [cell.strip() for cell in line.strip("|").split(" | ")]
        named = {}
        if rows != "none yet":
            for part in rows.split("; "):
                match = ROW.match(part)
                assert match, "not a `row` STATUS entry: %r" % (part,)
                named[match.group(1)] = match.group(2)
        entries.append((claim, named, verdict, refuted))
    return entries


LEDGER = ledger((ROOT / "README.md").read_text(encoding="utf-8"))


def verify_statuses(capsys, units):
    """{row: status} of what `fermiwire verify --units units` prints."""
    main(["verify", "--units", units])
    lines = capsys.readouterr().out.splitlines()[:-1]  # the last line is the summary
    return {line.split()[0]: line.split()[-1] for line in lines}


def test_every_claim_of_the_abstract_has_a_row_and_a_verdict():
    abstract = (ROOT / "PAPER.md").read_text(encoding="utf-8")
    assert len(LEDGER) == 4
    for claim, named, verdict, refuted in LEDGER:
        assert claim.startswith('"') and claim.endswith('"') and claim[1:-1] in abstract
        assert verdict.startswith(VERDICTS), verdict
        assert refuted
        if verdict.startswith("none yet"):
            assert re.search(r"\bitem \d+", verdict), "name the item that adds a row: %r" % verdict
        else:
            assert named, "a verdict other than none yet rests on rows: %r" % (claim,)


@pytest.mark.parametrize("units", ["reduced", "si"])
def test_named_rows_print_with_the_quoted_status(capsys, units):
    statuses = verify_statuses(capsys, units)
    quoted = {row: status for _, named, _, _ in LEDGER for row, status in named.items()}
    assert quoted and {row: statuses.get(row) for row in quoted} == quoted


def test_ledger_reader_names_a_moved_row():
    table = ("## Claims\n\n| Claim | rows | Verdict | Refuted by |\n| --- | --- | --- | --- |\n"
             '| "a" | `x_row` PASS; `y_row` INFO | supported | z |\n'
             '| "b" | none yet | none yet: item 9 | w |\n\n## Next\n')
    assert ledger("\n" + table) == [('"a"', {"x_row": "PASS", "y_row": "INFO"}, "supported", "z"),
                                    ('"b"', {}, "none yet: item 9", "w")]
    with pytest.raises(AssertionError, match="not a `row` STATUS entry"):
        ledger("\n" + table.replace("`x_row` PASS", "`x_row` passes"))
