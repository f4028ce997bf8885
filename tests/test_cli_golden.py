"""Golden CLI contract: exit code and stdout of fixed commands.

`tests/cli_golden.json` lists each command of `COMMANDS` with its argv,
exit code and stdout.  An stdout longer than `INLINE_LIMIT` characters is
pinned by its sha256 and length instead of verbatim.  stderr is not part
of the contract here.

Regenerate the file from the program on the import path with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from pdocycles.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
INLINE_LIMIT = 16384

NONCOMMUTING_K2 = ["P_PLUS+2*z^-1", "z^2*P_MINUS+3*D*z^1", "z^-2+3*z^-1",
                   "D*z^1+2*P_PLUS"]
SHIFTS_K3 = ["z^-1", "z^1", "z^-2", "z^2", "z^-3", "z^3"]

COMMANDS = [
    ["omega", "z^-3", "z^3"],
    ["omega", "D", "z^-2", "--format", "structured"],
    ["omega", "--dim", "2", "{{1,0},{0,2}}*z^-2", "z^1+{{0,1},{1,0}}*z^2"],
    ["omega", "--dim", "2", "{{0,1},{0,0}}*z^-1", "{{1,0},{1,1}}*z^1",
     "--format", "structured"],
    ["cocycle", "--k", "1", "z^-2", "z^2"],
    ["cocycle", "--k", "1", "--verbose", "z^-2", "z^2"],
    ["cocycle", "--k", "1", "--format", "structured", "z^-3", "P_PLUS*z^3"],
    ["cocycle", "--k", "1", "--verbose", "--format", "structured", "--dim", "2",
     "{{1,0},{0,i}}*z^-1", "{{2,0},{1,1}}*z^1"],
    ["cocycle", "--k", "2", "z^-2", "z^2", "z^-3", "z^3"],
    ["cocycle", "--k", "2", "--verbose", "z^-2", "z^2", "z^-3", "z^3"],
    ["cocycle", "--k", "2"] + NONCOMMUTING_K2,
    ["cocycle", "--k", "2", "--verbose"] + NONCOMMUTING_K2,
    ["cocycle", "--k", "2", "--verbose", "--format", "structured"]
    + NONCOMMUTING_K2,
    ["cocycle", "--k", "3"] + SHIFTS_K3,
    ["cocycle", "--k", "3", "--format", "structured"] + SHIFTS_K3,
    ["cocycle", "--k", "3", "--verbose"] + SHIFTS_K3,
    ["cocycle", "--k", "3", "--verbose", "--format", "structured"] + SHIFTS_K3,
    ["cocycle", "--k", "1", "--level", "symbol", "z^-2", "z^2"],
    ["cocycle", "--k", "1", "--level", "symbol", "--dim", "2", "--format",
     "structured", "{{1,0},{0,2}}*z^-3", "z^3"],
    ["cocycle", "--k", "1", "2", "z^1"],
    ["residue", "P_PLUS * [P_PLUS, D]"],
    ["residue", "[z^-1, z^1]", "--format", "structured"],
    ["residue", "--dim", "2", "{{1,0},{0,3}}*z^1*ABS_D*[z^-1, D]",
     "--format", "structured"],
    ["verify", "closedness", "--samples", "3", "--seed", "7"],
    ["verify", "closedness", "--k", "2", "--samples", "2", "--seed", "5",
     "--dim", "2", "--degree", "2", "--format", "structured"],
    ["verify", "bianchi", "--samples", "3", "--seed", "3"],
    ["verify", "residue-trace", "--samples", "4", "--seed", "4", "--format",
     "structured"],
    ["verify", "oracle", "--samples", "3", "--seed", "2"],
    ["repro", "case-table"],
    ["repro", "schwinger", "--format", "structured"],
    ["repro", "four-cocycle"],
]


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def record(argv) -> dict:
    code, stdout = invoke(argv)
    entry = {"argv": list(argv), "exit": code}
    if len(stdout) > INLINE_LIMIT:
        entry["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        entry["stdout_length"] = len(stdout)
    else:
        entry["stdout"] = stdout
    return entry


# Missing file: no parametrized cases, and the coverage test fails.
ENTRIES = (json.loads(GOLDEN.read_text(encoding="utf-8"))
           if GOLDEN.exists() else [])


def test_golden_covers_every_command():
    assert [e["argv"] for e in ENTRIES] == COMMANDS


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_matches_golden(entry):
    code, stdout = invoke(entry["argv"])
    assert code == entry["exit"]
    if "stdout" in entry:
        assert stdout == entry["stdout"]
    else:
        assert len(stdout) == entry["stdout_length"]
        assert hashlib.sha256(stdout.encode()).hexdigest() == entry["stdout_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(argv) for argv in COMMANDS], indent=1,
                                 ensure_ascii=False) + "\n", encoding="utf-8")
