"""Every command line of the golden transcript (``tests/golden.py``) still
prints what ``tests/data/cli-golden.txt`` holds: the same exit code, stdout,
stderr and ``--out`` file. After an intended change, record the transcript
again with ``python tests/golden.py --write``. Every block it records keeps
the exit rule of ``test_cli_inputs.check_exit``."""

from __future__ import annotations

import golden
from test_cli_inputs import check_exit


def test_each_command_prints_what_the_transcript_holds(tmp_path):
    kept = golden.split(golden.GOLDEN.read_text(encoding="utf-8"))
    fresh = golden.transcript(tmp_path)
    for new, old in zip(fresh, kept):
        assert new == old, new.splitlines()[0]
    assert [block.splitlines()[0] for block in fresh] \
        == [block.splitlines()[0] for block in kept]


def test_each_recorded_block_keeps_the_exit_rule():
    for block in golden.split(golden.GOLDEN.read_text(encoding="utf-8")):
        command, code, *rest = block.splitlines()
        section, err_lines = None, []
        for line in rest:
            if line in ("--- stdout", "--- stderr", "--- {out}"):
                section = line
            elif section == "--- stderr":
                err_lines.append(line)
        check_exit(int(code.removeprefix("exit ")), err_lines, command)
