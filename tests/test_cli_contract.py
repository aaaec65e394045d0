"""Every command of the CLI contract still prints what was recorded.

tests/cli_contract.json maps each argv line to the sha256 of its stdout and
of its stderr and to its exit code. tests/record_cli_contract.py writes it
and lists the commands; a change that alters a command's output re-records
that command alone.
"""

import json

from record_cli_contract import CORPUS, commands, run


def test_the_corpus_records_every_listed_command():
    assert sorted(json.loads(CORPUS.read_text())) == sorted(commands())


def test_every_command_prints_its_recorded_output():
    corpus = json.loads(CORPUS.read_text())
    changed = {line: found for line, recorded in corpus.items() if (found := run(line)) != recorded}
    assert not changed, f"{len(changed)} of {len(corpus)} commands differ: {sorted(changed)}"
