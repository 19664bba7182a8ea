"""The README's commands, run in order as a user would type them.

Every `termdep ...` line of the README's sh blocks, with `\\` continuations
joined, runs through cli.main in one empty directory.  Each call must exit
0, and each output its --out names must read back: a run through
read_run, anything else through csv or json (a directory file by file).
"""

import csv
import json
import re
import shlex
from pathlib import Path

from termdep.cli import main
from termdep.evaluation import load_qrels
from termdep.retrieval import read_run

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argument lists of the README's `termdep` lines, in order."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["termdep"]:
                commands.append(words[1:])
    return commands


def csv_rows(delimiter):
    def read(path):
        with open(path, newline="", encoding="utf-8") as f:
            return list(csv.reader(f, delimiter=delimiter))

    return read


def json_lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


# Each kind of output by its suffix, read back into something that must be
# nonempty.  The fixture writes the .jsonl corpus, the .tsv queries and
# lexicon, and the .txt qrels that the later commands read.
READERS = {
    ".run": lambda path: read_run(str(path)).results,
    ".json": lambda path: json.loads(path.read_text(encoding="utf-8")),
    ".jsonl": json_lines,
    ".csv": csv_rows(","),
    ".tsv": csv_rows("\t"),
    ".txt": lambda path: load_qrels(str(path)).judgments,
}


def read_back(path):
    if path.is_dir():
        files = sorted(path.iterdir())
        assert files, path
        for p in files:
            read_back(p)
    else:
        assert READERS[path.suffix](path), path


def test_readme_commands_run_and_their_outputs_read_back(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert commands and commands[0][0] == "fixture"
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        if "--out" in argv:
            read_back(tmp_path / argv[argv.index("--out") + 1])
