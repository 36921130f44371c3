"""The README's library example prints what its comments claim, and its
CLI examples parse."""

import shlex
from pathlib import Path

from permkernel import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["hypotheses-met-ID", "((1, 2, 3),)", "0.125"]


def test_readme_cli_examples_parse():
    text = README.read_text()
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("permkernel ")]
    assert len(commands) == 6
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
