"""The README's library example prints what its comments claim."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    example = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["hypotheses-met-ID", "((1, 2, 3),)", "0.125"]
