"""The usage examples in README.md run as written."""

import shlex
from pathlib import Path

import pytest

from trisym.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str, after: str) -> list[str]:
    """Lines of the first ``lang`` code block that follows the text ``after``."""
    text = README.read_text()
    text = text[text.index(after):]
    start = text.index(f"```{lang}\n") + len(f"```{lang}\n")
    return text[start:text.index("```", start)].splitlines()


def _commands() -> list[tuple[list[str], str | None]]:
    """Arguments of each ``trisym`` command in the shell Usage block, with
    its expected stdout when the next line reads ``# -> X``.  A trailing
    backslash continues a command on the next line."""
    lines, pending = [], ""
    for line in _block("sh", "## Usage"):
        if line.endswith("\\"):
            pending += line[:-1]
        else:
            lines.append(pending + line)
            pending = ""
    marker = "# -> "
    return [
        (shlex.split(line)[1:],
         following[len(marker):] if following.startswith(marker) else None)
        for line, following in zip(lines, lines[1:] + [""])
        if line.startswith("trisym ")
    ]


COMMANDS = _commands()


def test_usage_block_found():
    assert len(COMMANDS) >= 5
    assert any(expected is not None for _, expected in COMMANDS)


@pytest.mark.parametrize(
    "argv,expected", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
)
def test_shell_usage(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --out files land here
    assert run(argv) == 0
    out = capsys.readouterr().out
    if expected is not None:
        assert out == expected + "\n"


def test_python_usage():
    code = "\n".join(_block("python", "From Python:"))
    exec(compile(code, str(README), "exec"), {})
