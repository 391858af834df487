"""README.md's examples, run as written.

The Python block runs statement by statement, and every expression
statement whose line ends in a ``# -> value`` comment must give that value.
Every ``znmap ...`` line of the shell blocks (after optional ``NAME=value``
environment settings) runs through ``znmap.cli.main`` in a temporary
directory: it must exit with the code its ``# exits N`` comment states (0
without one), and each file it names with ``--out`` or ``--json`` must
exist and not be empty.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from znmap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
STATED_VALUE = re.compile(r"#\s*->\s*(.+?)\s*$")
STATED_EXIT = re.compile(r"#\s*exits (\d+)\b")


def blocks(lang: str) -> list:
    return [body for info, body in FENCE.findall(README.read_text(encoding="utf-8"))
            if info == lang]


def stated_values(source: str) -> list:
    """Run source one top-level statement at a time; returns (line, got,
    stated) for each statement that carries a ``# -> value`` comment."""
    lines = source.splitlines()
    namespace, checks = {}, []
    for stmt in ast.parse(source).body:
        stated = STATED_VALUE.search(lines[stmt.end_lineno - 1][stmt.end_col_offset:])
        if stated is None:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), f"line {stmt.lineno}: only an expression states a value"
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        checks.append((stmt.lineno, got, eval(stated.group(1), {})))
    return checks


def cli_commands() -> list:
    """(line, environment, argv) of each ``znmap`` line of the shell blocks."""
    commands = []
    for body in blocks("sh"):
        for line in body.splitlines():
            words = shlex.split(line, comments=True)
            env = {}
            while words and re.fullmatch(r"[A-Z_][A-Z0-9_]*=\S*", words[0]):
                name, _, value = words.pop(0).partition("=")
                env[name] = value
            if words and words[0] == "znmap":
                commands.append((line, env, words[1:]))
    return commands


def test_python_block_gives_the_values_its_comments_state():
    (source,) = blocks("python")
    checks = stated_values(source)
    assert len(checks) == source.count("# ->") > 0
    for line, got, stated in checks:
        assert got == stated, f"python block line {line}: got {got!r}, README states {stated!r}"


def test_readme_runs_every_subcommand():
    shown = {argv[0] for _, _, argv in cli_commands() if not argv[0].startswith("-")}
    assert shown == {"eval", "orbit", "curve", "rotation", "basin", "unfold-scan",
                     "singularity", "verify"}


@pytest.mark.parametrize("line, env, argv", [
    pytest.param(*command, id=command[0].partition("#")[0].strip()) for command in cli_commands()])
def test_cli_line_exits_as_stated(line, env, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ZNMAP_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --version and usage errors
        code = exc.code
    stated = STATED_EXIT.search(line)
    assert code == (int(stated.group(1)) if stated else 0), capsys.readouterr().err
    for flag in ("--out", "--json"):
        if flag in argv:
            path = tmp_path / argv[argv.index(flag) + 1]
            assert path.is_file() and path.stat().st_size > 0, f"{flag} {path.name}"
