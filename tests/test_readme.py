import argparse
import re
import shlex
from pathlib import Path

from speccut import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def sh_lines():
    """The lines of the README's sh blocks, backslash continuations joined."""
    lines = []
    for block in README.read_text().split("```sh\n")[1:]:
        lines += block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return lines


def test_readme_library_example_runs(capsys):
    # the "Library example" block, run verbatim against the installed API
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    k, error, k_opt = capsys.readouterr().out.split()
    assert 0 <= int(k) <= 1024 and float(error) > 0.0 and 0 <= int(k_opt) <= 1024


def test_readme_command_lines_pass_the_parser(monkeypatch):
    # every documented `speccut ...` line passes main's parsing and usage checks;
    # main looks up run_* per call, so stubs stand in for the runs themselves
    ran = []
    for name in ("run_bench", "run_verify", "run_single"):
        monkeypatch.setattr(cli, name, lambda args, name=name: ran.append(name) or 0)
    lines = [shlex.split(line, comments=True) for line in sh_lines()]
    commands = [words[1:] for words in lines if words[:1] == ["speccut"]]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    assert len(ran) == len(commands) and set(ran) == {"run_bench", "run_verify", "run_single"}


def test_readme_python_one_liners_print_what_they_say(capsys):
    # a `python -c "..."` line followed by `# prints X` must print X (the replay recipe's seed)
    lines = sh_lines()
    checked = 0
    for line, note in zip(lines, lines[1:]):
        words = shlex.split(line)
        if words[:2] == ["python", "-c"] and note.startswith("# prints "):
            exec(compile(words[2], str(README), "exec"), {})
            assert capsys.readouterr().out == note.removeprefix("# prints ") + "\n"
            checked += 1
    assert checked >= 1


def unknown_flags(text: str) -> set[str]:
    """The --flag tokens of `text` that no subcommand's parser takes."""
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    known = {flag for parser in subs.choices.values() for flag in parser._option_string_actions}
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)) - known


def test_readme_flags_are_parser_flags():
    # every --flag the README names, in prose or on a speccut line, is some subcommand's flag;
    # the other tools' lines in its sh blocks (pip, pytest, python) carry their own flags
    text = README.read_text()
    for line in sh_lines():
        if shlex.split(line, comments=True)[:1] not in ([], ["speccut"]):
            text = text.replace(line, "")
    assert unknown_flags(text) == set()
    assert unknown_flags("`--format json` mirrors the same schema") == {"--format"}
