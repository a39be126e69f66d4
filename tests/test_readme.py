from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # the "Library example" block, run verbatim against the installed API
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    k, error, k_opt = capsys.readouterr().out.split()
    assert 0 <= int(k) <= 1024 and float(error) > 0.0 and 0 <= int(k_opt) <= 1024
