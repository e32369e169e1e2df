import pathlib
import re
import shlex

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(len(line.split()) == 3 for line in lines)
    assert "GROUP_BV(N0=1) holds 0.666666666666" in "\n".join(lines)


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    from trigconv.cli import main

    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("trigconv ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.txt").write_text(
        "".join(f"{1.0 / k ** 2!r}\n" for k in range(1, 4097)))
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "curve.csv").is_file()
    assert (tmp_path / "curve.csv.manifest.json").is_file()
