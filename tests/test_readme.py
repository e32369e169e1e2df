import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(len(line.split()) == 3 for line in lines)
    assert "GROUP_BV(N0=1) holds 0.666666666666" in "\n".join(lines)
