import dataclasses
import inspect
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


def _defaulted(fn) -> int:
    return sum(p.default is not p.empty
               for p in inspect.signature(fn).parameters.values())


def test_public_knob_count_does_not_grow():
    # every defaulted parameter of a public function or public method, and
    # every defaulted dataclass field, is a knob that callers may set; the
    # count may fall, never rise
    import trigconv

    params = fields = 0
    for name in trigconv.__all__:
        obj = getattr(trigconv, name)
        if inspect.isfunction(obj):
            params += _defaulted(obj)
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    params += _defaulted(member)
            if dataclasses.is_dataclass(obj):
                fields += sum(
                    f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                    for f in dataclasses.fields(obj))
    assert params + fields <= 31
    assert len(trigconv.__all__) <= 49
