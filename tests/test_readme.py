import ast
import dataclasses
import inspect
import pathlib
import re
import shlex

import pytest

import _cli_runs

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(len(line.split()) == 3 for line in lines)
    assert "GROUP_BV(N0=1) holds 0.666666666666" in "\n".join(lines)


def test_readme_cli_commands_repeat_byte_for_byte(tmp_path, monkeypatch,
                                                  capsys):
    # one process runs the README commands, meets a usage error (exit 2),
    # then runs them again: every exit code, output and written file repeats
    from trigconv.cli import main

    commands = [shlex.split(command)[1:]
                for name, _, command in _cli_runs.runs()
                if name.startswith("readme")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.txt").write_text(_cli_runs.COEFFS)

    def run_all():
        runs = []
        for argv in commands:
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        written = [(tmp_path / name).read_text()
                   for name in ("curve.csv", "curve.csv.manifest.json")]
        return runs, written

    first = run_all()
    with pytest.raises(SystemExit) as exc:
        main(["curve", "log_damped", "--nref", "x"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run_all() == first


def _shown_signatures(section: str):
    """(name, object, ast.arguments) for every backticked ``name(...)`` in
    ``section`` whose dotted name resolves on trigconv."""
    import trigconv

    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        call = re.fullmatch(r"([A-Za-z_][\w.]*)\((.*)\)", span, re.S)
        if call is None:
            continue
        obj = trigconv
        for part in call.group(1).split("."):
            obj = getattr(obj, part, None)
        if callable(obj):
            args = ast.parse(f"def _({call.group(2)}): pass").body[0].args
            yield call.group(1), obj, args


def test_readme_library_signatures_match_the_code():
    # names in order, keyword-only where the README shows `*`, every
    # default the README shows, and no default where it shows none
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):text.index("## CLI")]
    checked = set()
    for name, obj, args in _shown_signatures(section):
        params = list(inspect.signature(obj).parameters.values())
        shown = args.posonlyargs + args.args + args.kwonlyargs
        assert [(a.arg, a in args.kwonlyargs) for a in shown] == \
            [(p.name, p.kind is p.KEYWORD_ONLY) for p in params], name
        by_name = {p.name: p for p in params}
        defaults = list(zip(args.args[len(args.args) - len(args.defaults):],
                            args.defaults))
        defaults += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None]
        for arg, default in defaults:
            assert ast.literal_eval(default) == by_name[arg.arg].default, \
                (name, arg.arg)
        shown_defaults = {arg.arg for arg, _ in defaults}
        for p in params:
            assert p.name in shown_defaults or p.default is p.empty, \
                (name, p.name)
        checked.add(name)
    assert {"classify", "convergence_curve", "check_group_bv",
            "check_rest_bv", "check_weighted_rest_bv"} <= checked


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
    assert params + fields <= 18
    assert len(trigconv.__all__) <= 38


def _assigned_at_top_level(mod) -> set:
    return {target.id for node in ast.parse(inspect.getsource(mod)).body
            if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def test_each_public_name_is_listed_once_by_the_module_that_defines_it():
    import trigconv
    from trigconv import conditions, harness, sequences, series

    listed = []
    for mod in (sequences, conditions, series, harness):
        assigned = _assigned_at_top_level(mod)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, (mod.__name__, name)
            else:
                assert name in assigned, (mod.__name__, name)
        listed += mod.__all__
    assert len(listed) == len(set(listed))
    assert trigconv.__all__ == ["__version__", *listed]


def _package_imports(path: pathlib.Path) -> set:
    """The modules of the package that a source file imports: the name
    after ``trigconv.`` of every import, or the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = ["trigconv." + (node.module or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "trigconv":
                found.add(parts[1] if len(parts) > 1 else "trigconv")
    return found


def test_series_and_conditions_are_independent_layers():
    # the checkers and the partial-sum engine read only sequences and
    # summation, so neither depends on the other; harness joins them
    src = README.parent / "src" / "trigconv"
    assert {"conditions", "series"} <= _package_imports(src / "harness.py")
    for name in ("series", "conditions"):
        assert _package_imports(src / f"{name}.py") <= \
            {"sequences", "summation"}, name
