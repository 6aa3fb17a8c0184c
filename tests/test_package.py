"""The package namespace is the union of its modules' ``__all__`` lists, and
README's library example and table of ``problem`` kinds match the package."""

import importlib
import inspect
import pathlib
import re

import pytest

import drsubmax
from drsubmax import objectives

_MODULES = ("analysis", "bounds", "geometry", "objectives", "optimizers", "oracles")


@pytest.mark.parametrize("module", _MODULES)
def test_every_public_name_is_the_module_object(module):
    mod = importlib.import_module(f"drsubmax.{module}")
    for name in mod.__all__:
        assert getattr(drsubmax, name) is getattr(mod, name), name


def test_all_is_the_union_with_no_name_twice():
    names = [name for module in _MODULES
             for name in importlib.import_module(f"drsubmax.{module}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(drsubmax.__all__) == sorted(names)
    # the command line stays out of the package namespace
    assert "main" not in vars(drsubmax)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_as_written(capsys):
    """README's *Library example* block, run as it stands, prints its one line."""
    readme = README.read_text()
    block = readme.split("## Library example\n")[1].split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert re.fullmatch(r"worst final value \d+\.\d{4} vs bound -?\d+\.\d{4}\n", out), out


def test_readme_problem_table_is_the_builders():
    """README's table of ``problem`` kinds has one row a kind of
    ``objectives._PROBLEMS``, in its order, each with the builder's
    signature: the parameter names, with ``=repr(default)`` where there is one."""
    table = README.read_text().split("| `kind` | builder |\n| --- | --- |\n")[1]
    rows = table.split("\n\n")[0].splitlines()
    expected = []
    for kind, builder in objectives._PROBLEMS.items():
        params = ", ".join(
            name if param.default is param.empty else f"{name}={param.default!r}"
            for name, param in inspect.signature(builder).parameters.items())
        expected.append(f"| `{kind}` | `{builder.__name__}({params})` |")
    assert rows == expected
