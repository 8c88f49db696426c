"""The package loads a module only when one of its names is used, and binds
the same objects as the modules, in whatever order they are imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hooplog

_SRC = str(Path(hooplog.__file__).parent.parent)


def _child(*args: str) -> subprocess.CompletedProcess:
    # -S: no site hooks, whose imports are not hooplog's
    out = subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert out.returncode == 0, out.stderr
    return out


# The child prints, at exit, the hooplog modules it loaded and whether it
# loaded `dataclasses`; the second case is `python -m hooplog models enum`.
_LOADED_CHILD = r"""
import atexit, sys
atexit.register(lambda: print(
    sorted(m for m in sys.modules if m.split(".")[0] == "hooplog"),
    "dataclasses" in sys.modules,
))
"""


@pytest.mark.parametrize(
    "code, hooplog_modules",
    [
        (
            "from hooplog import enumerate_algebras",
            ["hooplog", "hooplog.algebra", "hooplog.syntax", "hooplog.theories"],
        ),
        (
            "import runpy\n"
            "sys.argv[1:] = ['models', 'enum', '--max-size', '2']\n"
            "runpy.run_module('hooplog', run_name='__main__')",
            [
                "hooplog", "hooplog.algebra", "hooplog.cli", "hooplog.sequent",
                "hooplog.syntax", "hooplog.theories",
            ],
        ),
    ],
)
def test_a_fresh_interpreter_loads_only_what_it_uses(code, hooplog_modules):
    out = _child("-c", _LOADED_CHILD + code).stdout
    assert out.splitlines()[-1] == f"{hooplog_modules} False"


_BINDING_CHILD = r"""
import importlib, sys
importlib.import_module(sys.argv[1])
import hooplog

wrong = []
for name in hooplog.__all__:
    got = getattr(hooplog, name)
    if got is not getattr(sys.modules["hooplog." + hooplog._EXPORTS[name]], name):
        wrong.append(name)
for module in sorted(set(hooplog._EXPORTS.values()) - set(hooplog.__all__)):
    if getattr(hooplog, module) is not sys.modules["hooplog." + module]:
        wrong.append(module)
print(wrong)
"""


@pytest.mark.parametrize("first", ["hooplog", "hooplog.translate"])
def test_the_package_binds_each_modules_own_objects(first):
    # `translate` names both a module and its function; the package
    # exports the function, as an eager `from .translate import` did
    assert _child("-c", _BINDING_CHILD, first).stdout == "[]\n"
