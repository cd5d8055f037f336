"""Every module compiles cleanly with warnings turned into errors.

An import can be served from a cached bytecode file, which hides
compile-time warnings such as invalid escape sequences; compiling the
source text catches them on every run.
"""

import pathlib
import warnings

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "extremal"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
