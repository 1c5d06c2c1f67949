import importlib
import pkgutil
from pathlib import Path
import subprocess
import sys

import pytest

import levyfluct
from conftest import child_env


@pytest.mark.parametrize("module", ["scipy", "scipy.signal", "scipy.integrate", "scipy.optimize"])
def test_import_leaves_scipy_module_unloaded(module):
    # every quadrature runs on the package's own array rule, the small-jump
    # cutoff on its own bisection and the special functions on math and numpy
    code = f"import sys, levyfluct; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=child_env())
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_scipy_module():
    code = ("import sys, levyfluct.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=child_env())
    assert out.stdout.strip() == "[]"


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(levyfluct.__path__):
        module = importlib.import_module(f"levyfluct.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{info.name}.{name}"


# the "Size budget" of ROADMAP.md, reset at each re-anchor: an overshoot
# fails here rather than at the next re-anchor
SIZE_BUDGET = 4527


def test_source_within_size_budget():
    files = sorted(Path(levyfluct.__file__).parent.glob("*.py"))
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    assert lines <= SIZE_BUDGET, f"{lines} source lines over the budget of {SIZE_BUDGET}"
