import importlib
import pkgutil
import subprocess
import sys

import pytest

import levyfluct


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate", "scipy.optimize"])
def test_import_leaves_scipy_module_unloaded(module):
    # every quadrature runs on the package's own array rule, and the
    # small-jump cutoff on its own bisection
    code = f"import sys, levyfluct; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(levyfluct.__path__):
        module = importlib.import_module(f"levyfluct.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{info.name}.{name}"
