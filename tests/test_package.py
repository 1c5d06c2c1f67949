import importlib
import pkgutil
from pathlib import Path
import subprocess
import sys
import types

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


# the exported names, package attributes that are not submodules: a change
# that adds or removes one edits this set and says so, as for SIZE_BUDGET
PUBLIC_NAMES = {
    "BadConfigError", "BadParameterError", "BoundedVariationError", "ConvergenceFailure",
    "DegenerateDenominator", "Estimate", "ExpJumps", "InsufficientCrossings",
    "InversionFailure", "LevyFluctError", "LevyModel", "MCConfig", "ModelFormatError",
    "NoJumps", "QuadratureFailure", "Regime", "ScaleEngine", "SeriesDivergence",
    "StableJumps", "TOLERANCES", "TemperedStableJumps", "WrongRegimeError",
    "conditioned_resolvent_density", "constant_A", "creeping_probability",
    "dual_lifetime_masses", "entrance_constants", "entrance_law_laplace",
    "estimate_creeping", "estimate_passage_below_laplace", "estimate_survival",
    "estimate_upcross_laplace", "g_family", "h_beta", "hitting_laplace",
    "intensity_cross_after", "intensity_cross_before", "intensity_negative_start",
    "intensity_stay_positive", "intensity_table", "intensity_total",
    "intensity_upper_creep", "inverse_local_time", "kernel_K", "laplace_roundtrip",
    "make_engine", "martingale_check", "mittag_leffler", "model_from_dict",
    "model_to_dict", "occupation_overshoot_identity", "overshoot_mass", "parse_model",
    "passage_below_laplace", "resolvent_density", "run_validation", "sample_terminal",
    "simulate_path", "survival_probability", "w_series_check",
}


def test_public_names():
    names = {name for name, value in vars(levyfluct).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(names) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 60


# the "Size budget" of ROADMAP.md, reset at each re-anchor: an overshoot
# fails here rather than at the next re-anchor
SIZE_BUDGET = 4527


def test_source_within_size_budget():
    files = sorted(Path(levyfluct.__file__).parent.glob("*.py"))
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    assert lines <= SIZE_BUDGET, f"{lines} source lines over the budget of {SIZE_BUDGET}"
