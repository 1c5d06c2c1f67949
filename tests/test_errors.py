import math

import numpy as np
import pytest

from levyfluct import (
    BadConfigError,
    BadParameterError,
    ExpJumps,
    LevyModel,
    MCConfig,
    StableJumps,
    TemperedStableJumps,
    conditioned_resolvent_density,
    entrance_law_laplace,
    estimate_upcross_laplace,
    g_family,
    h_beta,
    hitting_laplace,
    intensity_total,
    kernel_K,
    laplace_roundtrip,
    make_engine,
    martingale_check,
    mittag_leffler,
    run_validation,
    simulate_path,
    w_series_check,
)
from levyfluct.errors import _check_arg
from conftest import bm

NAN = math.nan
INF = math.inf


# each of these returned nan, a finite value or a QuadratureFailure before
# the one argument check covered them
@pytest.mark.parametrize("call", [
    pytest.param(lambda e: g_family(e).g(NAN), id="g-nan"),
    pytest.param(lambda e: g_family(e).g_minus_beta(0.0, NAN), id="g_minus-nan"),
    pytest.param(lambda e: g_family(e).g_tilde(NAN), id="g_tilde-nan"),
    pytest.param(lambda e: g_family(e).g_minus_beta(0.5, NAN), id="g_minus_beta-nan"),
    pytest.param(lambda e: mittag_leffler(1.5, 1.5, NAN), id="ml-z-nan"),
    pytest.param(lambda e: mittag_leffler(1.5, 1.5, INF), id="ml-z-inf"),
    pytest.param(lambda e: mittag_leffler(3.0, 1.0, 2.0), id="ml-a-above-2"),
    pytest.param(lambda e: laplace_roundtrip(e, 0.5, NAN), id="roundtrip-lam-nan"),
    pytest.param(lambda e: laplace_roundtrip(e, 0.5, INF), id="roundtrip-lam-inf"),
    pytest.param(lambda e: e.model.ladder_tail(NAN), id="ladder_tail-nan"),
    pytest.param(lambda e: e.model.ladder_tail(INF), id="ladder_tail-inf"),
])
def test_public_entry_points_reject_non_finite_arguments(engine_b, call):
    with pytest.raises(BadParameterError):
        call(engine_b)


def test_mittag_leffler_domain_edges():
    assert mittag_leffler(2.0, 1.0, 4.0) == pytest.approx(math.cosh(2.0), rel=1e-12)
    for a, b in ((0.0, 1.0), (1.5, NAN), (1.5, INF)):
        with pytest.raises(BadParameterError):
            mittag_leffler(a, b, 1.0)


def test_array_check_names_the_first_bad_point():
    with pytest.raises(BadParameterError, match=r"^x must be finite and > 0, got nan$"):
        _check_arg("x", np.array([0.5, NAN, -1.0]), points=True)
    with pytest.raises(BadParameterError, match=r"^y must be finite, got inf$"):
        _check_arg("y", np.array([[-3.0, 2.0], [INF, 0.0]]), -INF, points=True)
    out = _check_arg("x", np.array([0, 1, 2]), strict=False, points=True)
    assert out.dtype == float and out.tolist() == [0.0, 1.0, 2.0]


def test_scalar_check_wording_and_bounds():
    assert _check_arg("beta", 0.0, strict=False) == 0.0
    assert isinstance(_check_arg("x", np.float32(2.0)), float)
    with pytest.raises(BadParameterError, match=r"^beta must be finite and >= 0, got -1.0$"):
        _check_arg("beta", -1.0, strict=False)
    with pytest.raises(BadParameterError, match=r"^lam must be finite and > 1.5, got 1.5$"):
        _check_arg("lam", 1.5, 1.5)


_PAIR = np.array([0.5, 1.0])
_MC = MCConfig(dt=1e-2, paths=100, horizon=1.0)


# each of these raised a builtins ValueError or TypeError on an array
# before arrays were rejected at the arguments that take one number
@pytest.mark.parametrize("call", [
    pytest.param(lambda e: h_beta(e, _PAIR, 0.7), id="h_beta-beta"),
    pytest.param(lambda e: h_beta(e, 0.5, _PAIR), id="h_beta-y"),
    pytest.param(lambda e: hitting_laplace(e, 0.5, _PAIR), id="hitting-y"),
    pytest.param(lambda e: conditioned_resolvent_density(e, 0.5, 0.5, _PAIR, 1.0),
                 id="conditioned-x"),
    pytest.param(lambda e: g_family(e).g_tilde(_PAIR), id="g_tilde-x"),
    pytest.param(lambda e: g_family(e).g_minus_beta(0.5, -_PAIR), id="g_minus_beta-x"),
    pytest.param(lambda e: g_family(e).g_minus_beta(_PAIR, -0.5), id="g_minus_beta-beta"),
    pytest.param(lambda e: g_family(make_engine(bm(-1.0))).g(-_PAIR), id="g-x-drift-down"),
    pytest.param(lambda e: laplace_roundtrip(e, 0.5, 3.0 + _PAIR), id="roundtrip-lam"),
    pytest.param(lambda e: e.model.phi(_PAIR), id="phi-q"),
    pytest.param(lambda e: e.w(_PAIR, 0.5), id="w-q"),
    pytest.param(lambda e: intensity_total(e, _PAIR), id="intensity_total-beta"),
    pytest.param(lambda e: entrance_law_laplace(e, _PAIR, lambda x: 1.0, (-1.0, 1.0)),
                 id="entrance-q"),
    pytest.param(lambda e: kernel_K(e, 0.5, _PAIR, lambda y, w: 1.0), id="kernel-x"),
    pytest.param(lambda e: w_series_check(e, 0.5, _PAIR), id="series-x"),
    pytest.param(lambda e: estimate_upcross_laplace(e.model, _MC, _PAIR, 2.5), id="upcross-a"),
    pytest.param(lambda e: martingale_check(e.model, _MC, _PAIR), id="martingale-lam"),
])
def test_arguments_taking_one_number_reject_arrays(engine_b, call):
    with pytest.raises(BadParameterError, match="must be one number"):
        call(engine_b)


def test_zero_dimensional_array_counts_as_a_number(engine_b):
    assert engine_b.model.phi(np.array(2.5)) == engine_b.model.phi(2.5)
    assert intensity_total(engine_b, np.array(0.5)) == intensity_total(engine_b, 0.5)
    assert h_beta(engine_b, np.array(0.5), np.array(0.7)) == h_beta(engine_b, 0.5, 0.7)


# each of these raised a builtins TypeError or ValueError before values
# that are not real numbers were rejected by name
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda e: intensity_total(e, [0.5, 1.0]), "beta", id="total-list"),
    pytest.param(lambda e: intensity_total(e, None), "beta", id="total-none"),
    pytest.param(lambda e: e.w(0.5, [0.5, 1.0]), "x", id="w-x-list"),
    pytest.param(lambda e: e.w(0.5, 1 + 2j), "x", id="w-x-complex"),
    pytest.param(lambda e: e.w(0.5, np.array([0.5, 1j])), "x", id="w-x-complex-array"),
    pytest.param(lambda e: e.w(None, 0.5), "q", id="w-q-none"),
    pytest.param(lambda e: h_beta(e, 0.5, "x"), "y", id="h_beta-y-str"),
    pytest.param(lambda e: h_beta(e, "0.5", 0.7), "beta", id="h_beta-beta-numeric-str"),
    pytest.param(lambda e: e.model.phi("2"), "phi: q", id="phi-q-str"),
    pytest.param(lambda e: mittag_leffler(1.5, 1.0, [1.0]), "z", id="ml-z-list"),
    pytest.param(lambda e: entrance_law_laplace(e, 0.5, lambda x: 1.0, "ab"), "support",
                 id="entrance-support-str"),
    pytest.param(lambda e: simulate_path(e.model, _MC, 0, "x"), "level", id="path-level-str"),
    pytest.param(lambda e: _check_arg("x", True), "x", id="bool"),
    pytest.param(lambda e: _check_arg("x", np.array([True]), points=True), "x", id="bool-array"),
])
def test_values_that_are_not_real_numbers_are_rejected_by_name(engine_b, call, name):
    with pytest.raises(BadParameterError, match=rf"^{name} must be a real number, got "):
        call(engine_b)


# a valid value of every real field of the constructors; each field is
# checked once, at construction, and kept as a float
_FIELDS = {
    LevyModel: {"gamma": 1.0, "sigma2": 1.0},
    ExpJumps: {"rate": 1.0, "jump_rate": 2.0},
    StableJumps: {"alpha": 1.5, "scale": 1.0},
    TemperedStableJumps: {"alpha": 1.5, "scale": 1.0, "tempering": 1.0},
    MCConfig: {"dt": 1e-2, "horizon": 1.0, "small_jump_cutoff": 0.1},
}
_NOT_REAL = {"nan": NAN, "inf": INF, "-inf": -INF, "None": None, "str": "x", "list": [1.0],
             "array": np.array([1.0, 2.0]), "complex": 1 + 0j, "bool": True}


# each of these raised a builtins TypeError, or was accepted, before the
# constructors went through the one argument check.  None is a valid
# horizon and small_jump_cutoff: it picks their default
@pytest.mark.parametrize("cls, name, value", [
    pytest.param(cls, name, value, id=f"{cls.__name__}-{name}-{label}")
    for cls, kw in _FIELDS.items() for name in kw for label, value in _NOT_REAL.items()
    if not (value is None and name in ("horizon", "small_jump_cutoff"))
])
def test_constructors_reject_a_bad_real_field_by_name(cls, name, value):
    error = BadConfigError if cls is MCConfig else BadParameterError
    prefix = "" if cls in (LevyModel, MCConfig) else r"jumps\."
    kwargs = {**_FIELDS[cls], name: value, **({"paths": 10} if cls is MCConfig else {})}
    with pytest.raises(error, match=rf"^{prefix}{name} must be "):
        cls(**kwargs)


def test_model_rejects_jumps_outside_the_families():
    with pytest.raises(BadParameterError, match=r"^jumps must be one of"):
        LevyModel(gamma=1.0, sigma2=1.0, jumps="cp")


def test_validation_checks_its_monte_carlo_settings(monkeypatch):
    # before any suite has run, so a bad setting costs no report
    from levyfluct import validation

    suites = []
    monkeypatch.setattr(validation, "_model_checks", lambda *args: suites.append(args) or [])
    with pytest.raises(BadConfigError, match=r"^dt must be a real number"):
        run_validation(bm(1.0), with_mc=True, dt=None)
    with pytest.raises(BadConfigError, match=r"^dt must be <= 1"):
        run_validation(bm(1.0), with_mc=True, dt=2.0)
    with pytest.raises(BadConfigError, match=r"^paths must be an integer"):
        run_validation(bm(1.0), with_mc=True, paths=2.5)
    assert suites == []


@pytest.mark.parametrize("support", [(1.0, 2.0, 3.0), (1.0,), None, 5.0],
                         ids=["triple", "single", "none", "number"])
def test_support_that_is_not_a_pair_is_rejected_by_name(engine_b, support):
    with pytest.raises(BadParameterError, match=r"^support must be a pair \(lo, hi\), got "):
        entrance_law_laplace(engine_b, 0.5, lambda x: 1.0, support)


@pytest.mark.parametrize("convert", [np.float64, np.float32, np.int64, np.array],
                         ids=["float64", "float32", "int64", "0-d"])
def test_numpy_fields_give_the_float_model(convert):
    # fields given as numpy scalars or 0-d arrays are stored as floats: the
    # model is equal and hash-equal to the float one, and phi agrees bitwise
    want = LevyModel(gamma=1.0, sigma2=1.0, jumps=ExpJumps(rate=1.0, jump_rate=2.0))
    got = LevyModel(gamma=convert(1), sigma2=convert(1),
                    jumps=ExpJumps(rate=convert(1), jump_rate=convert(2)))
    assert got == want and hash(got) == hash(want)
    assert all(type(v) is float
               for v in (got.gamma, got.sigma2, got.jumps.rate, got.jumps.jump_rate))
    assert got.phi(0.5) == want.phi(0.5)
    cfg = MCConfig(dt=convert(1), paths=np.int64(10), seed=np.uint64(3), horizon=convert(2))
    assert cfg == MCConfig(dt=1.0, paths=10, seed=3, horizon=2.0)
    assert type(cfg.dt) is float and type(cfg.paths) is int and type(cfg.seed) is int
