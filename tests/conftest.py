import os
from pathlib import Path

import pytest

import levyfluct
from levyfluct import (
    ExpJumps,
    LevyModel,
    NoJumps,
    StableJumps,
    TemperedStableJumps,
    make_engine,
)


def child_env():
    # the environment of a child interpreter, with the imported package's
    # source directory first on its PYTHONPATH so that it imports the same
    # package from a bare checkout
    src = str(Path(levyfluct.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def bm(gamma=0.0, sigma2=1.0):
    return LevyModel(gamma=gamma, sigma2=sigma2, jumps=NoJumps())


def model_b():
    # gamma 2, sigma2 2, compound Poisson rate 1 with mean-1 exponential jumps
    return LevyModel(gamma=2.0, sigma2=2.0, jumps=ExpJumps(rate=1.0, jump_rate=1.0))


def stable_sn(alpha=1.5, scale=1.0):
    return LevyModel(gamma=0.0, sigma2=0.0, jumps=StableJumps(alpha=alpha, scale=scale))


def tempered_mixed():
    return LevyModel(
        gamma=0.0,
        sigma2=1.0,
        jumps=TemperedStableJumps(alpha=1.6, scale=0.8, tempering=1.5),
    )


@pytest.fixture(scope="session")
def engine_bm0():
    return make_engine(bm())


@pytest.fixture(scope="session")
def engine_bm_up():
    return make_engine(bm(gamma=1.0))


@pytest.fixture(scope="session")
def engine_bm_down():
    return make_engine(bm(gamma=-1.0))


@pytest.fixture(scope="session")
def engine_b():
    return make_engine(model_b())


@pytest.fixture(scope="session")
def engine_stable():
    return make_engine(stable_sn())


@pytest.fixture(scope="session")
def engine_tempered():
    return make_engine(tempered_mixed())
