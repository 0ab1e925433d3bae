"""Shared fixtures: generated pairs are expensive, so build once per session."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bertrand_kit
from bertrand_kit.bertrand import generated_pair
from bertrand_kit.curves import AnalyticCurve

SRC = Path(bertrand_kit.__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def pair_wobble():
    return generated_pair("wobble", n=512, grid=256)


@pytest.fixture(scope="session")
def pair_tilt():
    return generated_pair("tilt", n=512, grid=256)


@pytest.fixture(scope="session")
def pair_bean():
    return generated_pair("bean", n=512, grid=256)


@pytest.fixture(scope="session")
def pair_slant():
    return generated_pair("slant", n=512, grid=128)


@pytest.fixture(scope="session")
def three_pairs(pair_wobble, pair_tilt, pair_bean):
    return [pair_wobble, pair_tilt, pair_bean]


@pytest.fixture(scope="session")
def helix():
    # r=3, c=4: speed 5, kappa = 3/25 = 0.12, tau = 4/25 = 0.16
    return AnalyticCurve("3*cos(t)", "3*sin(t)", "4*t", (0.0, 6.0), label="helix")


@pytest.fixture(scope="session")
def fresh_python():
    """``fresh_python(args, **env)`` runs a new Python process that imports
    this checkout's package, with ``env`` added to the environment, and
    returns its CompletedProcess (stdout and stderr as bytes)."""

    def run(args, **env):
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, *args], capture_output=True,
                              env={**os.environ, "PYTHONPATH": path, **env})

    return run
