"""The public surface: every exported name resolves, numpy loads only
for the kind that needs it, and jsonschema only to word a refusal."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import entbridge
from entbridge import (
    FinAbGroup,
    GroupHom,
    InputError,
    IntMatrix,
    estimate_entropy,
    hnf,
    padic,
    two_chains,
)

MODULES = sorted(info.name for info in pkgutil.iter_modules(entbridge.__path__))


def test_package_exports_resolve():
    missing = [name for name in entbridge.__all__ if not hasattr(entbridge, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"entbridge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


NUMPY_ON_DEMAND = """
import sys
import entbridge, entbridge.cli
from entbridge.bridge import verify_instance
shift = {"kind": "shift", "modulus": 2, "height": 8, "level": 1, "steps": 3}
assert verify_instance(shift)["verdict"] == "pass"
assert "numpy" not in sys.modules, "numpy loaded by an exact kind"
assert verify_instance({"kind": "real", "matrix": [[2, 0], [0, 1]]})["verdict"] == "pass"
assert "numpy" in sys.modules, "numpy not loaded by the real kind"
"""


def test_numpy_is_imported_only_by_the_real_kind():
    # a fresh interpreter, since this one may already have loaded numpy
    env = {**os.environ, "PYTHONPATH": str(Path(entbridge.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ON_DEMAND], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


JSONSCHEMA_ON_REFUSAL = """
import contextlib, io, json, random, sys, tempfile
from pathlib import Path
import entbridge.cli as cli
from entbridge.bridge import random_instance
def verify(instance):
    path = Path(tempfile.mkdtemp()) / "instance.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", str(path)])
for kind in ("finite", "shift", "qp", "real"):
    assert verify(random_instance(random.Random(0), kind)) == 0, kind
for name in ("jsonschema", "referencing"):
    assert name not in sys.modules, f"{name} loaded by a passing verify"
assert verify({"kind": "torus"}) == 2
assert "jsonschema" in sys.modules, "jsonschema not loaded to word a refusal"
"""


def test_jsonschema_is_imported_only_to_word_a_refusal():
    env = {**os.environ, "PYTHONPATH": str(Path(entbridge.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", JSONSCHEMA_ON_REFUSAL], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_input_error_is_the_one_refusal_type():
    # defined once, in the lowest module, and a ValueError for callers that
    # catch refusals that way
    assert InputError is entbridge.exactlinalg.InputError
    assert issubclass(InputError, ValueError)
    for name in MODULES:
        module = importlib.import_module(f"entbridge.{name}")
        assert getattr(module, "InputError", InputError) is InputError, name


IDENTITY_2, IDENTITY_3 = (GroupHom.identity(FinAbGroup((d,))) for d in (2, 3))


def _sides_of_three_steps():
    m = padic.rational_matrix([["1/2"]])
    return padic.cotrajectory_pairs(2, m, 3), padic.trajectory_pairs(2, m, 3)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: hnf(IntMatrix.from_columns([[1, 2], [2, 4]], rows=2)), "lattice not full rank"),
        (lambda: two_chains(*_sides_of_three_steps(), 6), "end after 3 of 6 steps"),
        (lambda: IDENTITY_2.compose(IDENTITY_3), "homomorphisms do not compose"),
        (lambda: estimate_entropy([5]), "invalid index sequence"),
    ],
    ids=["hnf-rank-deficient", "two-chains-short", "compose", "estimate-one-index"],
)
def test_internal_checks_raise_plain_value_error(call, message):
    # these hold by construction on every verify route, so a failure is a
    # fault of the package: the command line exits 3 on it, not 2
    with pytest.raises(ValueError, match=message) as caught:
        call()
    assert not isinstance(caught.value, InputError)
