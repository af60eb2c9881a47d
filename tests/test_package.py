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
