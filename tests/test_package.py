"""The package loads its layers on first use: ``import chordal`` and each
``chordal`` subcommand load only what they run."""

import importlib
import json
import pickle
import subprocess
import sys

import pytest

import chordal

LAYERS = ("measures", "numerics", "loewner", "grunsky", "capacity")


def _python(code, *args, stdin=None):
    proc = subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_import_loads_no_numpy_and_no_layer():
    loaded = json.loads(_python("import json, sys, chordal; print(json.dumps(sorted(sys.modules)))"))
    assert "numpy" not in loaded
    assert not {f"chordal.{layer}" for layer in LAYERS} & set(loaded)
    assert {"chordal", "chordal.errors"} <= set(loaded)


# runs `chordal <argv>` as `python -m chordal.cli` does, then prints the
# chordal modules the run loaded, and numpy.ma if it loaded that too (its
# import costs about 9 ms); the cli itself runs as __main__
_RUN_CLI = """
import json, runpy, sys
sys.argv = ["chordal", *json.loads(sys.argv[1])]
try:
    runpy.run_module("chordal.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "chordal" or m == "numpy.ma")))
"""

_SEMI = {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle"}]}
_DRIVER = {"horizon": 2.0, "driver": {"type": "piecewise_constant", "breaks": [0.0],
                                      "measures": [{"atoms": [[0.0, 1.0]]}]}}
_BASE = ["chordal", "chordal.errors", "chordal.measures", "chordal.numerics"]


@pytest.mark.parametrize("argv, extra", [
    (["transform", "--measure", "{semi}", "--z", "1i"], []),
    (["transform", "--measure", "{semi}", "--op", "nevanlinna"], []),
    (["invert", "--measure", "{semi}", "--interval", "-2,2",
      "--eps-ladder", ",".join(str(0.4 / 2**k) for k in range(8))], []),
    (["evolve", "--driver", "{driver}", "--t", "1", "--z", "1i"], ["chordal.loewner"]),
    (["grunsky", "--moments", "1,0,1,0,2,0,5,0,14", "--order", "4"], ["chordal.grunsky"]),
    (["grunsky", "--measure", "{semi}", "--order", "4"], ["chordal.grunsky"]),
    (["hayman", "--measure", "{semi}", "--n", "8", "--resolution", "64"],
     ["chordal.capacity"]),
], ids=["transform", "nevanlinna", "invert", "evolve", "grunsky-moments", "grunsky-measure",
        "hayman"])
def test_each_subcommand_loads_only_its_layer(tmp_path, argv, extra):
    paths = {"semi": tmp_path / "semi.json", "driver": tmp_path / "driver.json"}
    paths["semi"].write_text(json.dumps(_SEMI))
    paths["driver"].write_text(json.dumps(_DRIVER))
    argv = [a.format(**paths) for a in argv]
    loaded = json.loads(_python(_RUN_CLI, json.dumps(argv)).splitlines()[-1])
    assert loaded == sorted(_BASE + extra)


def test_every_public_name_resolves_to_its_layer():
    for name in chordal.__all__:
        value = getattr(chordal, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__ in {"chordal.errors", *(f"chordal.{layer}" for layer in LAYERS)}
        assert getattr(home, name) is value
        assert vars(chordal)[name] is value  # cached after first use


def test_star_import_dir_and_layers():
    namespace = {}
    exec("from chordal import *", namespace)
    assert set(chordal.__all__) <= set(namespace)
    assert set(chordal.__all__) <= set(dir(chordal))
    for layer in LAYERS:
        assert getattr(chordal, layer) is importlib.import_module(f"chordal.{layer}")
    assert chordal.loewner.DriverFamily is chordal.DriverFamily


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chordal.no_such_name
    assert not hasattr(chordal, "no_such_name")


@pytest.mark.parametrize("name, args", [("point_mass", (0.25,)), ("bernoulli", (0.5,))])
def test_measure_pickled_in_one_interpreter_unpickles_in_a_fresh_one(name, args):
    # a lone atom and a node sum; the fresh interpreter imports nothing
    # before pickle.loads
    blob = _python(f"import pickle, sys, chordal; "
                   f"sys.stdout.buffer.write(pickle.dumps(chordal.{name}(*{args!r})))")
    value = _python("import pickle, sys; mu = pickle.loads(sys.stdin.buffer.read()); "
                    "print(repr(complex(mu.cauchy(1j))))", stdin=blob)
    mu = getattr(chordal, name)(*args)
    assert complex(value.decode()) == complex(mu.cauchy(1j))
    assert pickle.loads(blob).atoms == mu.atoms
