"""The names that ``perfbench/tracer.py`` rebinds are defined in ``posdg``.

The benchmark's traced runs (``perfbench/run.py --trace 1``) time the
solver by rebinding its functions and methods from outside, so renaming
one of them breaks those runs without breaking any solver test. The
tracer resolves each name with ``getattr``, so a method that is gone can
still resolve to one inherited from ``object`` or ``type``, and a function
that a module no longer imports is simply added to it. Both leave a span
that never runs. The tracer is installed in a subprocess, because it
rebinds module and class attributes for the whole process, and the
subprocess reports every attribute the install added to a ``posdg``
module or class: a rebound name that was already defined on its owner
adds nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

INSTALL = """
import inspect, json, sys
sys.path.insert(0, sys.argv[1])
import posdg.cli
mods = {n: m for n, m in sys.modules.items() if n.startswith("posdg")}

def names():
    out = {}
    for n, m in mods.items():
        out[n] = set(vars(m))
        for a, v in vars(m).items():
            if inspect.isclass(v) and v.__module__ == n:
                out[n + "." + a] = set(vars(v))
    return out

before = names()
from tracer import Tracer, install
install(Tracer())
after = names()
print(json.dumps(sorted(k + "." + a for k in before
                        for a in after[k] - before[k])))
"""

# rebound by perfbench/tracer.py, but no longer defined where it rebinds
# them: rhs_high no longer looks up ec_fluxes, davis_wavespeed or
# interface_flux_low
STALE = {
    "posdg.rhs_high.ec_fluxes",
    "posdg.rhs_high.davis_wavespeed",
    "posdg.rhs_high.interface_flux_low",
}


@pytest.fixture(scope="module")
def added():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-c", INSTALL, str(REPO / "perfbench")], env=env,
        capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def test_perfbench_tracer_rebinds_no_new_stale_name(added):
    assert added <= STALE, sorted(added - STALE)


@pytest.mark.xfail(strict=True,
                   reason="perfbench/tracer.py still rebinds the STALE names")
def test_perfbench_tracer_rebinds_only_defined_names(added):
    assert not added, sorted(added)
