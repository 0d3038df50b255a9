"""The benchmark's tracer hooks run against the program.

test_bench_bindings checks that the names bench/tracer.py binds exist; this
installs the tracer in a fresh interpreter and checks that its quad_checked
and enumerate_levels hooks still count what they were written to count.
The test reads bench/ and changes nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import fermiwire.cli  # install() binds in the state bench/worker.py leaves
import fermiwire.box_oracle as box_oracle
import fermiwire.thin_wire as thin_wire
from fermiwire import Statistics, ThermalState, WireGeometry

t = tracer.Tracer()
t.count_integrand_evals = True
t.install()
try:
    thin_wire.number_integral_quasi1d(Statistics.FERMI_DIRAC,
                                      ThermalState(log_z=0.0, lam=1.0, degeneracy=1.0),
                                      WireGeometry(1.0))
    box_oracle.compare_continuum(box_oracle.enumerate_levels(3.0, 3.0, 1.0, cutoff=2),
                                 Statistics.FERMI_DIRAC, 0.5, 1.0)
finally:
    t.uninstall()
print(json.dumps(t.pass_metrics()))
"""


def test_tracer_hooks_count_against_the_program():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "bench")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["specfun.quad_checked.calls"] == 1
    assert metrics["specfun.quad_checked.integrand_evals"] >= 1
    assert metrics["box_oracle.levels"] == 125
    # 125 levels and the 5 with no transverse excitation, 8 bytes each
    assert metrics["box_oracle.levels_bytes_computed"] == 1040
