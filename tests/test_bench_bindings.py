"""The program names the benchmark binds: a change under src/ must keep them.

bench/tracer.py install() runs before the warm-up pass and rebinds every
(module, attribute) of its TARGETS, which it looks up in sys.modules; its
enumerate_levels hook reads attributes of the returned spectrum.
bench/worker.py builds its scan from names on fermiwire.cli.  None of these
are otherwise exercised in the test suite, so a rename would only show as
a failing `bench/run.py --trace 1`.  The test reads bench/ and changes nothing.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# a fresh interpreter in the state worker.py leaves: fermiwire.cli imported, nothing more
PROBE = """
import json, sys
import fermiwire.cli as cli
names = json.loads(sys.argv[1])
missing = [[m, a] for m, a in names["targets"]
           if m not in sys.modules or not hasattr(sys.modules[m], a)]
missing += [["BoxSpectrum", a] for a in names["spectrum"]
            if not hasattr(sys.modules["fermiwire.box_oracle"].BoxSpectrum, a)]
missing += [["cli", a] for a in names["cli"] if not hasattr(cli, a)]
missing += [["ScanConfig", a] for a in names["scan_config"] if a not in cli.ScanConfig._fields]
print(json.dumps(missing))
"""


def bench_names():
    """The names bench/tracer.py and bench/worker.py read from the program."""
    tracer = (BENCH / "tracer.py").read_text()
    worker = (BENCH / "worker.py").read_text()
    targets = next(
        ast.literal_eval(node.value) for node in ast.parse(tracer).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    config = worker[worker.index("cli.ScanConfig("):]
    config = config[:config.index("\n    )")]
    return {
        "targets": [[module, attr] for _, module, attr in targets],
        "spectrum": sorted(set(re.findall(r"\bspectrum\.(\w+)", tracer))),
        "cli": sorted(set(re.findall(r"\bcli\.(\w+)", worker))),
        "scan_config": re.findall(r"^\s+(\w+)=", config, re.M),
    }


def test_bench_names_are_found():
    # the extraction itself: a bench rewrite that hides these needs this test rewritten
    names = bench_names()
    assert len(names["targets"]) == 14
    assert names["spectrum"] == ["level_count", "levels", "levels_transverse_ground"]
    assert {"ScanConfig", "AxisSpec", "Statistics", "run_scan", "run_verify"} <= set(names["cli"])
    assert {"t_axis", "nu_axis", "sigma_axis", "statistics"} <= set(names["scan_config"])


def test_bench_bindings_exist():
    # -S keeps site, and whatever its .pth files import, out of the probe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, json.dumps(bench_names())],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
