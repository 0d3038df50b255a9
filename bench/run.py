"""Benchmark of fermiwire's phase-map scan, Bose sweep and verify suite.

    python3 bench/run.py --workload {phase_map_fd,be_sweep,verify}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; fermiwire is imported from its src/.
The last stdout line is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).  See bench/README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"

WORKLOADS = ("phase_map_fd", "be_sweep", "verify")
SETUP_SAMPLES = 11  # fresh interpreters per run; setup_s is their median
IMPORTTIME_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, children included


def make_spec(workload, seed):
    """The workload's inputs; the seed draws the scan axes' end points."""
    rng = random.Random(seed)
    spec = {"workload": workload, "src": str(SRC)}
    if workload == "phase_map_fd":
        # 10 x 5 x 20 = 1000 rows, 50 distinct degeneracies from ~1e-3
        # (classical) to ~3e3 (ln z ~ 270, below the 709 ERROR limit).
        # Passes of ~1 s give a run enough of them for a steady median.
        spec.update(
            stat="fd",
            T=[rng.uniform(0.045, 0.050), rng.uniform(150.0, 165.0), 10, "log"],
            nu=[rng.uniform(0.48, 0.52), rng.uniform(7.6, 8.4), 5, "log"],
            sigma=[rng.uniform(0.9e-4, 1.1e-4), rng.uniform(90.0, 110.0), 20, "log"],
        )
    elif workload == "be_sweep":
        # 500 rows, each its own degeneracy: (2 pi/T)^(3/2) from ~0.006
        # (classical) to 2.586..2.601, just under zeta(3/2) = 2.6124.
        sigma = rng.uniform(1.5, 2.5)
        spec.update(
            stat="be",
            T=[rng.uniform(3.322, 3.335), rng.uniform(165.0, 185.0), 500, "log"],
            nu=[1.0, 1.0, 1, "linear"],
            sigma=[sigma, sigma, 1, "linear"],
        )
    suffix = "txt" if workload == "verify" else "csv"
    spec["out"] = str(RESULTS / "work" / ("%s.%s" % (workload, suffix)))
    spec["spans"] = str(RESULTS / ("spans-%s.json" % workload))
    return spec


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0.0:
            raise TimeoutError("benchmark ran past its deadline")
        return left


def child_env():
    env = dict(os.environ)
    env.pop("FERMIWIRE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one process on one thread: no BLAS worker pool
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv, deadline):
    proc = subprocess.run(
        argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=deadline.left(),
    )
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (argv[:3], proc.returncode, proc.stderr))
    return proc


def worker(mode, spec, seconds, deadline):
    argv = [sys.executable, str(WORKER), mode, json.dumps(spec), repr(seconds)]
    return json.loads(run_child(argv, deadline).stdout.splitlines()[-1])


def setup_times(spec, deadline):
    """Seconds from starting a fresh interpreter until fermiwire.cli is
    imported and the inputs are built; the first, untimed start writes
    the bytecode caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = worker("setup", spec, 0.0, deadline)["ready"]
        if i:
            samples.append(ready - start)
    return samples


def import_times(deadline):
    """setup.* per-library import seconds from python -X importtime."""
    samples = {"numpy": [], "scipy": [], "fermiwire": []}
    for _ in range(IMPORTTIME_SAMPLES):
        argv = [sys.executable, "-X", "importtime", "-c", "import fermiwire.cli"]
        for lib, seconds in split_importtime(run_child(argv, deadline).stderr).items():
            samples[lib].append(seconds)
    return {
        "setup.import_%s_s" % lib: statistics.median(values)
        for lib, values in samples.items()
    }


def split_importtime(log):
    """Import seconds of numpy, scipy and fermiwire, each without the
    other two: a library's outermost entries, less the outermost entries
    of the other libraries nested in them."""
    entries = []  # (depth, package, cumulative seconds), children first
    for line in log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip().split(".")[0], int(cumulative) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "fermiwire": 0.0}
    enclosing = []  # (depth, package) of the entries around the current one
    for depth, package, seconds in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        outer = next((p for _, p in reversed(enclosing) if p in totals), None)
        if package in totals and package != outer:
            totals[package] += seconds
            if outer is not None:
                totals[outer] -= seconds
        enclosing.append((depth, package))
    return totals


def check_output(spec, codes):
    """(rows per pass, failed rows per pass, problems) of the last output."""
    import checks

    text = Path(spec["out"]).read_text(encoding="utf-8")
    if spec["workload"] == "verify":
        return checks.check_verify(text, codes)
    return checks.check_scan(spec, text, codes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fermiwire" / "cli.py").is_file():
        print("no fermiwire sources under %s" % SRC, file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = Deadline(DEADLINE_S)
    (RESULTS / "work").mkdir(parents=True, exist_ok=True)
    spec = make_spec(args.workload, args.seed)
    sys.path.insert(0, str(HERE))

    values = {}
    if args.trace:
        report = worker("trace", spec, args.seconds, deadline)
        traced, untraced = report["traced"], report["untraced"]
        for name in traced["per_pass"][0]:
            values[name] = statistics.median(p[name] for p in traced["per_pass"])
        values["specfun.quad_checked.integrand_evals"] = report["warmup"][
            "specfun.quad_checked.integrand_evals"
        ]
        values["trace.overhead_s"] = (
            statistics.median(traced["times"]) - statistics.median(untraced["times"])
        )
        values["box_oracle.rss_growth_mb"] = report["rss_growth_mb"]
        values["cli.output_bytes"] = report["output_bytes"]
        values.update(import_times(deadline))
        runs = [untraced, traced]
        wanted = contract["per_layer"]
    else:
        setup = setup_times(spec, deadline)
        report = worker("run", spec, args.seconds, deadline)
        runs = [report["untraced"]]
        values["setup_s"] = statistics.median(setup)
        values["run_s"] = statistics.median(runs[0]["times"])
        values["peak_rss_mb"] = report["maxrss_mb"]
        report["setup_samples"] = setup
        wanted = contract["end_to_end"]

    codes = [c for r in runs for c in r["codes"]]
    rows, failed, problems = check_output(spec, codes)
    digests = {d for r in runs for d in r["digests"]}
    if len(digests) != 1:
        problems.append("passes wrote %d different outputs" % len(digests))
    if not args.trace:
        values["work_per_s"] = rows / values["run_s"]
    passes = sum(len(r["times"]) for r in runs)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError("no value for %s" % missing)
    result = {
        "correct": not problems and rows > 0,
        "attempted": rows * passes,
        "failed": failed * passes,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    report.update(spec=spec, problems=problems, result=result)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (RESULTS / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    for problem in problems[:20]:
        print("problem: %s" % problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
