"""Workload process for bench/run.py.

    python worker.py MODE SPEC_JSON SECONDS

MODE is one of
  setup  import fermiwire.cli, build the workload's inputs, report the
         CLOCK_MONOTONIC time at which that finished, exit;
  run    then one warm-up pass and timed passes for SECONDS;
  trace  then a traced warm-up pass that also counts integrand calls
         and peak-RSS growth, and for SECONDS untraced and traced
         passes in turn.
The last stdout line is a JSON report.  fermiwire must come from the
checkout's src/ directory, which run.py puts on PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _build(cli, spec):
    """One pass of the workload, and a reader of the output it produced."""
    if spec["workload"] == "verify":
        captured = []

        def one_pass():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.run_verify()
            captured[:] = [buffer]
            return code

        return one_pass, lambda: captured[0].getvalue().encode("utf-8")

    config = cli.ScanConfig(
        t_axis=cli.AxisSpec(*spec["T"]),
        nu_axis=cli.AxisSpec(*spec["nu"]),
        sigma_axis=cli.AxisSpec(*spec["sigma"]),
        statistics=cli.Statistics(spec["stat"]),
        out_path=spec["out"],
        out_format="csv",
    )
    return (lambda: cli.run_scan(config)), Path(spec["out"]).read_bytes


def _timed_pass(one_pass, read_output, result, tracer=None):
    """Run one pass, appending its time, exit code and output digest."""
    if tracer is not None:
        tracer.begin_pass()
    t0 = time.perf_counter()
    code = one_pass()
    result["times"].append(time.perf_counter() - t0)
    if tracer is not None:
        result["per_pass"].append(tracer.pass_metrics())
    result["codes"].append(code)
    result["digests"].append(hashlib.sha256(read_output()).hexdigest())


def _new_result():
    return {"times": [], "codes": [], "digests": [], "per_pass": []}


def main(argv):
    mode, spec, seconds = argv[1], json.loads(argv[2]), float(argv[3])
    import fermiwire.cli as cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit("fermiwire imported from %s, not from %s" % (cli.__file__, src))
    one_pass, read_output = _build(cli, spec)
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    # the time at which it started this interpreter.
    report = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.count_integrand_evals = True
        tracer.install()
    one_pass()  # warm-up: fills caches, pays lazy imports
    report["untraced"] = untraced = _new_result()
    start = time.perf_counter()
    if tracer is None:
        while not untraced["times"] or time.perf_counter() - start < seconds:
            _timed_pass(one_pass, read_output, untraced)
    else:
        tracer.uninstall()
        report["warmup"] = tracer.pass_metrics()
        report["rss_growth_mb"] = tracer.box_rss_growth_mb()
        tracer.count_integrand_evals = False
        # alternate, so that a drift in machine speed hits both alike
        report["traced"] = traced = _new_result()
        while not traced["times"] or time.perf_counter() - start < seconds:
            _timed_pass(one_pass, read_output, untraced)
            tracer.install()
            _timed_pass(one_pass, read_output, traced, tracer)
            tracer.uninstall()
        Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    output = read_output()
    report["output_bytes"] = len(output)
    Path(spec["out"]).write_bytes(output)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
