"""In-memory spans around calls into fermiwire's public functions.

The tracer lives in the benchmark, not in the program: install() rebinds
each traced function in every fermiwire module namespace that refers to
it, so calls between modules (gas_statistics -> specfun, cli -> thin_wire,
...) go through a wrapper that records a span (id, parent, name, label,
start, end).  A span's self time is its duration minus the time covered by
its child spans.  uninstall() restores the original bindings.
"""

import math
import resource
import sys
import time

KERNEL_BRANCHES = ("fd_series", "fd_quad", "be_series", "be_quad", "be_expansion")
# quantum_integral forms z = e^x only below this ln z (mirrors specfun).
_EXP_LIMIT = 709.0

# (span name, module, attribute) of every traced function.
TARGETS = (
    ("specfun.quantum_integral", "fermiwire.specfun", "quantum_integral"),
    ("specfun.quad_checked", "fermiwire.specfun", "quad_checked"),
    ("gas_statistics.solve_log_fugacity", "fermiwire.gas_statistics", "solve_log_fugacity"),
    ("gas_statistics.solve_fugacity", "fermiwire.gas_statistics", "solve_fugacity"),
    ("gas_statistics.occupation", "fermiwire.gas_statistics", "occupation"),
    ("thin_wire.classify_regime", "fermiwire.thin_wire", "classify_regime"),
    ("thin_wire.number_integral_quasi1d", "fermiwire.thin_wire", "number_integral_quasi1d"),
    ("box_oracle.enumerate_levels", "fermiwire.box_oracle", "enumerate_levels"),
    ("box_oracle.compare_continuum", "fermiwire.box_oracle", "compare_continuum"),
    ("box_oracle.direct_number_sum", "fermiwire.box_oracle", "direct_number_sum"),
    ("box_oracle.truncation_bound", "fermiwire.box_oracle", "truncation_bound"),
    ("cli.run_scan", "fermiwire.cli", "run_scan"),
    ("cli.run_verify", "fermiwire.cli", "run_verify"),
    ("cli.render", "fermiwire.cli", "_render_table"),
)


class Tracer:
    """Span recorder for one workload process, aggregated pass by pass."""

    def __init__(self):
        import fermiwire.specfun as specfun

        self._specfun = specfun
        self._stack = []  # open spans: [span_id, time covered by children]
        self._patched = []  # (module, attribute, original)
        # Counting wraps every integrand call in one more Python frame,
        # which would inflate quad_checked's self time; timed passes run
        # with it off and take the count from the warm-up pass.
        self.count_integrand_evals = False
        self._first_box_rss_kb = None
        self._before = {
            "specfun.quantum_integral": self._before_kernel,
            "specfun.quad_checked": self._before_quad,
            "gas_statistics.solve_log_fugacity": self._before_solve,
            "box_oracle.enumerate_levels": self._before_enumerate,
        }
        self._after = {
            "gas_statistics.solve_log_fugacity": self._after_solve,
            "box_oracle.enumerate_levels": self._after_enumerate,
        }
        self.begin_pass()

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "fermiwire" or n.startswith("fermiwire.")
        ]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, original):
        clock = time.perf_counter
        stack = self._stack
        before = self._before.get(name)
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            label = None
            if before is not None:
                label, args = before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self._aggregate(name, label, duration, duration - frame[1])
                self.spans.append((span_id, parent, name, label, start, end))
                if after is not None:
                    after(result)

        return wrapper

    def _aggregate(self, name, label, busy, self_time):
        for key in (name, "%s.%s" % (name, label)) if label else (name,):
            agg = self._agg.setdefault(key, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += busy
            agg[2] += self_time

    # -- hooks ----------------------------------------------------------

    def _before_kernel(self, args, kwargs):
        if self._solve_depth:
            self._kernel_calls_in_solve += 1
        return self._kernel_branch(args, kwargs), args

    def _kernel_branch(self, args, kwargs):
        """Branch quantum_integral takes, read from its arguments and the
        module's public thresholds."""
        specfun = self._specfun
        stat = args[0] if args else kwargs.get("stat")
        z = args[2] if len(args) > 2 else kwargs.get("z")
        try:
            if z is None:
                x = float(kwargs["log_z"])
                z = math.exp(x) if x < _EXP_LIMIT else None
            else:
                x = math.log(z)
        except (KeyError, TypeError, ValueError):
            return None  # invalid call; the kernel itself raises
        small = z is not None and z <= specfun.SERIES_FUGACITY_MAX
        if stat is specfun.Statistics.FERMI_DIRAC:
            return "fd_series" if small else "fd_quad"
        if stat is specfun.Statistics.BOSE_EINSTEIN:
            if small:
                return "be_series"
            return "be_expansion" if 0.0 < -x < specfun.BOSE_EXPANSION_ALPHA else "be_quad"
        return None

    def _before_quad(self, args, kwargs):
        if not self.count_integrand_evals:
            return None, args
        func = args[0]
        counters = self._counters

        def counted(u):
            counters["integrand_evals"] += 1
            return func(u)

        return None, (counted,) + tuple(args[1:])

    def _before_solve(self, args, kwargs):
        self._degeneracies.add(args[1] if len(args) > 1 else kwargs.get("degeneracy"))
        self._solve_depth += 1
        return None, args

    def _after_solve(self, result):
        self._solve_depth -= 1

    def _before_enumerate(self, args, kwargs):
        if self._first_box_rss_kb is None:
            self._first_box_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return None, args

    def _after_enumerate(self, spectrum):
        if spectrum is not None:
            self._counters["levels"] += spectrum.level_count
            self._counters["levels_bytes"] += (
                spectrum.levels.nbytes + spectrum.levels_transverse_ground.nbytes
            )

    # -- per-pass figures -------------------------------------------------

    def begin_pass(self):
        self.spans = []
        self._next_id = 0
        self._agg = {}
        self._counters = {"integrand_evals": 0, "levels": 0, "levels_bytes": 0}
        self._degeneracies = set()
        self._solve_depth = 0
        self._kernel_calls_in_solve = 0

    def box_rss_growth_mb(self):
        """Peak-RSS growth since the first enumerate_levels call, in MB."""
        if self._first_box_rss_kb is None:
            return 0.0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (peak - self._first_box_rss_kb) / 1024.0

    def pass_metrics(self):
        """calls, busy_s and self_s of every traced name, plus the counters."""
        metrics = {}
        names = [t[0] for t in TARGETS]
        names += ["specfun.quantum_integral.%s" % b for b in KERNEL_BRANCHES]
        for name in names:
            calls, busy, self_time = self._agg.get(name, (0, 0.0, 0.0))
            metrics[name + ".calls"] = calls
            metrics[name + ".busy_s"] = busy
            metrics[name + ".self_s"] = self_time
        solves = metrics["gas_statistics.solve_log_fugacity.calls"]
        metrics["gas_statistics.kernel_calls_per_solve"] = (
            self._kernel_calls_in_solve / solves if solves else 0.0
        )
        metrics["gas_statistics.unique_degeneracy_share"] = (
            len(self._degeneracies) / solves if solves else 0.0
        )
        metrics["specfun.quad_checked.integrand_evals"] = self._counters["integrand_evals"]
        metrics["box_oracle.levels"] = self._counters["levels"]
        metrics["box_oracle.levels_bytes_computed"] = self._counters["levels_bytes"]
        return metrics
