"""Run one benchmark workload and print its metrics.

    python3 refbench/run.py --workload kv-fastswap --seed 1 --seconds 20 --trace 0

Run from the root of the repository (any directory works; paths are
resolved from this file).  ``--trace 0`` prints the end-to-end metrics:
simulated page accesses per reference second, set-up time and peak
resident memory.  ``--trace 1`` prints the per-layer metrics of a traced
run instead, with the tracing overhead and the closure of the layer
self times.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every repetition is checked (digest and invariants, see workloads.py).
The command exits 1 when any repetition fails, and 2 without printing
a result when the program under test cannot be imported.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402

WORKLOAD_NAMES = ("kv-fastswap", "ml-paging", "kv-ec-chaos", "serve-open")

#: Set-up probes per run (after one untimed probe that also warms the
#: bytecode cache).
SETUP_PROBES = 7
#: Timed repetitions per run, at least, however short ``--seconds`` is.
MIN_REPETITIONS = 3
#: Seconds a probe may take before it counts as failed.
PROBE_TIMEOUT_S = 60


def _fail_setup(message):
    print("refbench: " + message, file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import the workloads (and with them :mod:`repro`) from ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail_setup("no program under test at {}".format(SRC))
    sys.path.insert(0, str(SRC))
    try:
        import repro
        import workloads
    except ImportError as error:
        _fail_setup("cannot import the program under test: {}".format(error))
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail_setup("imported repro from {}, not {}".format(repro.__file__, SRC))
    return workloads


class Outcome:
    """Attempted and failed counts, with every failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def attempt(self, action):
        """Run ``action()``; return its value, or ``None`` if it failed."""
        self.attempted += 1
        try:
            return action()
        except Exception as error:  # every failure is counted and reported
            self.failed += 1
            self.reasons.append("{}: {}".format(type(error).__name__, error))
            return None


class Bench:
    """One workload at one seed: repetitions, checks and timing."""

    def __init__(self, workloads, workload, seed):
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.expected = workloads.recorded_digest(
            workloads.load_digests(), workload.name, seed
        )
        self.outcome = Outcome()
        self.calibrator = calibration.Calibrator()
        #: Every full calibration loop's seconds per slice.
        self.loops = []

    def loop(self):
        seconds = self.calibrator.loop()
        self.loops.append(seconds)
        return seconds

    def warm_up(self):
        """One untimed repetition, checked against the simulator's own
        access counters; fixes the digest for an unrecorded seed."""

        def run():
            with self.workloads.observe_memory() as memories:
                result = self.workload.repetition(self.seed)
            observed = sum(memory.stats.accesses for memory in memories)
            return self.workload.verify(result, self.expected, observed)

        digest = self.outcome.attempt(run)
        if self.expected is None:
            self.expected = digest

    def timed(self, seconds, minimum=MIN_REPETITIONS):
        """Untraced repetitions for ``seconds``; returns their reference
        seconds and accesses per reference second."""
        times, rates = [], []
        before = self.loop()
        deadline = time.perf_counter() + seconds
        for count in itertools.count():
            if count >= minimum and time.perf_counter() >= deadline:
                break
            measured = self.outcome.attempt(lambda: self._timed_once(before))
            before = self.loops[-1]
            if measured is not None:
                times.append(measured[0])
                rates.append(measured[1])
        return times, rates

    def _timed_once(self, before):
        gc.collect()
        result = None
        try:
            with self.calibrator.sampling() as samples:
                began = time.perf_counter()
                result = self.workload.repetition(self.seed)
                elapsed = time.perf_counter() - began
        finally:
            after = self.loop()
        slice_s = calibration.slice_estimate(samples, before, after)
        ref_s = calibration.to_reference_seconds(elapsed - sum(samples), slice_s)
        self.workload.verify(result, self.expected)
        return ref_s, self.workload.accesses(result) / ref_s

    def setup_probes(self):
        """Median set-up time in reference seconds over fresh interpreters."""
        env = dict(os.environ, PYTHONHASHSEED="0")
        command = [sys.executable, str(HERE / "probe.py"),
                   self.workload.name, str(self.seed)]

        def probe():
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S, check=True)
            return json.loads(done.stdout.strip().splitlines()[-1])["setup_ref_s"]

        self.outcome.attempt(probe)
        probes = [self.outcome.attempt(probe) for _ in range(SETUP_PROBES)]
        probes = [value for value in probes if value is not None]
        return statistics.median(probes) if probes else None

    def traced(self, seconds, untraced_times):
        """Traced repetitions for ``seconds`` (at least one); returns the
        per-layer metrics."""
        import layers

        reps = []
        deadline = time.perf_counter() + seconds
        while not reps or time.perf_counter() < deadline:
            rep = self.outcome.attempt(lambda: self._traced_once(layers))
            if rep is None:
                break
            reps.append(rep)
        if not reps:
            return None
        return layer_metrics(layers, reps, untraced_times, self.loops)

    def _traced_once(self, layers):
        before = self.loop()
        gc.collect()
        trace = layers.LayerTrace()
        with trace, self.workloads.observe_memory() as memories:
            began = time.perf_counter()
            result = self.workload.repetition(self.seed)
            elapsed = time.perf_counter() - began
        slice_s = calibration.slice_estimate((), before, self.loop())
        leftovers = trace.leftovers()
        if leftovers:
            raise RuntimeError("wrappers left installed: " + ", ".join(leftovers))
        problems = trace.closure_problems(elapsed)
        if problems:
            raise RuntimeError("closure broken: " + "; ".join(problems))
        observed = sum(memory.stats.accesses for memory in memories)
        self.workload.verify(result, self.expected, observed)
        return TracedRep(trace, result, memories, elapsed, slice_s)


class TracedRep:
    def __init__(self, trace, result, memories, elapsed_s, slice_s):
        self.trace = trace
        self.result = result
        self.memories = memories
        self.elapsed_s = elapsed_s
        self.slice_s = slice_s

    def ref(self, seconds):
        return calibration.to_reference_seconds(seconds, self.slice_s)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _first_tier_share(result):
    ops = [row.get("puts", 0) + row.get("gets", 0) for row in result.tier_stats]
    return _ratio(ops[0], sum(ops)) if ops else 0.0


SHARE, COUNT = "share", "count"


def layer_metrics(layers, reps, untraced_times, loops):
    """Per-layer metrics of the traced repetitions ``reps``."""
    total_s = sum(rep.elapsed_s for rep in reps)
    layer_s = dict.fromkeys(layers.LAYERS, 0.0)
    ref_layer_s = dict.fromkeys(layers.LAYERS, 0.0)
    ref_label_s = {}
    calls, counts = {}, {}
    covered_s = 0.0
    for rep in reps:
        for layer, seconds in rep.trace.layer_self_s().items():
            layer_s[layer] += seconds
            ref_layer_s[layer] += rep.ref(seconds)
        for label, seconds in rep.trace.self_s.items():
            ref_label_s[label] = ref_label_s.get(label, 0.0) + rep.ref(seconds)
        for label, value in rep.trace.calls.items():
            calls[label] = calls.get(label, 0) + value
        for label, value in rep.trace.counts.items():
            counts[label] = counts.get(label, 0) + value
        covered_s += rep.trace.covered_s
    memories = [memory for rep in reps for memory in rep.memories]
    accesses = sum(memory.stats.accesses for memory in memories)
    steps = calls.get("Environment.step", 0)
    untraced_ref_s = statistics.median(untraced_times)
    traced_ref_s = statistics.fmean(rep.ref(rep.elapsed_s) for rep in reps)
    tier_ops = sum(calls.get("TierCascade." + name, 0)
                   for name in ("swap_out", "swap_in", "place", "demote"))
    ec_bytes = counts.get("ec.encode_bytes", 0) + counts.get("ec.reconstruct_bytes", 0)
    attempts = counts.get("net.attempts", 0)
    results = [rep.result for rep in reps]
    offered = sum(getattr(result, "offered", 0) for result in results)
    shed = sum(getattr(result, "shed", 0) for result in results)
    named_s = sum(seconds for layer, seconds in layer_s.items() if layer != "other")
    unattributed_s = total_s - named_s

    def share(layer):
        return _ratio(layer_s[layer], total_s)

    metrics = {
        "sim.self_share": (share("sim"), SHARE),
        "sim.events_per_access": (_ratio(steps, accesses), "1/access"),
        "sim.timeouts_per_access": (
            _ratio(calls.get("Environment.timeout", 0), accesses), "1/access"),
        "sim.us_per_event": (
            _ratio(untraced_ref_s * 1e6, steps / len(reps)), "ref_us"),
        "flatpath.self_share": (share("flatpath"), SHARE),
        "flatpath.bulk_share": (
            _ratio(sum(m.flat_stats.bulk_accesses for m in memories), accesses), SHARE),
        "flatpath.boundaries_per_kaccess": (
            _ratio(1000 * sum(sum(m.flat_stats.boundaries.values()) for m in memories),
                   accesses), "1/kaccess"),
        "swap.self_share": (share("swap"), SHARE),
        "swap.flush_calls_per_access": (
            _ratio(calls.get("VirtualMemory.flush", 0), accesses), "1/access"),
        "swap.major_faults_per_kaccess": (
            _ratio(1000 * sum(m.stats.major_faults for m in memories), accesses),
            "1/kaccess"),
        "swap.evictions_per_kaccess": (
            _ratio(1000 * sum(m.stats.swap_outs for m in memories), accesses),
            "1/kaccess"),
        "tiers.self_share": (share("tiers"), SHARE),
        "tiers.ops_per_ref_s": (_ratio(tier_ops, ref_layer_s["tiers"]), "1/ref_s"),
        "tiers.first_tier_share": (
            statistics.fmean(_first_tier_share(result) for result in results), SHARE),
        "ec.self_share": (share("ec"), SHARE),
        "ec.mb_per_ref_s": (_ratio(ec_bytes / 1e6, ref_layer_s["ec"]), "MB/ref_s"),
        "ec.reconstruct_share": (
            _ratio(counts.get("ec.reconstruct_bytes", 0), ec_bytes), SHARE),
        "net.self_share": (share("net"), SHARE),
        "net.transfers_per_access": (
            _ratio(calls.get("Fabric.transfer", 0) + calls.get("Fabric.fanout", 0),
                   accesses), "1/access"),
        "net.retry_share": (
            _ratio(attempts - calls.get("repro.net.retry.retrying", 0), attempts),
            SHARE),
        "mem.self_share": (share("mem"), SHARE),
        "mem.refusal_share": (
            _ratio(counts.get("mem.refusals", 0), counts.get("mem.reserves", 0)), SHARE),
        "faults.injected": (counts.get("faults.injected", 0) / len(reps), COUNT),
        "workloads.self_share": (share("workloads"), SHARE),
        "serve.self_share": (share("serve"), SHARE),
        "serve.arrivals_requests_per_ref_s": (
            _ratio(counts.get("serve.arrival_requests", 0),
                   ref_label_s.get("repro.serve.arrivals.aggregate", 0.0)), "1/ref_s"),
        "serve.accounting_requests_per_ref_s": (
            _ratio(calls.get("ClassAccount.record_completion", 0),
                   ref_label_s.get("ClassAccount.record_completion", 0.0)), "1/ref_s"),
        "serve.shed_share": (_ratio(shed, offered), SHARE),
        "trace.histogram_self_share": (share("histogram"), SHARE),
        "runner.self_share": (share("runner"), SHARE),
        "bench.trace_overhead": (_ratio(traced_ref_s, untraced_ref_s), "x"),
        "bench.unattributed_share": (_ratio(unattributed_s, total_s), SHARE),
        "bench.calib_spread": (calibration.relative_spread(loops), SHARE),
    }
    # An accounting line: unattributed time is the traced run's time
    # less the named layers' self time.  The checks that can fail are
    # made per repetition (LayerTrace.closure_problems).
    closure = (
        "closure: layer self {:.6f} s + unattributed {:.6f} s "
        "(outside wrapped calls {:.6f} s, other process bodies {:.6f} s) "
        "= traced run {:.6f} s".format(
            named_s, unattributed_s, total_s - covered_s, layer_s["other"], total_s)
    )
    overhead = "tracing overhead: traced {:.4f} ref s / untraced {:.4f} ref s = {:.2f}x".format(
        traced_ref_s, untraced_ref_s, metrics["bench.trace_overhead"][0])
    return metrics, [overhead, closure]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_program()
    bench = Bench(workloads, workloads.WORKLOADS[args.workload], args.seed)
    metrics = {}
    lines = []
    if args.trace:
        bench.warm_up()
        untraced_times, _rates = bench.timed(args.seconds / 3, minimum=2)
        layered = bench.traced(args.seconds * 2 / 3, untraced_times) if untraced_times else None
        if layered is not None:
            values, lines = layered
            metrics = {name: _metric(value, unit) for name, (value, unit) in values.items()}
    else:
        setup_s = bench.setup_probes()
        bench.warm_up()
        _times, rates = bench.timed(args.seconds)
        if rates and setup_s is not None:
            metrics = {
                "accesses_per_ref_s": _metric(statistics.median(rates), "accesses/ref_s"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mib": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            lines = ["{} seed {}: {} timed repetitions, rate spread {:.4f}".format(
                args.workload, args.seed, len(rates), calibration.relative_spread(rates))]
        lines.append("calibration spread (bench.calib_spread): {:.4f}".format(
            calibration.relative_spread(bench.loops)))
    outcome = bench.outcome
    for line in lines:
        print(line)
    for reason in outcome.reasons:
        print("failed: " + reason)
    correct = outcome.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
