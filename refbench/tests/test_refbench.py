"""The benchmark's own tests, at reduced workload size.

    python3 -m pytest refbench/tests -q
"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys

import pytest

import calibration
import layers
import run
import workloads

NAMES = sorted(workloads.WORKLOADS)


def reduced(name):
    return workloads.WORKLOADS[name].reduced()


def reduced_bench(workload, seed):
    """A bench on reduced inputs: the recorded digests are for the full
    size, so the warm-up repetition fixes the digest instead."""
    bench = run.Bench(workloads, workload, seed)
    bench.expected = None
    return bench


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_passes_its_checks(name):
    workload = reduced(name)
    with workloads.observe_memory() as memories:
        result = workload.repetition(3)
    observed = sum(memory.stats.accesses for memory in memories)
    digest = workload.verify(result, None, observed)
    assert workload.verify(workload.repetition(3), digest) == digest


def test_observe_memory_restores_the_constructor():
    original = workloads.VirtualMemory.__init__
    with workloads.observe_memory():
        assert workloads.VirtualMemory.__init__ is not original
    assert workloads.VirtualMemory.__init__ is original


def test_invariant_violation_is_reported():
    workload = reduced("kv-fastswap")
    with workloads.observe_memory() as memories:
        result = workload.repetition(3)
    observed = sum(memory.stats.accesses for memory in memories)
    with pytest.raises(workloads.CheckFailed, match="accesses observed"):
        workload.verify(result, None, observed + 1)


def test_perturbed_payload_fails_the_digest_and_counts_as_failed():
    workload = reduced("kv-fastswap")
    digest = workload.digest(workload.repetition(3))

    def perturbed(seed, **params):
        result = workload.call(seed, **params)
        result.mean_throughput += 1.0
        return result

    bench = reduced_bench(dataclasses.replace(workload, call=perturbed), 3)
    bench.expected = digest
    _times, rates = bench.timed(0.0, minimum=2)
    assert rates == []
    assert bench.outcome.attempted == 2
    assert bench.outcome.failed == 2
    assert "payload digest" in bench.outcome.reasons[0]


def test_recorded_digests_cover_default_and_held_out_seeds():
    document = workloads.load_digests()
    assert document["default_seed"] != document["held_out_seed"]
    for name in NAMES:
        recorded = document["workloads"][name]
        assert str(document["default_seed"]) in recorded
        assert str(document["held_out_seed"]) in recorded


def test_reference_second_arithmetic():
    ref = calibration.REFERENCE_SLICE_S
    assert calibration.to_reference_seconds(3.0, ref) == pytest.approx(3.0)
    # A machine twice as slow takes twice as long for the same work.
    assert calibration.to_reference_seconds(6.0, 2 * ref) == pytest.approx(3.0)
    assert calibration.to_reference_seconds(1.0, 0.5 * ref) == pytest.approx(2.0)
    assert calibration.slice_estimate([1.0, 2.0], 3.0, 6.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        calibration.to_reference_seconds(1.0, 0.0)


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert calibration.relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert calibration.relative_spread([5.0]) == 0.0


def test_calibration_sampling_restores_the_signal_handler():
    import signal

    calibrator = calibration.Calibrator()
    previous = signal.getsignal(signal.SIGALRM)
    with calibrator.sampling() as samples:
        calibration.Calibrator().loop()
        calibration.Calibrator().loop()
    assert samples and all(sample > 0 for sample in samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", ["kv-fastswap", "serve-open"])
def test_traced_block_leaves_no_wrapper_and_digests_match(name):
    workload = reduced(name)
    digest = workload.digest(workload.repetition(4))
    trace = layers.LayerTrace()
    with trace:
        traced = workload.repetition(4)
        assert trace.calls["Environment.step"] > 0
    assert trace.leftovers() == []
    assert workload.digest(traced) == digest
    assert workload.digest(workload.repetition(4)) == digest


def test_aliases_are_wrapped_and_restored():
    from repro.serve import driver
    from repro.sim import flatpath

    original = flatpath.inline_jump
    with layers.LayerTrace():
        assert driver.inline_jump is flatpath.inline_jump
        assert flatpath.inline_jump is not original
    assert driver.inline_jump is original
    assert flatpath.inline_jump is original


@pytest.mark.parametrize("name", NAMES)
def test_traced_closure_holds(name):
    workload = reduced(name)
    bench = reduced_bench(workload, 5)
    bench.warm_up()
    times, _rates = bench.timed(0.0, minimum=1)
    metrics, lines = bench.traced(0.0, times)
    assert bench.outcome.failed == 0, bench.outcome.reasons
    assert set(metrics) == {metric["name"] for metric in _benchmark()["per_layer"]}
    assert 0.0 <= metrics["bench.unattributed_share"][0] < 1.0
    assert any(line.startswith("closure:") for line in lines)


def test_broken_closure_is_detected():
    trace = layers.LayerTrace()
    with trace:
        trace._enter("left open")
    assert trace.closure_problems(1.0) == ["1 timing frames left open"]
    trace = layers.LayerTrace()
    with trace:
        pass
    assert trace.closure_problems(1.0) == []
    trace.covered_s = 1.5
    assert trace.closure_problems(1.0) == [
        "wrapped calls cover 1.500000 s of a 1.000000 s run"]


def _benchmark():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_every_workload_and_metric():
    document = _benchmark()
    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == NAMES
    assert {m["name"] for m in document["end_to_end"]} == {
        "accesses_per_ref_s", "setup_s", "peak_rss_mib"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "refbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "refbench/run.py", "--workload", "kv-fastswap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="known defect: erasure re-striping double-reserves a "
                          "fragment when a fault schedule is squeezed into 0.1 s")
def test_short_horizon_erasure_restripe_defect():
    spec = workloads.KV_WORKLOADS["voltdb"].with_overrides(keys=512)
    workloads.run_kv_workload(
        "ec-remote", spec, 0.5, duration=0.1, seed=1,
        cluster_config=workloads.default_cluster_config(
            seed=1, num_nodes=workloads.EC_NUM_NODES),
        cold_start=True, fault_schedule=workloads.build_schedule(1, 2.0, 0.1),
    )


def test_retry_attempts_are_counted_positional_or_keyword():
    from repro.net import retry
    from repro.net.errors import LinkDown
    from repro.sim.engine import Environment

    env = Environment()
    failures = [LinkDown("node0", "node1")]

    def attempt():
        yield env.timeout(1e-6)
        if failures:
            raise failures.pop()
        return 1

    def client():
        first = yield from retry.retrying(env, retry.RetryPolicy(), attempt)
        second = yield from retry.retrying(env, retry.RetryPolicy(), attempt=attempt)
        return first + second

    with layers.LayerTrace() as trace:
        process = env.process(client())
        env.run()
    assert process.value == 2
    assert trace.calls["repro.net.retry.retrying"] == 2
    # Three attempts over two calls: exactly one retry.
    assert trace.counts["net.attempts"] == 3
