"""The benchmark's workloads: entry point, seeded inputs and checks.

Each workload calls one public entry point of :mod:`repro` with inputs
made from the benchmark seed; one *repetition* is one such call.

The simulator is deterministic, so the simulated statistics are checks,
not metrics: every repetition's canonical-JSON payload must hash to the
digest recorded in ``digests.json`` for its seed (or, for a seed with
no recorded digest, to the digest of the run's first repetition), and
must pass its workload's invariants.
"""

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from repro.experiments.resilience_recovery import EC_NUM_NODES, build_schedule
from repro.experiments.runner import (
    default_cluster_config,
    run_kv_workload,
    run_paging_workload,
)
from repro.serve import run_serving_workload
from repro.serve.admission import QueueDepthShed
from repro.serve.qos import default_mix
from repro.swap.base import VirtualMemory
from repro.swap.fastswap import FastSwapConfig
from repro.workloads.kv import KV_WORKLOADS
from repro.workloads.ml import ML_WORKLOADS

DIGESTS_PATH = Path(__file__).resolve().with_name("digests.json")


class CheckFailed(Exception):
    """A repetition's output failed its digest or an invariant."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- the four entry-point calls ------------------------------------------------


def _kv_fastswap(seed, keys, duration):
    """fig8's FastSwap memcached cell at the FS-9:1 distribution ratio."""
    spec = KV_WORKLOADS["memcached"].with_overrides(keys=keys)
    return run_kv_workload(
        "fastswap", spec, 0.5, duration=duration, seed=seed,
        fastswap_config=FastSwapConfig(sm_fraction=0.9),
    )


def _ml_paging(seed, pages, iterations):
    """k-means paged through FastSwap at the 50% configuration."""
    spec = ML_WORKLOADS["kmeans"].with_overrides(pages=pages, iterations=iterations)
    return run_paging_workload("fastswap", spec, 0.5, seed=seed)


#: Seed of ``kv-ec-chaos``'s fault schedule: the first seed whose
#: rate-2 schedule over 0.5 s holds every fault kind (crash, server
#: loss, link flap, degradation, partition).  The schedule is the same
#: for every benchmark seed, which varies the KV traffic: seed-drawn
#: schedules hold 1 to 7 faults, and the host cost per access then
#: varied more with the seed (~10%) than the bounds allow.
FAULT_SCHEDULE_SEED = 71


def _kv_ec_chaos(seed, keys, duration):
    """resilience_recovery's erasure cell with the voltdb mix."""
    spec = KV_WORKLOADS["voltdb"].with_overrides(keys=keys)
    schedule = build_schedule(FAULT_SCHEDULE_SEED, 2.0, duration)
    result = run_kv_workload(
        "ec-remote", spec, 0.5, duration=duration, seed=seed,
        cluster_config=default_cluster_config(seed=seed, num_nodes=EC_NUM_NODES),
        cold_start=True, fault_schedule=schedule, record_op_latency=True,
    )
    result.schedule = schedule
    return result


def _serve_open(seed, tenants_per_class, duration, cycle):
    """Bursty three-class serving with queue-depth admission."""
    workload = KV_WORKLOADS["memcached"].with_overrides(keys=4096, zipf_alpha=0.75)
    mix = default_mix(
        tenants_per_class=tenants_per_class, arrival_kind="bursty",
        workload=workload, per_tenant_rate=0.15,
        arrival_params={"cycle": cycle},
    )
    return run_serving_workload(
        "fastswap", mix, 0.7, duration=duration, seed=seed,
        admission=QueueDepthShed({"silver": 64, "bestEffort": 16}),
        fast_path=True,
    )


# -- payloads, access counts and invariants ------------------------------------


def _payload(result):
    """The result's JSON payload, plus the fault schedule it ran under."""
    payload = result.to_json()
    schedule = getattr(result, "schedule", None)
    if schedule is not None:
        payload["schedule"] = schedule.to_json()
    return payload


def _check_kv(result):
    _require(result.operations > 0, "no KV operation completed")


def _check_ec(result):
    _check_kv(result)
    rows = [row for row in result.tier_stats if row.get("tier") == "erasure"]
    _require(rows, "no erasure tier in the stack {!r}".format(result.tier_stack))
    _require(rows[0]["pages_lost"] == 0,
             "{} pages lost".format(rows[0]["pages_lost"]))
    _require(len(result.schedule) > 0, "the fault schedule is empty")


def _check_paging(result):
    _require(result.completion_time > 0, "completion_time is not positive")
    _require(result.stats["accesses"] > 0, "no page was accessed")


def _check_serving(result):
    _require(result.offered > 0, "no request was offered")
    _require(result.offered == result.completed + result.shed,
             "offered {} != completed {} + shed {}".format(
                 result.offered, result.completed, result.shed))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: ``call(seed, **params)`` -> the entry point's result object.
    call: object
    params: dict
    #: Reduced inputs for the benchmark's own tests.
    small_params: dict
    check: object

    def repetition(self, seed):
        """One repetition: the entry point's result for ``seed``."""
        return self.call(seed, **self.params)

    def reduced(self):
        """This workload at the reduced size the benchmark's tests use."""
        return replace(self, params=self.small_params)

    def accesses(self, result):
        """Simulated page accesses of one repetition: each KV operation
        touches its spec's ``pages_per_key`` pages; the other results
        carry their paging statistics."""
        if result.kind == "kv":
            return result.operations * KV_WORKLOADS[result.workload].pages_per_key
        return result.stats["accesses"]

    def digest(self, result):
        """sha256 of the result's canonical-JSON payload."""
        text = json.dumps(_payload(result), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def verify(self, result, expected_digest, observed_accesses=None):
        """Raise :class:`CheckFailed` unless the repetition is correct.

        ``observed_accesses`` is the access count read off the
        simulator's own counters, when the caller observed them (see
        :func:`observe_memory`); it must equal the count the workload
        derives from the result.
        """
        self.check(result)
        accesses = self.accesses(result)
        _require(accesses > 0, "no page was accessed")
        if observed_accesses is not None:
            _require(observed_accesses == accesses,
                     "{} accesses observed, {} derived from the result".format(
                         observed_accesses, accesses))
        digest = self.digest(result)
        _require(expected_digest is None or digest == expected_digest,
                 "payload digest {} != recorded {}".format(digest, expected_digest))
        return digest


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="kv-fastswap",
            call=_kv_fastswap,
            params={"keys": 2048, "duration": 0.25},
            small_params={"keys": 256, "duration": 0.01},
            check=_check_kv,
        ),
        Workload(
            name="ml-paging",
            call=_ml_paging,
            params={"pages": 16384, "iterations": 2},
            small_params={"pages": 512, "iterations": 1},
            check=_check_paging,
        ),
        Workload(
            name="kv-ec-chaos",
            call=_kv_ec_chaos,
            params={"keys": 256, "duration": 0.5},
            small_params={"keys": 64, "duration": 0.5},
            check=_check_ec,
        ),
        Workload(
            name="serve-open",
            call=_serve_open,
            params={"tenants_per_class": 40_000, "duration": 2.0, "cycle": 0.02},
            small_params={"tenants_per_class": 1_200, "duration": 0.2, "cycle": 0.02},
            check=_check_serving,
        ),
    )
}


def load_digests(path=DIGESTS_PATH):
    """The recorded digests document (see ``record_digests.py``)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def recorded_digest(digests, workload_name, seed):
    """The digest recorded for ``seed``, or ``None`` when there is none."""
    return digests["workloads"].get(workload_name, {}).get(str(seed))


@contextmanager
def observe_memory():
    """Collect every :class:`VirtualMemory` built inside the block.

    Used only on untimed repetitions (the warm-up and traced runs): it
    reads the simulator's own access counters for the
    accesses-match-operations invariant.  Yields the list of instances.
    """
    instances = []
    original = VirtualMemory.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        instances.append(self)

    VirtualMemory.__init__ = init
    try:
        yield instances
    finally:
        VirtualMemory.__init__ = original
