"""The paper's motivating scenario (Section I): memory usage imbalance.

A node hosts four virtual servers with equal, peak-estimated memory
allocations.  One server runs a hot analytics job whose working set
exceeds its allocation; the other three sit mostly idle — the cluster
mirrors the reported "average of 30% idle memory during 70% of the
running time".  Three policies are compared for the hot server:

* ``static`` — no disaggregation: overflow pages to the local disk
  (today's default);
* ``node_level`` — partial node-level disaggregation: the idle
  servers' donations form a shared pool the hot server can swap into;
* ``node_plus_cluster`` — full hybrid: node pool first, then remote
  memory on other machines.

Expected shape: both disaggregated policies beat static by orders of
magnitude; node+cluster is at least as good as node-only (and strictly
better once the working set outgrows the node pool), while idle-memory
utilization rises from ~0 to most of the donated pool.
"""

import sys

from repro.core.cluster import DisaggregatedCluster
from repro.core.config import ClusterConfig
from repro.experiments.engine import RunSpec, run_serial
from repro.hw.latency import MiB
from repro.mem.page import make_pages
from repro.metrics.reporting import format_table
from repro.swap.base import VirtualMemory
from repro.swap.factory import make_swap_backend
from repro.swap.fastswap import FastSwap, FastSwapConfig
from repro.workloads.ml import ML_WORKLOADS

EXPERIMENT = "motivation"
POLICIES = ("static", "node_level", "node_plus_cluster")


def _cluster(policy, seed):
    donation = 0.0 if policy == "static" else 0.3
    receive_slabs = 48 if policy == "node_plus_cluster" else 0
    return DisaggregatedCluster.build(
        ClusterConfig(
            num_nodes=4,
            servers_per_node=4,
            server_memory_bytes=24 * MiB,
            donation_fraction=donation,
            receive_pool_slabs=max(receive_slabs, 0),
            send_pool_slabs=4,
            replication_factor=1,
            seed=seed,
        )
    )


def cells(scale=1.0, seed=0, workload="logistic_regression",
          working_set_pages=16384):
    """One cell per disaggregation policy."""
    return [
        RunSpec.make(EXPERIMENT, workload=workload, seed=seed, scale=scale,
                     policy=policy, working_set_pages=working_set_pages)
        for policy in POLICIES
    ]


def compute(spec):
    options = spec.options
    policy = options["policy"]
    # The working-set : pool ratio IS the scenario, so the page count
    # stays fixed; ``scale`` trims iterations only.
    workload = ML_WORKLOADS[spec.workload].with_overrides(
        pages=options["working_set_pages"],
        iterations=max(2, round(3 * spec.scale)),
    )
    cluster = _cluster(policy, spec.seed)
    node = cluster.nodes()[0]
    hot_server = node.servers[0]
    if policy == "static":
        backend = make_swap_backend("linux", node, cluster)
    else:
        config = FastSwapConfig(
            slabs_per_target=48 if policy == "node_plus_cluster" else 0
        )
        backend = FastSwap(node, cluster, config=config)
    # The hot server's resident frames = its private allocation.
    capacity_pages = max(1, hot_server.private_bytes // 4096 // 2)
    pages = make_pages(
        workload.pages,
        compressibility_sampler=workload.compressibility.sampler(
            cluster.rng.stream("pages")
        ),
    )
    mmu = VirtualMemory(
        cluster.env, pages, capacity_pages, backend,
        cpu=cluster.config.calibration.cpu,
        compute_per_access=workload.compute_per_access,
    )
    if hasattr(backend, "bind_page_table"):
        backend.bind_page_table(mmu.pages, mmu.stats)

    def job():
        yield from backend.setup()
        mmu.stats.start_time = cluster.env.now
        for page_id, is_write in workload.iter_accesses(cluster.rng.stream("trace")):
            if not mmu.hit(page_id, is_write):
                yield from mmu.access(page_id, write=is_write)
        yield from mmu.flush()
        mmu.stats.end_time = cluster.env.now

    cluster.run_process(job())
    pool = node.shared_pool
    return {
        "row": {
            "policy": policy,
            "completion_s": mmu.stats.completion_time,
            "major_faults": mmu.stats.major_faults,
            "idle_pool_mb": pool.capacity_bytes / MiB,
            "idle_pool_utilization": (
                pool.used_bytes / pool.capacity_bytes
                if pool.capacity_bytes else 0.0
            ),
            "remote_mb_used": (
                sum(a.used_bytes for a in backend.areas.values()) / MiB
                if isinstance(backend, FastSwap) else 0.0
            ),
        }
    }


def report(results):
    return {"rows": [payload["row"] for _spec, payload in results]}


def run(scale=1.0, seed=0, workload="logistic_regression",
        working_set_pages=16384):
    """Hot-server completion time and idle-memory utilization per policy."""
    return run_serial(sys.modules[__name__], scale=scale, seed=seed,
                      workload=workload, working_set_pages=working_set_pages)


def render(result):
    return format_table(
        result["rows"],
        title="Motivation — one hot VM among idle neighbours "
              "(completion time + idle-memory use)",
    )


def main():
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":
    main()
