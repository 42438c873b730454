"""Multi-tenant contention: every node's server pages at once.

Single-tenant experiments understate real clusters: when all servers
hit memory pressure together, swap traffic contends for NICs, receive
pools and disks.  This experiment runs one paging workload per node
*concurrently* under each system and reports per-tenant completion
times, the makespan, a fairness ratio (slowest/fastest tenant), and the
cluster's donated-memory utilization sampled while running.

Expected shape: orderings survive contention (FastSwap < Infiniswap ≪
Linux on every tenant); FastSwap's makespan grows sub-linearly with
tenant count because most traffic stays node-local, while the
remote-only systems see their NIC/receive-pool contention grow.
"""

import sys

from repro.core.cluster import DisaggregatedCluster
from repro.experiments.engine import RunSpec, run_serial
from repro.experiments.runner import default_cluster_config
from repro.mem.page import make_pages
from repro.metrics.reporting import format_table
from repro.metrics.utilization import ClusterUtilizationMonitor
from repro.swap.base import VirtualMemory
from repro.swap.factory import make_swap_backend
from repro.workloads.ml import ML_WORKLOADS

EXPERIMENT = "multi_tenant"
SYSTEMS = ("fastswap", "infiniswap", "linux")


def _participating_nodes(cluster, tenants):
    """Nodes whose donated shared pools a tenant can actually fill.

    Tier-1 puts go to the *local* node's shared memory pool (LDMS
    order: shared pool, then remote, then disk), so only nodes hosting
    a tenant ever see shared-pool usage.  When ``tenants`` is below the
    cluster size (the experiment always builds ``max(4, tenants)``
    nodes), averaging utilization over all nodes dilutes the mean by
    ``num_nodes / tenants`` — pools no workload runs next to can never
    be filled.  Utilization is therefore reported over the
    participating nodes only.
    """
    return cluster.nodes()[:tenants]


def _run_system(system, spec, tenants, seed):
    config = default_cluster_config(seed=seed, num_nodes=max(4, tenants))
    cluster = DisaggregatedCluster.build(config)
    monitor = ClusterUtilizationMonitor(
        cluster, period=0.01, nodes=_participating_nodes(cluster, tenants)
    )
    monitor.start()
    jobs = []
    mmus = []
    for index in range(tenants):
        node = cluster.nodes()[index]
        backend = make_swap_backend(
            system, node, cluster,
            rng=cluster.rng.stream("backend{}".format(index)),
        )
        pages = make_pages(
            spec.pages,
            compressibility_sampler=spec.compressibility.sampler(
                cluster.rng.stream("pages{}".format(index))
            ),
        )
        mmu = VirtualMemory(
            cluster.env, pages, max(1, spec.pages // 2), backend,
            cpu=config.calibration.cpu,
            compute_per_access=spec.compute_per_access,
        )
        if hasattr(backend, "bind_page_table"):
            backend.bind_page_table(mmu.pages, mmu.stats)
        mmus.append(mmu)

        def tenant_job(backend=backend, mmu=mmu, index=index):
            yield from backend.setup()
            mmu.stats.start_time = cluster.env.now
            trace_rng = cluster.rng.stream("trace{}".format(index))
            for page_id, is_write in spec.iter_accesses(trace_rng):
                if not mmu.hit(page_id, is_write):
                    yield from mmu.access(page_id, write=is_write)
            yield from mmu.flush()
            mmu.stats.end_time = cluster.env.now

        jobs.append(cluster.env.process(tenant_job(),
                                        name="tenant{}".format(index)))
    cluster.env.run(until=cluster.env.all_of(jobs))
    completions = [mmu.stats.completion_time for mmu in mmus]
    return {
        "system": system,
        "tenants": tenants,
        "makespan_s": max(completions),
        "mean_completion_s": sum(completions) / len(completions),
        "fairness": max(completions) / min(completions),
        "mean_pool_utilization": monitor.mean_pool_utilization(),
    }


def cells(scale=1.0, seed=0, tenants=4):
    """One cell per system, each running ``tenants`` concurrent jobs."""
    return [
        RunSpec.make(EXPERIMENT, backend=system,
                     workload="logistic_regression", seed=seed, scale=scale,
                     tenants=tenants)
        for system in SYSTEMS
    ]


def compute(spec):
    workload = ML_WORKLOADS[spec.workload].with_overrides(
        pages=max(256, int(2048 * spec.scale)), iterations=3
    )
    return {
        "row": _run_system(
            spec.backend, workload, spec.options["tenants"], spec.seed
        )
    }


def report(results):
    return {"rows": [payload["row"] for _spec, payload in results]}


def run(scale=1.0, seed=0, tenants=4):
    """All three systems under ``tenants`` concurrent paging workloads."""
    return run_serial(sys.modules[__name__], scale=scale, seed=seed,
                      tenants=tenants)


def run_scaling(scale=1.0, seed=0, tenant_counts=(1, 2, 4)):
    """FastSwap makespan vs tenant count (contention scaling)."""
    spec = ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=max(256, int(2048 * scale)), iterations=3
    )
    rows = []
    for tenants in tenant_counts:
        for system in ("fastswap", "infiniswap"):
            rows.append(_run_system(system, spec, tenants, seed))
    return {"rows": rows}


def render(result):
    return format_table(
        result["rows"],
        title="Multi-tenant contention — 4 concurrent paging tenants",
    )


def main():
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":
    main()
