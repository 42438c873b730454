"""Ablations over the design choices of paper Section IV.

The paper enumerates alternatives without picking winners; these
experiments quantify each trade on the simulated cluster:

* ``run_placement`` — random vs round-robin vs weighted-RR vs
  power-of-two-choices: memory imbalance across receive pools (§IV-E);
* ``run_replication`` — replication factor 1 vs 2 vs 3: write cost vs
  read availability under node crashes (§IV-D);
* ``run_batching`` — Accelio message size x window size for a bulk
  partition transfer (§IV-H's "worth experimenting" sweep);
* ``run_groups`` — group size vs per-node memory-map metadata and
  remote capacity reachable by one node (§IV-C);
* ``run_donation`` — shared-pool donation fraction x% vs completion
  time (§IV-F: "maximizing the shared memory pool provides higher
  throughput and lower latency").

Each ablation is declared as independent :class:`RunSpec` cells (one
per policy / factor / grid point), so the engine can fan the whole
section out in parallel; the ``run_*`` helpers remain as serial
conveniences over the same cells.
"""

import sys

from repro.core.cluster import DisaggregatedCluster
from repro.core.config import ClusterConfig
from repro.core.memory_map import map_overhead_bytes
from repro.experiments.engine import RunSpec, run_serial
from repro.experiments.runner import default_cluster_config, run_paging_workload
from repro.hw.latency import GiB, KiB, MiB, TiB
from repro.net.rpc import RpcEndpoint
from repro.swap.fastswap import FastSwapConfig
from repro.workloads.ml import ML_WORKLOADS

EXPERIMENT = "ablations"
PLACEMENT_POLICIES = ("random", "round_robin", "weighted_round_robin",
                      "power_of_two")
#: Parts of the combined sweep, in report order.
PARTS = ("placement", "replication", "batching", "groups", "donation",
         "ballooning", "tier_cascade")
_TITLES = {
    "placement": "Ablation — placement",
    "replication": "Ablation — replication",
    "batching": "Ablation — batching",
    "groups": "Ablation — groups",
    "donation": "Ablation — donation",
    "ballooning": "Ablation — ballooning",
    "tier_cascade": "Ablation — XMemPod SSD cascade",
}


def _cell(scale, seed, part, **overrides):
    return RunSpec.make(EXPERIMENT, seed=seed, scale=scale, part=part,
                        **overrides)


# --- placement (§IV-E) -------------------------------------------------

def _placement_cells(scale, seed, entries=400):
    entries = max(50, int(entries * scale))
    return [
        _cell(scale, seed, "placement", policy=policy, entries=entries)
        for policy in PLACEMENT_POLICIES
    ]


def _compute_placement(spec):
    options = spec.options
    entries = options["entries"]
    cluster = DisaggregatedCluster.build(
        ClusterConfig(
            num_nodes=8,
            servers_per_node=1,
            server_memory_bytes=16 * MiB,
            donation_fraction=0.0,  # force every put remote
            receive_pool_slabs=entries,  # ample capacity everywhere
            replication_factor=1,
            placement_policy=options["policy"],
            seed=spec.seed,
        )
    )
    server = cluster.virtual_servers[0]

    def workload():
        for i in range(entries):
            yield from server.ldmc.put(("p", i), 256 * KiB)
        return True

    cluster.run_process(workload())
    hosted = [node.rdms.hosted_bytes for node in cluster.nodes()
              if node.node_id != "node0"]
    mean = sum(hosted) / len(hosted)
    return {
        "row": {
            "policy": options["policy"],
            "max_hosted_mb": max(hosted) / MiB,
            "min_hosted_mb": min(hosted) / MiB,
            "imbalance": (max(hosted) - min(hosted)) / mean if mean else 0.0,
        }
    }


def run_placement(scale=1.0, seed=0, entries=400):
    """Receive-pool load imbalance per placement policy."""
    return _run_part(_placement_cells(scale, seed, entries=entries))


# --- replication (§IV-D) -----------------------------------------------

def _replication_cells(scale, seed, entries=150):
    entries = max(30, int(entries * scale))
    return [
        _cell(scale, seed, "replication", factor=factor, entries=entries)
        for factor in (1, 2, 3)
    ]


def _compute_replication(spec):
    options = spec.options
    entries = options["entries"]
    cluster = DisaggregatedCluster.build(
        ClusterConfig(
            num_nodes=6,
            servers_per_node=1,
            server_memory_bytes=16 * MiB,
            donation_fraction=0.0,
            receive_pool_slabs=3 * entries,
            replication_factor=options["factor"],
            seed=spec.seed,
        )
    )
    server = cluster.virtual_servers[0]

    def put_all():
        start = cluster.env.now
        for i in range(entries):
            yield from server.ldmc.put(("r", i), 256 * KiB)
        return cluster.env.now - start

    write_time = cluster.run_process(put_all())
    # Crash one replica holder and count still-readable entries.
    cluster.crash_node("node1")

    def read_all():
        alive = 0
        for i in range(entries):
            try:
                yield from server.ldmc.get(("r", i))
                alive += 1
            except Exception:
                continue
        return alive

    readable = cluster.run_process(read_all())
    return {
        "row": {
            "replicas": options["factor"],
            "write_time_s": write_time,
            "network_mb": cluster.fabric.total_bytes / MiB,
            "readable_after_crash": readable,
            "total_entries": entries,
        }
    }


def run_replication(scale=1.0, seed=0, entries=150):
    """Write cost and post-crash availability per replication factor."""
    return _run_part(_replication_cells(scale, seed, entries=entries))


# --- batching (§IV-H) --------------------------------------------------

def _batching_cells(scale, seed, transfer_bytes=8 * MiB):
    transfer_bytes = max(1 * MiB, int(transfer_bytes * scale))
    return [
        _cell(scale, seed, "batching", message_kib=message_kib,
              window=window, transfer_bytes=transfer_bytes)
        for message_kib in (4, 8, 64, 256)
        for window in (1, 4, 16, 64)
    ]


def _compute_batching(spec):
    from repro.net.fabric import Fabric
    from repro.net.rdma import RdmaDevice
    from repro.sim import Environment

    options = spec.options
    transfer_bytes = options["transfer_bytes"]
    env = Environment()
    fabric = Fabric(env)
    a = RdmaDevice(env, fabric, "a")
    b = RdmaDevice(env, fabric, "b")
    endpoint = RpcEndpoint(a, message_bytes=options["message_kib"] * KiB,
                           window=options["window"])

    def move():
        qp = yield from a.connect(b)
        start = env.now
        yield from endpoint.transfer(qp, transfer_bytes)
        return env.now - start

    elapsed = env.run(until=env.process(move()))
    return {
        "row": {
            "message_kib": options["message_kib"],
            "window": options["window"],
            "transfer_s": elapsed,
            "gbytes_per_s": transfer_bytes / elapsed / GiB,
        }
    }


def run_batching(scale=1.0, seed=0, transfer_bytes=8 * MiB):
    """Bulk-transfer time across message sizes and window sizes."""
    return _run_part(
        _batching_cells(scale, seed, transfer_bytes=transfer_bytes)
    )


# --- groups (§IV-C) ----------------------------------------------------

def _groups_cells(scale, seed):
    return [
        _cell(scale, seed, "groups", group_size=group_size)
        for group_size in (0, 2, 4, 8)
    ]


def _compute_groups(spec):
    num_nodes = 16
    group_size = spec.options["group_size"]
    cluster = DisaggregatedCluster.build(
        ClusterConfig(
            num_nodes=num_nodes,
            servers_per_node=1,
            server_memory_bytes=8 * MiB,
            group_size=group_size,
            receive_pool_slabs=8,
            seed=spec.seed,
        )
    )
    node = cluster.nodes()[0]
    reachable = sum(
        cluster.free_receive_bytes(peer)
        for peer in cluster.peers_of(node.node_id)
    )
    effective_group = len(cluster.groups.group_of(node.node_id))
    # §IV-C arithmetic at datacenter scale: the memory map a node
    # needs to track its group's disaggregated memory.
    per_node_cluster_share = 2 * TiB / num_nodes
    map_bytes = map_overhead_bytes(per_node_cluster_share * effective_group)
    return {
        "row": {
            "group_size": group_size or num_nodes,
            "reachable_remote_mb": reachable / MiB,
            "map_overhead_gb_at_2tb": map_bytes / GiB,
        }
    }


def run_groups(scale=1.0, seed=0):
    """Group size: metadata footprint vs reachable remote capacity."""
    return _run_part(_groups_cells(scale, seed))


# --- donation (§IV-F) --------------------------------------------------

def _donation_cells(scale, seed):
    return [
        _cell(scale, seed, "donation", fraction=fraction)
        for fraction in (0.0, 0.1, 0.2, 0.3, 0.4)
    ]


def _compute_donation(spec):
    fraction = spec.options["fraction"]
    workload = ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=max(256, int(2048 * spec.scale)), iterations=3
    )
    result = run_paging_workload(
        "fastswap",
        workload,
        0.5,
        seed=spec.seed,
        cluster_config=default_cluster_config(
            seed=spec.seed, donation_fraction=fraction
        ),
        fast_path=spec.fast_path,
    )
    return {
        "row": {
            "donation_fraction": fraction,
            "completion_s": result.completion_time,
            "sm_share": (
                result.backend_stats.get("sm_puts", 0)
                / max(1, result.stats["swap_outs"])
            ),
        },
        "run": result.to_json(),
    }


def run_donation(scale=1.0, seed=0):
    """Shared-pool donation fraction vs paging completion time."""
    return _run_part(_donation_cells(scale, seed))


# --- ballooning (§IV-F policy 2) ---------------------------------------

def _ballooning_cells(scale, seed):
    return [
        _cell(scale, seed, "ballooning", adaptive=adaptive)
        for adaptive in (False, True)
    ]


def _compute_ballooning(spec):
    """§IV-F policy (2): balloon DRAM to a server that keeps paging.

    A FastSwap workload runs at an undersized resident set; the
    adaptive variant monitors the fault rate and reclaims the server's
    shared-pool donation as extra resident frames (the node manager's
    ballooning recommendation applied).  Expected shape: adaptive
    completes faster and ends with a larger resident capacity.
    """
    from repro.hw.latency import PAGE_SIZE
    from repro.mem.page import make_pages
    from repro.swap.base import VirtualMemory
    from repro.swap.factory import make_swap_backend

    adaptive = spec.options["adaptive"]
    workload = ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=max(256, int(2048 * spec.scale)), iterations=3
    )
    config = default_cluster_config(seed=spec.seed, donation_fraction=0.4)
    cluster = DisaggregatedCluster.build(config)
    node = cluster.nodes()[0]
    server = node.servers[0]
    backend = make_swap_backend(
        "fastswap", node, cluster, rng=cluster.rng.stream("b")
    )
    pages = make_pages(
        workload.pages,
        compressibility_sampler=workload.compressibility.sampler(
            cluster.rng.stream("pages")
        ),
    )
    mmu = VirtualMemory(
        cluster.env, pages, max(1, workload.pages // 2), backend,
        cpu=config.calibration.cpu,
        compute_per_access=workload.compute_per_access,
    )
    backend.bind_page_table(mmu.pages, mmu.stats)

    def monitor():
        faults_seen = 0
        while True:
            yield cluster.env.timeout(0.005)
            recent = mmu.stats.major_faults - faults_seen
            faults_seen = mmu.stats.major_faults
            if recent > 25:
                granted = server.balloon(128 * PAGE_SIZE)
                if granted:
                    mmu.grow_capacity(granted // PAGE_SIZE)

    def job():
        yield from backend.setup()
        mmu.stats.start_time = cluster.env.now
        for page_id, is_write in workload.iter_accesses(cluster.rng.stream("t")):
            if not mmu.hit(page_id, is_write):
                yield from mmu.access(page_id, write=is_write)
        yield from mmu.flush()
        mmu.stats.end_time = cluster.env.now

    if adaptive:
        cluster.env.process(monitor(), name="balloon-monitor")
    cluster.run_process(job())
    return {
        "row": {
            "ballooning": "adaptive" if adaptive else "off",
            "completion_s": mmu.stats.completion_time,
            "final_capacity_pages": mmu.capacity_pages,
            "major_faults": mmu.stats.major_faults,
        }
    }


def run_ballooning(scale=1.0, seed=0):
    """Adaptive ballooning vs a fixed resident set."""
    return _run_part(_ballooning_cells(scale, seed))


# --- tier cascade (paper ref. [36]) ------------------------------------

def _tier_cascade_cells(scale, seed):
    return [
        RunSpec.make(EXPERIMENT, backend=backend,
                     workload="logistic_regression", fit=0.5, seed=seed,
                     scale=scale, part="tier_cascade")
        for backend in ("fastswap", "xmempod")
    ]


def _compute_tier_cascade(spec):
    """XMemPod's SSD tier (paper ref. [36]) vs plain FastSwap.

    With no remote capacity available, FastSwap's overflow cascades to
    the HDD while XMemPod interposes an SSD tier.  Expected shape:
    the SSD cascade is several times faster under overflow and
    identical when nothing overflows.
    """
    backend = spec.backend
    workload = ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=2048, iterations=max(2, round(3 * spec.scale))
    )
    result = run_paging_workload(
        backend,
        workload,
        spec.fit,
        seed=spec.seed,
        # Tiny pool + no remote slabs: the storage cascade absorbs
        # all overflow.
        cluster_config=default_cluster_config(
            seed=spec.seed, donation_fraction=0.02, receive_pool_slabs=1
        ),
        fastswap_config=FastSwapConfig(slabs_per_target=0),
        fast_path=spec.fast_path,
    )
    return {
        "row": {
            "backend": backend,
            "completion_s": result.completion_time,
            "ssd_reads": result.backend_stats.get("ssd_reads", 0),
            "disk_reads": result.backend_stats.get("disk_reads", 0),
        },
        "run": result.to_json(),
    }


def run_tier_cascade(scale=1.0, seed=0):
    """XMemPod's SSD cascade vs plain FastSwap under overflow."""
    return _run_part(_tier_cascade_cells(scale, seed))


# --- oversubscription (not part of the combined sweep) -----------------

def run_oversubscription(scale=1.0, seed=0, tenants=8):
    """Fabric oversubscription vs remote-paging makespan.

    The paper's network-requirements citation ([27], Gao et al. OSDI'16)
    asks what disaggregation demands of the fabric; here every node
    pages remotely at once while the switch core admits fewer and fewer
    concurrent transfers.  Expected shape: FS-RDMA makespan grows as
    the core narrows; the node-local FS-SM variant is immune.
    """
    spec = ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=max(256, int(1024 * scale)), iterations=2
    )
    rows = []
    for core in (0, 2, 1):
        for label, fraction in (("fs_rdma", 0.0), ("fs_sm", 1.0)):
            result = _run_paging_tenants(
                spec, tenants, seed, core_concurrency=core,
                sm_fraction=fraction,
            )
            rows.append(
                {
                    "core_concurrency": core or "unlimited",
                    "variant": label,
                    "makespan_s": result,
                }
            )
    return {"rows": rows}


def _run_paging_tenants(spec, tenants, seed, core_concurrency, sm_fraction):
    from repro.mem.page import make_pages
    from repro.swap.base import VirtualMemory
    from repro.swap.fastswap import FastSwap

    config = default_cluster_config(
        seed=seed,
        num_nodes=max(4, tenants),
        fabric_core_concurrency=core_concurrency,
    )
    cluster = DisaggregatedCluster.build(config)
    jobs, mmus = [], []
    for index in range(tenants):
        node = cluster.nodes()[index]
        # Wire-bound configuration: raw pages, one read per fault, and
        # modest slab reservations so every tenant gets remote areas.
        backend = FastSwap(
            node, cluster,
            config=FastSwapConfig(
                sm_fraction=sm_fraction, compression=False, pbs=False,
                slabs_per_target=4,
            ),
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
        backend.bind_page_table(mmu.pages, mmu.stats)
        mmus.append(mmu)

        def job(backend=backend, mmu=mmu, index=index):
            yield from backend.setup()
            mmu.stats.start_time = cluster.env.now
            for page_id, is_write in spec.iter_accesses(
                cluster.rng.stream("trace{}".format(index))
            ):
                if not mmu.hit(page_id, is_write):
                    yield from mmu.access(page_id, write=is_write)
            yield from mmu.flush()
            mmu.stats.end_time = cluster.env.now

        jobs.append(cluster.env.process(job()))
    cluster.env.run(until=cluster.env.all_of(jobs))
    return max(mmu.stats.completion_time for mmu in mmus)


# --- declarative contract ----------------------------------------------

_PART_CELLS = {
    "placement": _placement_cells,
    "replication": _replication_cells,
    "batching": _batching_cells,
    "groups": _groups_cells,
    "donation": _donation_cells,
    "ballooning": _ballooning_cells,
    "tier_cascade": _tier_cascade_cells,
}
_PART_COMPUTE = {
    "placement": _compute_placement,
    "replication": _compute_replication,
    "batching": _compute_batching,
    "groups": _compute_groups,
    "donation": _compute_donation,
    "ballooning": _compute_ballooning,
    "tier_cascade": _compute_tier_cascade,
}


def cells(scale=1.0, seed=0):
    """Every ablation cell, grouped by part in report order."""
    specs = []
    for part in PARTS:
        specs.extend(_PART_CELLS[part](scale, seed))
    return specs


def compute(spec):
    return _PART_COMPUTE[spec.options["part"]](spec)


def _run_part(specs):
    """Serial rows for one part's cells (the ``run_*`` helpers)."""
    return {"rows": [compute(spec)["row"] for spec in specs]}


def report(results):
    sections = {}
    for spec, payload in results:
        part = spec.options["part"]
        sections.setdefault(part, []).append(payload["row"])
    rows = [
        dict([("ablation", part)] + list(row.items()))
        for part in PARTS
        for row in sections.get(part, [])
    ]
    return {"rows": rows, "sections": sections}


def run(scale=1.0, seed=0):
    """All Section IV ablations; ``sections`` maps part -> rows."""
    return run_serial(sys.modules[__name__], scale=scale, seed=seed)


def render(result):
    from repro.metrics.reporting import format_table

    lines = []
    for part in PARTS:
        rows = result["sections"].get(part)
        if not rows:
            continue
        if lines:
            lines.append("")
        lines.append(format_table(rows, title=_TITLES[part]))
    return "\n".join(lines)


def main():
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":
    main()
