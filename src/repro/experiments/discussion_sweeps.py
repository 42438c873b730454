"""Sweeps for the paper's discussion sections (III and VI).

Three questions the paper raises but does not measure; the simulator
can:

* ``run_tier_ladder`` (§VI) — one workload swapped against every tier
  of the memory/storage hierarchy: node shared memory, local NVM,
  cluster remote RDMA memory, local SSD, local HDD.  The completion
  times should reproduce the §VI latency ladder.
* ``run_transport`` (§IV-G) — the same remote-memory workload over the
  RDMA fabric vs a TCP/IP-class fabric (30 µs, ~10 GbE): how much of
  remote memory's win is the network?
* ``run_full_disaggregation`` (§III) — "full memory disaggregation at
  cluster level will be feasible when remote memory access speed is
  comparable to local memory speed": sweep the network's one-sided
  latency from DRAM-like to today's RDMA and beyond, and report the
  remote-vs-local slowdown at each point.
"""

import sys
from dataclasses import replace

from repro.experiments.engine import RunSpec, run_serial
from repro.experiments.runner import default_cluster_config, run_paging_workload
from repro.hw.latency import GiB, NetworkSpec
from repro.metrics.reporting import format_table
from repro.swap.fastswap import FastSwapConfig
from repro.workloads.ml import ML_WORKLOADS

EXPERIMENT = "discussion"
PARTS = ("tier_ladder", "transport", "full_disaggregation")
_TITLES = {
    "tier_ladder": "§VI tier ladder (LR, 50% config)",
    "transport": "§IV-G transport: RDMA vs TCP",
    "full_disaggregation": "§III full disaggregation feasibility sweep",
}
TIER_LADDER = ("shared_memory", "nvm", "remote_rdma", "ssd", "hdd")
TRANSPORTS = ("rdma_56g", "tcp_10g")
DISAGG_LATENCIES_US = (0.1, 0.5, 1.5, 5.0, 20.0)


def _spec(scale):
    return ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=max(256, int(2048 * scale)), iterations=3
    )


def _cell(scale, seed, part, **overrides):
    return RunSpec.make(EXPERIMENT, workload="logistic_regression", fit=0.5,
                        seed=seed, scale=scale, part=part, **overrides)


# --- tier ladder (§VI) -------------------------------------------------

def _tier_ladder_cells(scale, seed):
    return [
        _cell(scale, seed, "tier_ladder", tier=tier) for tier in TIER_LADDER
    ]


def _compute_tier_ladder(spec):
    from repro.core.cluster import DisaggregatedCluster
    from repro.mem.page import make_pages
    from repro.swap.base import VirtualMemory
    from repro.swap.factory import make_swap_backend
    from repro.swap.nvm_swap import NvmSwap

    tier = spec.options["tier"]
    backend_name, fs_config = {
        "shared_memory": ("fastswap", FastSwapConfig(sm_fraction=1.0)),
        "nvm": ("nvm", None),
        "remote_rdma": ("fastswap", FastSwapConfig(sm_fraction=0.0)),
        "ssd": ("linux-ssd", None),
        "hdd": ("linux", None),
    }[tier]
    workload = _spec(spec.scale)
    config = default_cluster_config(seed=spec.seed)
    if backend_name == "linux-ssd":
        # Swap device becomes an SSD: swap the HDD spec out.
        config = config.with_overrides(
            calibration=config.calibration.with_overrides(
                hdd=config.calibration.ssd
            )
        )
        backend_name = "linux"
    cluster = DisaggregatedCluster.build(config)
    node = cluster.nodes()[0]
    if backend_name == "nvm":
        backend = NvmSwap(node)
    else:
        backend = make_swap_backend(
            backend_name, node, cluster,
            rng=cluster.rng.stream("backend"),
            fastswap_config=fs_config,
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
    return {
        "row": {"tier": tier, "completion_s": mmu.stats.completion_time}
    }


def run_tier_ladder(scale=1.0, seed=0):
    """Completion time per swap tier, fastest to slowest."""
    return _run_part(_tier_ladder_cells(scale, seed))


# --- transport (§IV-G) -------------------------------------------------

def _transport_cells(scale, seed):
    return [
        _cell(scale, seed, "transport", fabric=fabric)
        for fabric in TRANSPORTS
    ]


def _compute_transport(spec):
    fabric = spec.options["fabric"]
    base = default_cluster_config(seed=spec.seed)
    if fabric == "rdma_56g":
        network = base.calibration.network
    else:
        network = NetworkSpec(
            rdma_latency=base.calibration.network.tcp_latency,
            send_recv_extra=10e-6,
            bandwidth=base.calibration.network.tcp_bandwidth,
            per_message_overhead=5e-6,  # kernel stack per message
        )
    config = base.with_overrides(
        calibration=base.calibration.with_overrides(network=network)
    )
    result = run_paging_workload(
        "fastswap", _spec(spec.scale), spec.fit, seed=spec.seed,
        cluster_config=config,
        fastswap_config=FastSwapConfig(sm_fraction=0.0),
        fast_path=spec.fast_path,
    )
    return {
        "row": {"transport": fabric,
                "completion_s": result.completion_time},
        "run": result.to_json(),
    }


def run_transport(scale=1.0, seed=0):
    """Remote paging over RDMA vs a TCP-class fabric."""
    return _report_transport(
        [(spec, compute(spec)) for spec in _transport_cells(scale, seed)]
    )


def _report_transport(results):
    rows = [payload["row"] for _spec, payload in results]
    rows[1]["slowdown_vs_rdma"] = (
        rows[1]["completion_s"] / rows[0]["completion_s"]
    )
    return {"rows": rows}


# --- full disaggregation (§III) ----------------------------------------

def _full_disaggregation_cells(scale, seed):
    specs = [_cell(scale, seed, "full_disaggregation", variant="local")]
    specs.extend(
        _cell(scale, seed, "full_disaggregation", variant="remote",
              latency_us=latency_us)
        for latency_us in DISAGG_LATENCIES_US
    )
    return specs


def _compute_full_disaggregation(spec):
    options = spec.options
    base = default_cluster_config(seed=spec.seed)
    if options["variant"] == "local":
        result = run_paging_workload(
            "fastswap", _spec(spec.scale), spec.fit, seed=spec.seed,
            cluster_config=base,
            fastswap_config=FastSwapConfig(sm_fraction=1.0),
            fast_path=spec.fast_path,
        )
        return {"row": {"variant": "local",
                        "completion_s": result.completion_time},
                "run": result.to_json()}
    latency_us = options["latency_us"]
    network = replace(
        base.calibration.network,
        rdma_latency=latency_us * 1e-6,
        bandwidth=max(6.0 * GiB, 10 * GiB if latency_us < 1 else 6 * GiB),
    )
    config = base.with_overrides(
        calibration=base.calibration.with_overrides(network=network)
    )
    result = run_paging_workload(
        "fastswap", _spec(spec.scale), spec.fit, seed=spec.seed,
        cluster_config=config,
        fastswap_config=FastSwapConfig(sm_fraction=0.0),
        fast_path=spec.fast_path,
    )
    return {
        "row": {"one_sided_latency_us": latency_us,
                "remote_completion_s": result.completion_time},
        "run": result.to_json(),
    }


def run_full_disaggregation(scale=1.0, seed=0):
    """Remote-vs-local slowdown as the network approaches DRAM speed."""
    return _report_full_disaggregation(
        [(spec, compute(spec))
         for spec in _full_disaggregation_cells(scale, seed)]
    )


def _report_full_disaggregation(results):
    local = None
    remote_rows = []
    for spec, payload in results:
        if spec.options["variant"] == "local":
            local = payload["row"]["completion_s"]
        else:
            remote_rows.append(payload["row"])
    rows = [
        {
            "one_sided_latency_us": row["one_sided_latency_us"],
            "remote_completion_s": row["remote_completion_s"],
            "slowdown_vs_node_local": row["remote_completion_s"] / local,
        }
        for row in remote_rows
    ]
    return {"rows": rows, "local_completion_s": local}


# --- declarative contract ----------------------------------------------

_PART_CELLS = {
    "tier_ladder": _tier_ladder_cells,
    "transport": _transport_cells,
    "full_disaggregation": _full_disaggregation_cells,
}
_PART_COMPUTE = {
    "tier_ladder": _compute_tier_ladder,
    "transport": _compute_transport,
    "full_disaggregation": _compute_full_disaggregation,
}
_PART_REPORT = {
    "tier_ladder": lambda results: {
        "rows": [payload["row"] for _spec, payload in results]
    },
    "transport": _report_transport,
    "full_disaggregation": _report_full_disaggregation,
}


def cells(scale=1.0, seed=0):
    """Every discussion-sweep cell, grouped by part in report order."""
    specs = []
    for part in PARTS:
        specs.extend(_PART_CELLS[part](scale, seed))
    return specs


def compute(spec):
    return _PART_COMPUTE[spec.options["part"]](spec)


def _run_part(specs):
    return {"rows": [compute(spec)["row"] for spec in specs]}


def report(results):
    sections = {}
    by_part = {}
    for spec, payload in results:
        by_part.setdefault(spec.options["part"], []).append((spec, payload))
    for part in PARTS:
        if part in by_part:
            sections[part] = _PART_REPORT[part](by_part[part])
    rows = [
        dict([("sweep", part)] + list(row.items()))
        for part in PARTS
        for row in sections.get(part, {}).get("rows", [])
    ]
    return {"rows": rows, "sections": sections}


def run(scale=1.0, seed=0):
    """All discussion sweeps; ``sections`` maps part -> its report."""
    return run_serial(sys.modules[__name__], scale=scale, seed=seed)


def render(result):
    lines = []
    for part in PARTS:
        section = result["sections"].get(part)
        if not section:
            continue
        if lines:
            lines.append("")
        lines.append(format_table(section["rows"], title=_TITLES[part]))
    return "\n".join(lines)


def main():
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":
    main()
