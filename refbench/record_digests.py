"""Re-record the payload digests the benchmark checks every repetition against.

    python3 refbench/record_digests.py            # every workload, seeds 0-19

Only a change meant to alter simulated results may run this: a
performance change must leave every recorded digest as it is, and the
benchmark counts a repetition whose payload hashes differently as
failed.  Each recorded repetition must also pass its workload's
invariants, checked against the simulator's own access counters.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

#: Seeds whose digests are recorded; the first two are the default seed
#: and the held-out seed a performance claim must also hold on.
RECORDED_SEEDS = tuple(range(20))
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def record(workload, seed):
    with workloads.observe_memory() as memories:
        result = workload.repetition(seed)
    observed = sum(memory.stats.accesses for memory in memories)
    return workload.verify(result, None, observed)


def main():
    document = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        digests = {}
        for seed in RECORDED_SEEDS:
            digests[str(seed)] = record(workload, seed)
            print(name, seed, digests[str(seed)], flush=True)
        document["workloads"][name] = digests
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
