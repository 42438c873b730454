"""Set-up probe: one fresh interpreter, first statement to first event.

Run as ``python3 refbench/probe.py <workload> <seed>`` from the root of
the repository.  It times from its own first statement to the
workload's first simulated event, the entry point's
``DisaggregatedCluster.run_process`` call: importing :mod:`repro`,
input generation, the fault schedule, cluster and backend build, page
layout and arrival pre-materialization.  The call itself is stopped
before any event runs.  Calibration slices are sampled throughout and
a full calibration loop follows, so the time can be expressed in
reference seconds.  Prints one JSON object.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402


class _FirstEvent(Exception):
    """Raised at the entry point's first ``run_process`` call."""


def main(workload_name, seed):
    calibrator = calibration.Calibrator()
    reached = []
    with calibrator.sampling() as samples:
        from repro.core.cluster import DisaggregatedCluster

        def run_process(self, generator, name=None):
            reached.append((time.perf_counter(), len(samples)))
            generator.close()
            raise _FirstEvent()

        DisaggregatedCluster.run_process = run_process
        from workloads import WORKLOADS

        try:
            WORKLOADS[workload_name].repetition(seed)
        except _FirstEvent:
            pass
    if not reached:
        raise SystemExit("the entry point never called run_process")
    at, sampled = reached[0]
    measured = at - T0 - sum(samples[:sampled])
    slice_s = calibration.slice_estimate(samples[:sampled], calibrator.loop())
    print(json.dumps({
        "measured_s": measured,
        "slice_s": slice_s,
        "setup_ref_s": calibration.to_reference_seconds(measured, slice_s),
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
