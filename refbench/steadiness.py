"""Measure how steady the benchmark's end-to-end metrics are.

    python3 refbench/steadiness.py --seeds 10 --workload kv-fastswap --workload serve-open

Runs ``run.py --trace 0`` for ``run_seconds`` from ``BENCHMARK.json``
once per seed (seeds 101, 102, ..., so the recorded-digest seeds are
not reused), one run at a time, and prints for every workload and
end-to-end metric the median of the runs and the spread: the distance
between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from calibration import relative_spread  # noqa: E402

FIRST_SEED = 101


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    values = {}
    for name in args.workload or names:
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                raise SystemExit("{} seed {} failed:\n{}".format(name, seed, done.stdout))
            for metric, entry in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
            print(name, seed, {m: round(e["value"], 4) for m, e in result["metrics"].items()},
                  flush=True)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    for name, metrics in values.items():
        for metric, series in metrics.items():
            print("{:12s} {:20s} median {:12.4f} spread {:.4f} (bound {})".format(
                name, metric, statistics.median(series), relative_spread(series),
                bounds[metric]))


if __name__ == "__main__":
    main()
