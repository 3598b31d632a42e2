"""Record the output digests that run.py checks each run against.

    python3 perfbench/record_digests.py <first seed> <last seed>

For every workload and every seed in the range, builds the corpus, runs the
three stages once at the committed size, checks the outputs as run.py does,
and stores the digest of cf.csv, every pf_*.csv and results.csv in
digests.json. Re-record only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def record(seed: int, name: str) -> str:
    run_dir = os.path.join(run.WORK, f"record-{name}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        bench = run.Bench(WORKLOADS[name], seed, 1.0, run_dir)
        if not bench.set_up(builds=1):
            raise SystemExit(f"{name} seed {seed}: set-up failed")
        for stage, args in run.stage_args(bench.workload, 1.0).items():
            code = run.run_process([sys.executable, "-m", "flowlab.cli", *args], run_dir,
                                   os.path.join(run_dir, "stages.log")).returncode
            if code:
                raise SystemExit(f"{name} seed {seed}: {stage} exited {code}")
        digest, errors = run.check_outputs(run_dir, bench.truth, bench.workload)
        if errors or bench.tally.failures:
            raise SystemExit(f"{name} seed {seed}: {errors + bench.tally.failures}")
        return digest
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    with open(run.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    for name in WORKLOADS:
        for seed in range(first, last + 1):
            digests.setdefault(name, {})[str(seed)] = record(seed, name)
            print(name, seed, digests[name][str(seed)], flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
