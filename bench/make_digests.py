"""Write the committed output digests of the benchmark problems.

    python3 bench/make_digests.py [workload ...]

Runs the problems of each workload that a benchmark run of
``run_seconds`` (from BENCHMARK.json) takes, the same for every seed,
once in a fresh worker, and stores the SHA-256 of each problem's output
bytes in ``bench/digests/<workload>.json``. The benchmark then fails any
problem whose output bytes change. Problems that fail (the known
defects) get no digest. Rerun only after an intended output change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import ROOT, WORKER, WORKLOADS, problem_count, worker_env
from worker import DIGESTS

import corpus


def main(argv: list[str]) -> int:
    os.makedirs(DIGESTS, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in argv or WORKLOADS:
        count = problem_count(workload, seconds)
        path = os.path.join(DIGESTS, f"{workload}.json")
        if os.path.exists(path):  # the old digests must not judge the new outputs
            os.remove(path)
        problems = corpus.build(workload, 0, count)
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", workload, "--seed", "0",
             "--problems", str(count)],
            capture_output=True, text=True, check=True, env=worker_env(),
        )
        records = json.loads(proc.stdout.strip().splitlines()[-1])["records"]
        digests = {corpus.problem_key(problems[r["id"]]): r["sha256"]
                   for r in records if r["error"] is None}
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                       for k, v in digests.items()) + "\n}\n")
        print(f"{workload}: {len(digests)} digests, {len(records) - len(digests)} failing problems")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
