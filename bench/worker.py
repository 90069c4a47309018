"""One benchmark process: set up, run the timed loop, check the outputs.

``run.py`` starts a fresh interpreter on this file for every
measurement, so each run sees a cold process and its own peak RSS:

    python3 bench/worker.py --workload max-desk --seed 0 --problems 300

Set-up is importing ``bgmu``, building the corpus and running one
warm-up problem from outside the corpus; ``ready`` in the result is the
monotonic clock right after it, and ``setup_ref`` the times of a few
reference kernel runs (``reference.py``) made right after it. The loop
runs the corpus's first ``--problems`` problems back to back (closed
loop, one caller) and never clears the Bruhat memo. Only the calls
themselves are timed; one reference kernel run is timed before each
problem and one after the last (``ref``), so problem ``i`` lies
between ``ref[i]`` and ``ref[i + 1]``. Each result is turned into its
output bytes between two calls and dropped, and the bytes are checked
after the loop. The result is one JSON object on the last line of
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

DIGESTS = os.path.join(HERE, "digests")
SETUP_REF_SAMPLES = 7


def committed_digests(workload: str) -> dict[str, str]:
    path = os.path.join(DIGESTS, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--problems", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans here (gzipped JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import corpus
    import reference
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    problems = corpus.build(args.workload, args.seed, args.problems)
    wl.run(wl.warmup)
    ready = time.monotonic()
    setup_ref = [reference.sample() for _ in range(SETUP_REF_SAMPLES)]
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_ref": setup_ref}))
        return 0

    tracer = memo_before = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        memo_before = tracing.memo_info()
        tracer.install(extra=[("bench", workloads)])
    records, outputs, ref = [], {}, []
    clock = time.perf_counter
    for p in problems:
        ref.append(reference.sample())
        if tracer is not None:
            tracer.problem = p["id"]
        t0 = clock()
        try:
            raw = wl.run(p)
            error = None
        except Exception as exc:  # a failing problem is recorded; the run goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"id": p["id"], "time": clock() - t0, "error": error})
        if raw is not None:
            outputs[p["id"]] = wl.output(p, raw)
        del raw
    ref.append(reference.sample())
    elapsed = sum(r["time"] for r in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        memo_after = tracing.memo_info()

    digests = committed_digests(args.workload)
    stdout_bytes = 0
    for rec in records:
        p = problems[rec["id"]]
        rec.update(stratum=p["stratum"], n=len(p["mu"]))
        if rec["error"] is None:
            out = outputs.pop(rec["id"])
            rec["sha256"] = hashlib.sha256(out).hexdigest()
            if args.workload == "max-desk":
                stdout_bytes += len(out)
            try:
                wl.check(p, out)
                want = digests.get(corpus.problem_key(p))
                if want is not None and want != rec["sha256"]:
                    raise workloads.CheckFailed("output bytes differ from the committed digest")
            except Exception as exc:  # any check failure means a wrong output
                rec["error"] = f"{type(exc).__name__}: {exc}"
                rec["wrong"] = True
        if rec["error"] is not None:
            rec["problem"] = {k: p[k] for k in ("group", "mu", "sigma")}

    result = {"ready": ready, "setup_ref": setup_ref, "elapsed": elapsed,
              "peak_rss_mb": peak_rss_mb, "ref": ref, "records": records}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer,
            {r["id"]: r["n"] for r in records},
            {r["id"]: r["time"] for r in records},
            memo_before, memo_after, stdout_bytes,
        )
        result["spans"] = len(tracer.spans)
        result["memo_present"] = memo_before is not None
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
