"""Benchmark of the bgmu solver: three closed-loop workloads.

    python3 bench/run.py --workload max-desk --seed 0 --seconds 20 --trace 0

Each workload is one caller in one single-threaded process that starts
the next problem only when the previous one has returned:

  max-desk       ``bgmu max --strategy constructive`` in-process, ranks 6-9
  witness-scale  ``superbasic_witness`` plus its certificate JSON on GL_n,
                 n in {12, 16, 20, 24, 32}
  verify-sweep   the body of ``bgmu verify`` on desk-scale problems

``corpus.py`` draws the problems from the seed, ``workloads.py`` runs
and checks them, ``worker.py`` is the measured process.

A run is a fixed number of problems from the start of the corpus:
``--seconds`` times the workload's rate in ``CALIBRATION``, and at
least 150, so every version of the program runs the same problems and a
faster one finishes them sooner.

``--trace 0`` prints the end-to-end metrics: problems_per_s, op_p50_ms,
op_p90_ms, fail_ratio, setup_s (median over several fresh
interpreters) and peak_rss_mb. The times behind problems_per_s,
op_p50_ms, op_p90_ms and setup_s are wall times taken to a fixed
machine speed: each is divided by the time of the reference kernel
(``reference.py``) run around it, in the same process, and multiplied
by ``reference.REFERENCE_S``. This takes out the speed of the shared
host, which drifts by up to 2x over seconds; the plain wall-time
figures are printed beside them and kept in the results file. The
seed draws the order of the problems; the problems themselves are the
same for every seed (see ``corpus.py``). ``--trace 1`` runs the
problems with every public function of the package wrapped in a span
(see ``tracer.py``) and prints the per-layer metrics, per attempted
problem, plus the tracing overhead: the same problems run again
untraced (both rates taken to the reference speed; the span times are
not).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed`` counts problems
that raised, exited non-zero or failed the output check; ``correct`` is
false only when a produced output was wrong. ``fail_ratio`` can be
zero, so it is printed and written to the results file but left out of
that object; ``failed / attempted`` carries it. Full results, with
every failure as replayable problem JSON, go to
``bench/results/<workload>-seed<seed>[-trace].json``.

Run ``python3 -m pytest bench`` for the benchmark's own tests and
``python3 bench/make_digests.py`` to refresh the committed output
digests after an intended output change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("max-desk", "witness-scale", "verify-sweep")
# Problems per second of the timed loop, as first measured (Python
# 3.11, 2-vCPU x86 VM); fixed, so that --seconds maps to a fixed count.
CALIBRATION = {"max-desk": 11.0, "witness-scale": 3.7, "verify-sweep": 7.0}
MIN_PROBLEMS = 150
SETUP_SAMPLES = 9
DEADLINE_S = 170.0

END_TO_END = {
    "problems_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORT_ONLY = {"fail_ratio": "ratio"}

PER_LAYER = {
    "acceptable.adm_member.calls": "calls/problem",
    "acceptable.adm_member.self_s": "s/problem",
    "acceptable.adm_member.points_tried": "calls/problem",
    "acceptable.adm_member.hit_ratio": "ratio",
    "acceptable.adm_member.share_n_ge_8": "ratio",
    "weyl.bruhat_leq.calls": "calls/problem",
    "weyl.bruhat_leq.self_s": "s/problem",
    "weyl.bruhat_leq.share_n_ge_16": "ratio",
    "weyl.left_descent.calls": "calls/problem",
    "weyl.left_descent.self_s": "s/problem",
    "weyl.length.calls": "calls/problem",
    "weyl.mul.calls": "calls/problem",
    "superbasic.bruhat_lt.calls": "calls/problem",
    "superbasic.sharp_peel.self_s": "s/problem",
    "superbasic.sharp_peel.chain_steps": "steps/problem",
    "superbasic.superbasic_witness.self_s": "s/problem",
    "weyl.bruhat_lower_set.self_s": "s/problem",
    "weyl.reduced_word.self_s": "s/problem",
    "acceptable.adm_enumerate.self_s": "s/problem",
    "acceptable.adm_enumerate.elements": "elems/problem",
    "acceptable.enumerate_acceptable.self_s": "s/problem",
    "acceptable.maximal_newton_state.self_s": "s/problem",
    "newton.newton_point.calls": "calls/problem",
    "newton.newton_point.self_s": "s/problem",
    "newton.dominant_rep.calls": "calls/problem",
    "reduction.lift.calls": "calls/problem",
    "reduction.lift.self_s": "s/problem",
    "reduction.bruhat_leq.calls": "calls/problem",
    "reduction.solve.self_s": "s/problem",
    "reduction.parabolic_reduce.self_s": "s/problem",
    "reduction.product_split.self_s": "s/problem",
    "reduction.factor_witness.self_s": "s/problem",
    "weyl.bruhat_memo.hit_ratio": "ratio",
    "weyl.bruhat_memo.entries": "entries/problem",
    "cli.main.self_s": "s/problem",
    "cli.stdout_bytes": "B/problem",
    "trace.problems_per_s": "1/s",
    "trace.untraced_problems_per_s": "1/s",
    "trace.rate_ratio": "ratio",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """A fixed hash seed keeps set iteration, and so the work done, the
    same between runs; the package runs with its default guards."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("BGMU_GUARD", None)
    return env


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one fresh worker; returns its result and the monotonic
    clock at which it was started."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args, capture_output=True, text=True,
            env=worker_env(), timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of
    the order statistics near rank p*n, with the beta weights taken in
    their normal approximation. It varies less between runs than the
    single order statistic at that rank."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0]
    dist = statistics.NormalDist(p, (p * (1 - p) / (n + 2)) ** 0.5)
    cdf = [dist.cdf(i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / (cdf[n] - cdf[0])


def at_reference_speed(result: dict) -> None:
    """Set each record's ``ref_time``: its wall time divided by the
    median of the four reference kernel runs nearest it (the one just
    before the problem, the one just after, and one more on each side)
    and multiplied by ``reference.REFERENCE_S``."""
    ref = result["ref"]
    for i, r in enumerate(result["records"]):
        near = ref[max(0, i - 1):i + 3]
        r["ref_time"] = r["time"] * reference.REFERENCE_S / statistics.median(near)


def _setup_at_reference_speed(result: dict, spawned: float) -> tuple[float, float]:
    """A worker's set-up time, as wall time and at the reference speed."""
    wall = result["ready"] - spawned
    return wall, wall * reference.REFERENCE_S / statistics.median(result["setup_ref"])


def _summary(records: list[dict]) -> dict:
    by_n: dict[int, list[float]] = {}
    by_stratum: dict[str, list[dict]] = {}
    for r in records:
        by_n.setdefault(r["n"], []).append(r["ref_time"] * 1e3)
        by_stratum.setdefault(r["stratum"], []).append(r)
    return {
        "scaling_median_ms": {str(n): statistics.median(v) for n, v in sorted(by_n.items())},
        "strata": {
            s: {"count": len(rs), "failed": sum(r["error"] is not None for r in rs),
                "median_ms": statistics.median(r["ref_time"] * 1e3 for r in rs)}
            for s, rs in sorted(by_stratum.items())
        },
        "failures": [{**r["problem"], "error": r["error"]}
                     for r in records if r["error"] is not None],
    }


def _rate(result: dict, key: str = "ref_time") -> float:
    """Passed problems per second of the timed calls."""
    records = result["records"]
    return sum(r["error"] is None for r in records) / sum(r[key] for r in records)


def _wrong(*results: dict) -> int:
    return sum(bool(r.get("wrong")) for res in results for r in res["records"])


def problem_count(workload: str, seconds: float) -> int:
    return max(MIN_PROBLEMS, round(CALIBRATION[workload] * seconds))


def measure(workload: str, seed: int, count: int):
    """End-to-end metrics: one timed worker, and set-up timed in it and
    in fresh interpreters before and after it. Returns (metrics,
    records, wrong outputs, details); details hold the plain wall-time
    figures."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--problems", str(count)]

    def setup_probes(k: int) -> list[tuple[float, float]]:
        return [_setup_at_reference_speed(*_worker(common + ["--setup-only"], deadline))
                for _ in range(k)]

    setups = setup_probes(SETUP_SAMPLES // 2)
    result, spawned = _worker(common, deadline)
    setups.append(_setup_at_reference_speed(result, spawned))
    setups += setup_probes(SETUP_SAMPLES - len(setups))
    at_reference_speed(result)
    records = result["records"]
    ref_ms = [r["ref_time"] * 1e3 for r in records]
    wall_ms = [r["time"] * 1e3 for r in records]
    metrics = {
        "problems_per_s": _rate(result),
        "op_p50_ms": quantile(ref_ms, 0.5),
        "op_p90_ms": quantile(ref_ms, 0.9),
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": sum(r["error"] is not None for r in records) / len(records),
    }
    wall = {
        "problems_per_s": _rate(result, "time"),
        "op_p50_ms": quantile(wall_ms, 0.5),
        "op_p90_ms": quantile(wall_ms, 0.9),
        "setup_s": statistics.median(w for w, _ in setups),
    }
    # setup_samples_s: [wall time, time at the reference speed] per set-up
    details = {"wall_metrics": wall, "setup_samples_s": setups,
               "reference_s": result["ref"], "elapsed_s": result["elapsed"]}
    return metrics, records, _wrong(result), details


def measure_traced(workload: str, seed: int, count: int, spans_path: str):
    """Per-layer metrics from a traced worker, and the tracing overhead
    from an untraced run of the same problems."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--problems", str(count)]
    traced, _ = _worker(common + ["--trace", "--spans", spans_path], deadline)
    plain, _ = _worker(common, deadline)
    at_reference_speed(traced)
    at_reference_speed(plain)
    metrics = dict(traced["layers"])
    metrics["trace.problems_per_s"] = _rate(traced)
    metrics["trace.untraced_problems_per_s"] = _rate(plain)
    metrics["trace.rate_ratio"] = _rate(traced) / _rate(plain)
    details = {"spans": traced["spans"], "memo_present": traced["memo_present"],
               "elapsed_s": traced["elapsed"], "untraced_elapsed_s": plain["elapsed"]}
    return metrics, traced["records"], _wrong(traced, plain), details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bgmu benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "bgmu", "__init__.py")):
        sys.stderr.write(f"bench: no bgmu package under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    count = problem_count(args.workload, args.seconds)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else ""))
    try:
        if args.trace:
            metrics, records, wrong, details = measure_traced(
                args.workload, args.seed, count, stem + "-spans.jsonl.gz")
            names, units = PER_LAYER, PER_LAYER
        else:
            metrics, records, wrong, details = measure(args.workload, args.seed, count)
            names, units = END_TO_END, {**END_TO_END, **REPORT_ONLY}
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)
    details.update(_summary(records))
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "attempted": attempted, "failed": failed,
                   "wrong_outputs": wrong, "metrics": metrics, **details,
                   "records": records}, fh, indent=1)

    print(f"bgmu benchmark: workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace}")
    print(f"problems: {attempted} attempted, {attempted - failed} passed, {failed} failed"
          f" ({wrong} wrong outputs), timed loop {details['elapsed_s']:.2f} s")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if args.trace:
        print(f"tracing overhead: {metrics['trace.problems_per_s']:.4g} problems/s traced vs"
              f" {metrics['trace.untraced_problems_per_s']:.4g} untraced on the same"
              f" {attempted} problems; rate ratio {metrics['trace.rate_ratio']:.3f}"
              " (base: the untraced rate)")
        if not details["memo_present"]:
            print("weyl.bruhat_memo: absent (no cache_info); its metrics read 0")
    else:
        print(f"  op times are Harrell-Davis p50 and p90 of {attempted} problems; setup_s is the"
              f" median of {len(details['setup_samples_s'])} set-ups before, in and after the timed worker;"
              f" all times at the reference speed (one kernel run = {reference.REFERENCE_S * 1e3:g} ms)")
        print("plain wall time: " + ", ".join(
            f"{k} {v:.6g} {units[k]}" for k, v in details["wall_metrics"].items())
            + f"; reference kernel median {statistics.median(details['reference_s']) * 1e3:.4g} ms")
    print("scaling, median ms per problem at the reference speed by rank n: " + ", ".join(
        f"n={n}: {ms:.1f}" for n, ms in details["scaling_median_ms"].items()))
    for f in details["failures"]:
        print("failure: " + json.dumps(f))
    print(f"results: {os.path.relpath(stem + '.json', ROOT)}")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": names[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
