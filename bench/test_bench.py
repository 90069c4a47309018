"""Tests of the benchmark itself: corpus determinism and mix, the
metric tables against BENCHMARK.json, the reference speed, and the
tracer.

    python3 -m pytest bench
"""

import collections
import hashlib
import json
import os
import subprocess
import sys

import pytest

import corpus
import reference
import run
import tracer
import workloads

WORKLOADS = run.WORKLOADS

with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
# The problem count of a benchmark run of BENCHMARK.json's length.
COUNT = {w: run.problem_count(w, SPEC["run_seconds"]) for w in WORKLOADS}


def _digest_in_fresh_process(workload: str, seed: int, hash_seed: str) -> str:
    code = ("import sys, json, hashlib; sys.path[:0] = sys.argv[1:3]; import corpus;"
            "print(hashlib.sha256(json.dumps(corpus.build(sys.argv[3], int(sys.argv[4]),"
            " int(sys.argv[5]))).encode()).hexdigest())")
    src = os.path.join(os.path.dirname(run.HERE), "src")
    out = subprocess.run(
        [sys.executable, "-c", code, run.HERE, src, workload, str(seed), str(COUNT[workload])],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    return out.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_bytes(workload):
    problems = corpus.build(workload, 7, COUNT[workload])
    here = hashlib.sha256(json.dumps(problems).encode()).hexdigest()
    assert _digest_in_fresh_process(workload, 7, "1") == here
    assert _digest_in_fresh_process(workload, 7, "2") == here


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_lists(workload):
    lists = [json.dumps([corpus.problem_key(p) for p in corpus.build(workload, s, COUNT[workload])])
             for s in range(4)]
    assert len(set(lists)) == 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_runs_the_same_problems_without_repeats(workload):
    want = sorted(corpus.problem_key(p) for p in corpus.build(workload, 0, COUNT[workload]))
    assert len(want) == len(set(want)) == COUNT[workload] >= run.MIN_PROBLEMS
    for seed in range(1, 6):
        assert sorted(corpus.problem_key(p) for p in corpus.build(workload, seed, COUNT[workload])) == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_longest_run_builds_without_repeats(workload):
    count = run.problem_count(workload, 60)
    keys = [corpus.problem_key(p) for p in corpus.build(workload, 0, count)]
    assert len(keys) == len(set(keys)) >= min(count, 283) * 0.95


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_longer_run_adds_problems_in_proportion(workload):
    """A run's problems are the first places of the design, so a longer
    run keeps a shorter one's and every run holds each stratum in
    proportion to its weight: up to one problem at the last place's
    round t, and k differs from t * total by less than one problem per
    stratum."""
    strata = {"max-desk": corpus._max_desk, "witness-scale": corpus._witness_scale,
              "verify-sweep": corpus._verify_sweep}[workload]()
    weights = {name: weight for name, weight, _ in strata}
    total = sum(weights.values())
    long = corpus._fill(strata, COUNT[workload])
    for k in range(1, len(long), 7):
        assert corpus._fill(strata, k) == long[:k]
        counts = collections.Counter(p["stratum"] for p in long[:k])
        slack = {s: 1 + len(strata) * w / total for s, w in weights.items()}
        assert all(abs(counts[s] - k * w / total) <= slack[s] for s, w in weights.items()), k


def test_verify_sweep_stops_when_every_problem_is_drawn():
    problems = corpus.build("verify-sweep", 0, 400)
    assert len({corpus.problem_key(p) for p in problems}) == len(problems) == 283


def test_corpora_stay_off_the_warmup_problems():
    for workload in WORKLOADS:
        warm = corpus.problem_key(workloads.WORKLOADS[workload].warmup)
        assert warm not in {corpus.problem_key(p) for p in corpus.build(workload, 0, COUNT[workload])}


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [
        ["a", "x", 0.0, 10.0, -1, 0, None],
        ["b", "x", 1.0, 4.0, 0, 0, None],
        ["c", "x", 2.0, 3.0, 1, 0, None],
        ["d", "x", 5.0, 9.0, 0, 0, None],
    ]
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_wraps_every_importing_namespace_and_restores_it():
    import bgmu.acceptable
    import bgmu.reduction
    import bgmu.weyl

    originals = (bgmu.weyl.bruhat_leq, bgmu.reduction.bruhat_leq, bgmu.weyl.AffineElement.__mul__)
    t = tracer.Tracer()
    t.install()
    try:
        assert bgmu.reduction.bruhat_leq is not originals[1]
        bgmu.reduction.solve((1, 0, 0), bgmu.Frobenius.superbasic(1, 3), strategy="constructive")
    finally:
        t.uninstall()
    assert (bgmu.weyl.bruhat_leq, bgmu.reduction.bruhat_leq,
            bgmu.weyl.AffineElement.__mul__) == originals
    vias = {(s[0], s[1]) for s in t.spans}
    assert ("weyl.bruhat_leq", "reduction") in vias
    assert ("weyl.bruhat_leq", "acceptable") in vias
    assert ("reduction.lift", "reduction") in vias
    assert t.counts["weyl.mul"] > 0 and t.counts["weyl.length"] > 0
    assert all(t.spans[s[4]][0] == "acceptable.adm_member"
               for s in t.spans if s[:2] == ["weyl.bruhat_leq", "acceptable"])


def test_quantile_estimates():
    assert run.quantile([5.0] * 40, 0.9) == pytest.approx(5.0)
    assert run.quantile([float(x) for x in range(1, 102)], 0.5) == pytest.approx(51.0)
    xs = [float(x) for x in range(1000)]
    assert run.quantile(xs, 0.9) == pytest.approx(899.5, abs=1.0)


def test_reference_kernel_does_fixed_work_without_the_package():
    assert reference.kernel() == reference.CHECKSUM
    assert 0 < reference.sample() < 1
    with open(reference.__file__) as fh:
        imports = [line for line in fh if line.startswith(("import ", "from "))]
    assert imports and not any("bgmu" in line for line in imports)


def test_times_are_divided_by_the_reference_runs_around_them():
    r0 = reference.REFERENCE_S
    result = {"ref": [r0, r0, r0, 4 * r0, 4 * r0, 4 * r0],
              "records": [{"time": 1.0, "error": None} for _ in range(5)]}
    run.at_reference_speed(result)
    # problem i lies between ref[i] and ref[i + 1]; the window is ref[i-1:i+3]
    assert [r["ref_time"] for r in result["records"]] == pytest.approx([1.0, 1.0, 0.4, 0.25, 0.25])
    assert run._rate(result) == pytest.approx(5 / 2.9)
    assert run._rate(result, "time") == pytest.approx(1.0)
