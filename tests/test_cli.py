"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bgmu import cli
from bgmu.cli import main
from bgmu.weyl import GroupDatum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_newton_subcommand(capsys):
    code, out, _ = run(
        capsys, "newton", "--group", "gl:2", "--w", "t[1,0]*cyc(1,2)",
        "--sigma", "superbasic:1/2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bgmu/1"
    assert doc["nu_bar"] == ["1", "1"]
    assert doc["normalized"] == ["1/2", "1/2"]


def test_newton_flip_twist(capsys):
    # w o sigma is a 3-cycle of sign -1: order 2 * 3, no translation
    code, out, _ = run(
        capsys, "newton", "--group", "gl:3", "--w", "t[2,1,0]*cyc(1,2)",
        "--sigma", "tau=t[1,0,0]*cyc(1,2,3);sigma0=-1", "--normalize",
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": "bgmu/1",
        "element": "t[2,1,0]*cyc(1,2)",
        "order": 6,
        "translation": [0, 0, 0],
        "nu": ["0", "0", "0"],
        "nu_bar": ["0", "0", "0"],
        "normalized": ["-1/3", "-1/3", "-1/3"],
        "kappa": [3],
    }


def test_max_subcommand_worked_example(capsys):
    code, out, _ = run(
        capsys, "max", "--group", "gl:8", "--mu", "1,1,1,0,0,0,0,0",
        "--sigma", "superbasic:5/8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nu_raw"] == ["3/2", "3/2", "1", "1", "1", "2/3", "2/3", "2/3"]
    assert doc["x"] == "cyc(1,6,7,4,5,2,3,8)"
    chain = [set(step["cycle_conjugated"]) for step in doc["certificate"]["chain"]]
    assert chain == [{8, 3}, {1, 3}, {1, 2}]
    assert doc["checks"]["admissible"]


def test_enumerate_subcommand(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--group", "gl:2", "--mu", "2,0",
        "--sigma", "superbasic:1/2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == [["3/2", "1/2"], ["1", "1"]]
    assert doc["max"] == 0
    assert doc["hasse"] == [[1, 0]]
    assert doc["mu_diamond_acceptable"] is False


def test_adm_membership(capsys):
    code, out, _ = run(
        capsys, "adm", "--group", "gl:2", "--mu", "1,0", "--w", "t[1,0]*cyc(1,2)",
    )
    assert code == 0
    assert json.loads(out)["member"] is True
    code, out, _ = run(
        capsys, "adm", "--group", "gl:2", "--mu", "1,0", "--w", "t[2,-1]",
    )
    assert json.loads(out)["member"] is False
    # a central translation on a PGL block is still a member
    code, out, _ = run(capsys, "adm", "--group", "pgl:2", "--mu", "0,0", "--w", "t[1,1]")
    assert json.loads(out)["member"] is True


@pytest.mark.parametrize("group, mu, digest", [
    ("gl:5", "2,2,1,0,0", "cb00076a09e6301d73e931e9064009d65a4987a2ebb581ee177d828e2f5cfe37"),
    ("pgl:2*3", "2,0,2,1,0", "7494e71a5effb826f97019cdf78f6931bfe68babc38dc3f79cdea172ed1cdfc5"),
    ("gl:4", "2,1,1,0", "fca25bd0c6837b4892fcd52baaf83d16ac78ddac1023290341551c3503f16977"),
], ids=["gl5", "pgl2x3", "gl4"])
def test_adm_listing_bytes(capsys, group, mu, digest):
    code, out, _ = run(capsys, "adm", "--group", group, "--mu", mu)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# twisted problems through the orbit split, the omega-conjugation and the
# 2- and 3-block product splits, flips included; the digests pin stdout
@pytest.mark.parametrize("group, mu, sigma, digest", [
    ("gl:2*2", "1,0,1,0", "tau=t[1,0,0,0]*cyc(1,2);sigma0=2,1",
     "486915bf4ef1b936200e97d28d66c27389aa33a5dfed4f32b8e7b059b22f6e99"),
    ("gl:3*3*3", "2,1,0,1,0,0,2,2,0",
     "tau=t[1,0,0,0,0,0,1,1,0]*cyc(1,2,3)*cyc(7,9,8);sigma0=2,3,1",
     "e8fcdf2636f1e0b9d0fa17bcefda2405cd9ad00edd231dce87dec634f66ab8a8"),
    ("pgl:2*2", "2,0,1,0", "sigma0=-2,-1",
     "3c32fa28522fade5b988aee024372dadd22f6e383dca448ad74b0302677af0ae"),
    ("gl:2*1*2", "1,0,3,1,0", "tau=t[0,0,1,1,0]*cyc(4,5);sigma0=3,2,1",
     "eef3c240f3166b34cd0bcc1b62011fc732a75acee61c303bebdbcd09a047dacb"),
    ("pgl:3*3", "2,1,0,1,1,0", "tau=t[0,0,0,1,1,0]*cyc(4,6,5);sigma0=-2,-1",
     "2b432ea65a31c8a96ac6da54f524703b3c9a2ac0dac8f3e2f6a46dd81adc1f78"),
    ("pgl:3*3", "2,1,0,1,1,0", "tau=t[0,0,0,1,1,0]*cyc(4,6,5);sigma0=-2,1",
     "c4dd3dc8a4f029a9e36664a1ec4574ee5f9dfea88949dad7c17f0a0321aea75b"),
], ids=["gl2x2-swap", "gl3x3x3-rotation", "pgl2x2-flips", "gl2x1x2-orbits",
        "pgl3x3-flips", "pgl3x3-odd-flip-parity"])
def test_max_twisted_bytes(capsys, group, mu, sigma, digest):
    code, out, _ = run(capsys, "max", "--group", group, "--mu", mu, "--sigma", sigma)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the brute force's witness is the first element of Adm(mu), in
# (length, trans, images) order, that attains the maximal point
@pytest.mark.parametrize("group, mu, sigma, digest", [
    ("gl:5", "2,2,1,0,0", "superbasic:2/5",
     "893a8355c7e06269b9e7eeeedbc1a53f0010984bb1647eea6c4e34a8c1d89e4a"),
    ("pgl:2*2", "2,0,1,0", "tau=t[1,0,0,0]*cyc(1,2);sigma0=-2,1",
     "d7a4bf6739f422f0e52d8d7150c7248b57602afc424d9a9a355d93e85035bea8"),
], ids=["gl5-superbasic", "pgl2x2-flip"])
def test_max_bruteforce_bytes(capsys, group, mu, sigma, digest):
    code, out, _ = run(
        capsys, "max", "--group", group, "--mu", mu, "--sigma", sigma, "--strategy", "bruteforce"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_adm_listing(capsys):
    code, out, _ = run(capsys, "adm", "--group", "gl:2", "--mu", "1,0")
    doc = json.loads(out)
    assert doc["size"] == 3
    assert set(doc["elements"]) == {"t[1,0]", "t[0,1]", "t[1,0]*cyc(1,2)"}


def test_polygon_tsv(capsys):
    code, out, _ = run(
        capsys, "polygon", "--mu", "1,1,1,0,0,0,0,0", "--m", "5", "--n", "8",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k\tpartial_sum\thull"
    assert lines[1] == "0\t0\t0"
    assert lines[2] == "1\t1\t3/2"
    assert lines[-1] == "8\t8\t8"


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-entry", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0 and doc["verified"] > 0


@pytest.mark.parametrize("keep_going", [False, True])
def test_verify_sweeps_every_problem_to_rank_five(capsys, keep_going):
    # every superbasic problem of rank 2-5 with entries 0..2 runs the
    # whole verify body: the constructive solve and its final check, the
    # brute force, the enumeration and the mu_diamond criterion
    argv = ["verify", "--max-n", "5", "--max-entry", "2"] + ["--keep-going"] * keep_going
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"schema": "bgmu/1", "verified": 140, "failures": 0}


@pytest.mark.parametrize("argv, message", [
    (["polygon", "--mu", "1,0", "--m", "1", "--n", "\u0662"], "argument --n: invalid int value: '\u0662'"),
    (["verify", "--max-n", "1_0", "--max-entry", "0"], "argument --max-n: invalid int value: '1_0'"),
    (["polygon", "--mu", "1,0", "--m", "1_0", "--n", "2"], "argument --m: invalid int value: '1_0'"),
    (["verify", "--max-entry", "\u0661"], "argument --max-entry: invalid int value: '\u0661'"),
    # argparse's own message, as int() refused it
    (["polygon", "--mu", "1,0", "--m", "1", "--n", "x"], "argument --n: invalid int value: 'x'"),
])
def test_integer_options_are_read_strictly(capsys, argv, message):
    # the options' numbers follow the rule of every other number: the
    # usage line and argparse's error, exit 1
    code, out, err = run(capsys, *argv)
    usage, error = err.splitlines()
    assert code == 1 and out == ""
    assert usage.startswith(f"usage: bgmu {argv[0]} ")
    assert error == f"bgmu {argv[0]}: error: {message}"


def test_usage_error_exit_code(capsys):
    assert main(["max", "--group", "gl:2"]) == 1  # missing required flags
    assert main(["newton", "--group", "nonsense", "--w", "t[1,0]",
                 "--sigma", "superbasic:1/2"]) == 1


BAD_INPUT = [
    (["max", "--group", "gl:0", "--mu", "0", "--sigma", "superbasic:1/2"], None),
    (["max", "--group", "gl:2", "--mu", "1,0", "--sigma", "tau=t[1,0]"], None),
    (["max", "--group", "gl:2", "--mu", "0,1", "--sigma", "superbasic:1/2"], None),
    (["max", "--group", "gl:2*2", "--mu", "1,0,1,0", "--sigma", "sigma0=2,2"], None),
    (["polygon", "--mu", "1,0", "--m", "2", "--n", "2"], None),
    (["max", "--group", "gl:2", "--mu", "1,0", "--sigma", "superbasic:1/2"], "abc"),
    (["adm", "--group", "gl:2", "--mu", "1,0,5"], None),
    (["adm", "--group", "gl:2", "--mu", "1,0,5", "--w", "t[1,0]"], None),
    (["max", "--group", "gl:2", "--mu", "1,x", "--sigma", "superbasic:1/2"], None),
    (["adm", "--group", "gl:2", "--mu", "1.5,0"], None),
    (["polygon", "--mu", "1,a", "--m", "1", "--n", "2"], None),
    (["polygon", "--mu", "1,0,0", "--m", "1", "--n", "2"], None),
    (["verify", "--max-n", "1"], None),
    (["verify", "--max-entry", "-2"], None),
    (["verify", "--max-n", "9", "--max-entry", "0"], None),
    (["verify", "--max-n", "9", "--max-entry", "0", "--keep-going"], None),
    (["verify", "--max-n", "4", "--max-entry", "0"], "3"),
    # every number is an optional sign and ASCII digits, not what int() reads
    (["max", "--group", "gl:1_0", "--mu", "1,0,0,0,0,0,0,0,0,0", "--sigma", "superbasic:1/10"], None),
    (["max", "--group", "gl:\u0663", "--mu", "1,0,0", "--sigma", "superbasic:1/3"], None),
    (["max", "--group", "gl:10", "--mu", "1_0,0,0,0,0,0,0,0,0,0", "--sigma", "superbasic:1/10"], None),
    (["max", "--group", "gl:3", "--mu", "1,0,0", "--sigma", "superbasic:1/\u0663"], None),
    (["max", "--group", "gl:3", "--mu", "1,0,0", "--sigma", "superbasic:0_1/3"], None),
    (["max", "--group", "gl:2*2", "--mu", "1,0,1,0", "--sigma", "sigma0=\u0662,1"], None),
    (["max", "--group", "gl:2", "--mu", "1,0", "--sigma", "tau=t[0_0,0]"], None),
    (["max", "--group", "gl:2", "--mu", "1,0", "--sigma", "tau=t[1,0]*cyc(1,\u0662)"], None),
    (["newton", "--group", "gl:2", "--w", "t[\u0661,0]", "--sigma", "superbasic:1/2"], None),
    (["enumerate", "--group", "gl:2", "--mu", "1,0", "--sigma", "superbasic:1/2"], "1_0"),
    (["enumerate", "--group", "gl:2", "--mu", "1,0", "--sigma", "superbasic:1/2"], "\u0668"),
    # a bad BGMU_GUARD is bad input to verify too, not a mismatch
    (["verify", "--max-n", "3", "--max-entry", "1"], "abc"),
]


@pytest.mark.parametrize("argv, env", BAD_INPUT)
def test_bad_input_is_a_one_line_error(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("BGMU_GUARD", env)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("bgmu: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, env, message", [
    (["verify", "--max-n", "9"], None, "n=9 > 8"),
    (["verify", "--max-n", "9", "--max-entry", "5", "--keep-going"], None, "n=9 > 8"),
    (["verify", "--max-n", "4", "--max-entry", "0"], "3", "n=4 > 3"),
    (["verify", "--max-n", "3"], "1", "n=2 > 1"),
    (["verify", "--max-n", "2"], "-3", "n=2 > -3"),
])
def test_verify_refuses_a_guarded_rank_before_its_sweep(capsys, monkeypatch, argv, env, message):
    # the sweep would reach the refused rank, so no problem runs first
    def refuse(*args, **kwargs):
        raise AssertionError("verify solved a problem before its guard")

    if env is not None:
        monkeypatch.setenv("BGMU_GUARD", env)
    monkeypatch.setattr(cli, "solve", refuse)
    assert run(capsys, *argv) == (1, "", f"bgmu: guard exceeded: enumeration guard: {message}\n")


def test_verify_runs_when_its_guard_admits_every_rank(capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(mu, frob, strategy):
        raise Reached(frob.datum.n)

    monkeypatch.setenv("BGMU_GUARD", "9")
    monkeypatch.setattr(cli, "solve", reached)
    with pytest.raises(Reached):
        main(["verify", "--max-n", "9"])


@pytest.mark.parametrize("env", [None, "9", "100"])
def test_verify_refuses_a_sweep_past_its_budget_before_it_runs(capsys, monkeypatch, env):
    # C(1000002, 2) problems at rank 2 alone: refused at once, by a
    # budget that BGMU_GUARD does not move, and no problem runs first
    def refuse(*args, **kwargs):
        raise AssertionError("verify solved a problem before its guard")

    if env is not None:
        monkeypatch.setenv("BGMU_GUARD", env)
    monkeypatch.setattr(cli, "solve", refuse)
    start = time.perf_counter()
    got = run(capsys, "verify", "--max-n", "2", "--max-entry", "1000000")
    assert time.perf_counter() - start < 0.2
    assert got == (1, "", "bgmu: guard exceeded: verify guard:"
                          f" 500001500001 problems up to n=2 > {cli.VERIFY_BUDGET}\n")


@pytest.mark.parametrize("max_n, max_entry, count", [
    (2, 0, 1), (2, 1, 3), (4, 0, 5), (3, 1, 11), (3, 2, 26), (4, 1, 21),
])
def test_the_verify_guard_counts_the_sweep(capsys, monkeypatch, max_n, max_entry, count):
    # the count is the number of problems that the sweep verifies: a
    # budget of exactly that many admits it, one less refuses it
    argv = ["verify", "--max-n", str(max_n), "--max-entry", str(max_entry)]
    monkeypatch.setattr(cli, "VERIFY_BUDGET", count)
    code, out, err = run(capsys, *argv)
    assert code == 0 and json.loads(out)["verified"] == count, err
    monkeypatch.setattr(cli, "VERIFY_BUDGET", count - 1)
    assert run(capsys, *argv) == (
        1, "", f"bgmu: guard exceeded: verify guard: {count} problems up to n={max_n} > {count - 1}\n")



# valid commands at rank <= 6, one per subcommand and twist kind
VALID_INPUT = [
    ["max", "--group", "gl:6", "--mu", "2,1,1,0,0,0", "--sigma", "superbasic:5/6"],
    ["max", "--group", "pgl:4", "--mu", "2,1,0,0", "--sigma", "superbasic:1/4", "--normalize"],
    ["max", "--group", "gl:3*3", "--mu", "2,1,0,1,0,0",
     "--sigma", "tau=t[1,0,0,0,0,0]*cyc(1,2,3);sigma0=2,1", "--strategy", "constructive"],
    ["max", "--group", "gl:2*2", "--mu", "1,0,1,0", "--sigma", "sigma0=2,-1",
     "--strategy", "bruteforce"],
    ["newton", "--group", "gl:2", "--w", "t[1,0]*cyc(1,2)", "--sigma", "superbasic:1/2"],
    ["enumerate", "--group", "gl:3", "--mu", "2,1,0", "--sigma", "superbasic:1/3"],
    ["adm", "--group", "gl:2", "--mu", "1,0"],
    ["adm", "--group", "gl:3", "--mu", "1,0,0", "--w", "t[1,0,0]*cyc(1,2,3)"],
    ["polygon", "--mu", "1,1,1,0,0,0", "--m", "5", "--n", "6"],
    ["verify", "--max-n", "3", "--max-entry", "1"],
]

_FUZZ_CHARS = "0123456789-+,:;/*=[]()_ xtcy\u0663"


def _mutate(rng, argv):
    """argv with one or two of its tokens changed: a digit replaced by a
    digit, a character replaced, dropped or inserted, or a token dropped,
    repeated or swapped. Three times in four the token is a value, not a
    subcommand or a flag."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        values = [i for i, t in enumerate(argv) if i and not t.startswith("--")]
        i = rng.choice(values) if values and rng.random() < 0.75 else rng.randrange(len(argv))
        token, op = argv[i], rng.randrange(7)
        k = rng.randrange(len(token) + 1)
        digits = [j for j, c in enumerate(token) if c.isdigit()]
        if op == 0 and digits:
            k = rng.choice(digits)
            argv[i] = token[:k] + rng.choice("0123456789") + token[k + 1:]
        elif op == 1:
            argv[i] = token[:k] + rng.choice(_FUZZ_CHARS) + token[k + 1:]
        elif op == 2:
            argv[i] = token[:k] + token[k + 1:]
        elif op == 3:
            argv[i] = token[:k] + rng.choice(_FUZZ_CHARS) + token[k:]
        elif op == 4 and len(argv) > 1:
            del argv[i]
        elif op == 5:
            argv.insert(i, token)
        else:
            j = rng.randrange(len(argv))
            argv[i], argv[j] = argv[j], token
    return argv


def _long_sweep(argv):
    """Whether argv asks verify for a sweep past n = 4 or entries past 3:
    a sweep costs what it asks for, so the fuzz does not run one."""
    try:
        args = cli._parser().parse_args(argv)
    except SystemExit:
        return False
    return args.func is cli.cmd_verify and (args.max_n > 4 or args.max_entry > 3)


def test_valid_commands_exit_zero(capsys):
    for argv in VALID_INPUT:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == "", (argv, err)


def test_mutated_commands_fail_cleanly_and_deterministically(capsys, monkeypatch):
    # derandomized: the same 3,000 command lines on every run, half of
    # them from the valid commands and half from the bad ones
    rng = random.Random(20261019)
    valid = [(argv, None) for argv in VALID_INPUT]
    codes = []
    for _ in range(3000):
        argv, env = rng.choice(valid if rng.random() < 0.5 else BAD_INPUT)
        argv = _mutate(rng, argv)
        if env is None:
            monkeypatch.delenv("BGMU_GUARD", raising=False)
        else:
            monkeypatch.setenv("BGMU_GUARD", env)
        if _long_sweep(argv):
            continue
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, env, err)
        assert "Traceback" not in err, (argv, env)
        assert run(capsys, *argv)[:2] == (code, out), (argv, env)
        codes.append(code)
    # the mutations reach both answers and refusals
    assert codes.count(0) >= 80 and codes.count(1) >= 2000


@pytest.mark.parametrize("group, sigma, message", [
    ("sl:2", "superbasic:1/2", "unknown group kind 'sl'"),
    ("gl:2*x", "superbasic:1/2", "bad block sizes in 'gl:2*x'"),
    ("gl:2*2", "sigma0=a,1", "bad sigma0 spec 'a,1'"),
    ("gl:2*2", "sigma0=1", "sigma0 needs 2 targets, got 1"),
    ("gl:2", "superbasic:1/2/3", "superbasic twist must be m/n, got '1/2/3'"),
    ("gl:3", "superbasic:1/2", "superbasic:1/2 needs a single block of size 2, got gl:3"),
    ("gl:4", "superbasic:2/4", "superbasic twist needs coprime 0 < m < n, got 2/4"),
    ("gl:2", "foo=1", "unknown twist component 'foo=1'"),
])
def test_bad_group_or_twist_is_a_one_line_error(capsys, group, sigma, message):
    n = sum(int(b) for b in group.split(":")[1].split("*") if b.isdigit())
    code, out, err = run(capsys, "max", "--group", group, "--mu", ",".join(["0"] * n),
                         "--sigma", sigma)
    assert code == 1 and out == ""
    assert err == f"bgmu: {message}\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--group", "gl:2", "--mu", "0,1", "--sigma", "superbasic:1/2"],
    ["enumerate", "--group", "gl:2*2", "--mu", "1,0,0,1", "--sigma", "sigma0=2,1"],
    # mu is checked before any guard: gl:9 is above the enumeration guard
    ["enumerate", "--group", "gl:9", "--mu", "0,1,0,0,0,0,0,0,0", "--sigma", "superbasic:1/9"],
])
def test_enumerate_refuses_non_dominant_mu(capsys, argv):
    # refused as a ParseError, as max refuses it
    code, out, err = run(capsys, *argv)
    mu = tuple(int(x) for x in argv[argv.index("--mu") + 1].split(","))
    assert code == 1 and out == ""
    assert err == f"bgmu: mu {mu} is not dominant per block\n"


@pytest.mark.parametrize("argv", [
    ["max", "--group", "gl:2", "--mu", "-1,-1", "--sigma", "superbasic:1/2"],
    ["enumerate", "--group", "gl:2", "--mu", "-1,-1", "--sigma", "superbasic:1/2"],
    ["adm", "--group", "gl:2", "--mu", "-1,-2"],
    ["polygon", "--mu", "-1,-2", "--m", "1", "--n", "2"],
])
def test_mu_with_negative_first_entry(capsys, argv):
    # "--mu -1,-1" reads like an option to argparse; it must mean what
    # "--mu=-1,-1" means
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    i = argv.index("--mu")
    glued = argv[:i] + ["--mu=" + argv[i + 1]] + argv[i + 2:]
    assert run(capsys, *glued) == (0, out, "")


def test_max_gl36_long_witness(capsys):
    mu = ",".join(["4"] * 9 + ["2"] * 9 + ["1"] * 9 + ["0"] * 9)
    code, out, err = run(
        capsys, "max", "--group", "gl:36", "--mu", mu,
        "--sigma", "superbasic:17/36", "--strategy", "constructive",
    )
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["checks"]["admissible"]


def test_tau_sigma0_twist(capsys):
    code, out, _ = run(
        capsys, "max", "--group", "pgl:3", "--mu", "1,0,0",
        "--sigma", "tau=t[0,0,0];sigma0=-1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nu_raw"] == ["1/2", "0", "-1/2"]


def test_byte_determinism(capsys):
    a = run(capsys, "max", "--group", "gl:5", "--mu", "2,1,1,0,0",
            "--sigma", "superbasic:2/5")
    b = run(capsys, "max", "--group", "gl:5", "--mu", "2,1,1,0,0",
            "--sigma", "superbasic:2/5")
    assert a == b


@pytest.mark.parametrize("command, patched", [("max", "_solve"), ("enumerate", "enumerate_acceptable")])
def test_internal_check_failure_prints_the_problem_to_replay(capsys, monkeypatch, command, patched):
    # a bug, unlike bad input, adds a second stderr line: the problem as
    # compact JSON, the same object that max reports under "problem"
    import bgmu.cli as cli
    from bgmu.errors import InternalCheckFailed

    argv = [command, "--group", "gl:2*2", "--mu", "1,0,1,0", "--sigma", "sigma0=2,-1"]
    code, out, _ = run(capsys, "max", *argv[1:])
    problem = json.loads(out)["problem"]

    def broken(*args, **kwargs):
        raise InternalCheckFailed("forced bug")

    monkeypatch.setattr(cli, patched, broken)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"bgmu: forced bug\nbgmu: problem {json.dumps(problem, separators=(',', ':'))}\n"



def test_reduction_bug_is_an_internal_check(capsys, monkeypatch):
    # an orbit split that lifts its sub-witnesses onto the wrong orbits
    # fails inside the reduction with an IndexError; solve reports it as
    # an internal check, so the CLI prints the problem to replay instead
    # of a traceback
    import bgmu.reduction as reduction

    real = reduction.OrbitSplitStep.lift
    monkeypatch.setattr(reduction.OrbitSplitStep, "lift",
                        lambda self, subs: real(self._replace(positions=self.positions[::-1]), subs))
    tau = "t[1,0,0,1,1,1,0]*cyc(1,2,3)*cyc(4,7,6,5)"
    code, out, err = run(capsys, "max", "--group", "gl:3*4", "--mu", "1,1,0,3,2,1,0",
                         "--sigma", f"tau={tau};sigma0=1,2")
    assert code == 1 and out == ""
    first, second = err.splitlines()
    assert first == "bgmu: reduction failed: IndexError('tuple index out of range')"
    assert json.loads(second.removeprefix("bgmu: problem ")) == {
        "group": "gl:3*4", "mu": [1, 1, 0, 3, 2, 1, 0], "tau": tau, "sigma0": "1,2",
        "shift": ["0"] * 7,
    }
    assert "Traceback" not in err

def test_verify_reports_replayable_failure(capsys, monkeypatch):
    import bgmu.cli as cli
    from bgmu.errors import BgmuError

    def broken(mu, frob, strategy="auto"):
        raise BgmuError("forced mismatch")

    monkeypatch.setattr(cli, "solve", broken)
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--max-entry", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc["failures"] >= 1
    failure = doc["first_failure"]
    assert failure["error"] == "forced mismatch"
    assert failure["problem"]["group"] == "gl:2"
    assert failure["problem"]["mu"] is not None


@pytest.mark.parametrize("keep_going, verified, failures", [(False, 4, 1), (True, 21, 8)])
def test_verify_stops_at_the_first_failure_unless_kept_going(capsys, monkeypatch,
                                                           keep_going, verified, failures):
    # n = 2, 3, 4 have 1, 2, 2 coprime twists and 3, 4, 5 mu with entries
    # at most 1; only the 8 problems at n = 3 fail
    import bgmu.cli as cli
    from bgmu.errors import BgmuError

    real_solve = cli.solve

    def broken_at_3(mu, frob, strategy="auto"):
        if len(mu) == 3:
            raise BgmuError("forced mismatch")
        return real_solve(mu, frob, strategy)

    monkeypatch.setattr(cli, "solve", broken_at_3)
    argv = ["verify", "--max-n", "4", "--max-entry", "1"] + ["--keep-going"] * keep_going
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 2
    assert (doc["verified"], doc["failures"]) == (verified, failures)
    assert doc["first_failure"]["problem"]["group"] == "gl:3"
    assert doc["first_failure"]["problem"]["mu"] == [1, 1, 1]


def test_verify_reports_a_mu_diamond_mismatch(capsys, monkeypatch):
    # the criterion negated disagrees with the maximum on the first
    # problem, gl:2 with mu = (1, 1)
    import bgmu.cli as cli

    real = cli.mu_diamond_acceptable
    monkeypatch.setattr(cli, "mu_diamond_acceptable", lambda mu, frob: not real(mu, frob))
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--max-entry", "1")
    doc = json.loads(out)
    assert code == 2 and (doc["verified"], doc["failures"]) == (1, 1)
    assert doc["first_failure"]["error"] == "mu_diamond criterion mismatch"
    assert doc["first_failure"]["problem"]["mu"] == [1, 1]


def test_a_brute_force_disagreement_prints_the_problem_to_replay(capsys, monkeypatch):
    # auto compares the claimed point with the brute-force maximum; a
    # forced disagreement is a failed internal check, reported with the
    # problem to replay
    import bgmu.reduction as reduction

    argv = ["max", "--group", "gl:3", "--mu", "1,0,0", "--sigma", "superbasic:1/3"]
    code, out, _ = run(capsys, *argv)
    problem = json.loads(out)["problem"]
    # the brute force's maximum is its key (k, lam), the point lam / k
    monkeypatch.setattr(reduction, "_brute_force",
                        lambda mu, frob, witness: ((1, (0, 0, 0)), None))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (
        "bgmu: constructive (1, 1/2, 1/2) and brute force (0, 0, 0) disagree\n"
        f"bgmu: problem {json.dumps(problem, separators=(',', ':'))}\n"
    )


def test_a_failed_check_carries_its_problem_to_library_callers(capsys, monkeypatch):
    # a self-check that fails inside solve leaves with the solve's problem
    # attached, and the replay line that max prints is that problem's
    import bgmu.reduction as reduction
    from bgmu.errors import InternalCheckFailed

    argv = ["max", "--group", "gl:2*2", "--mu", "1,0,1,0", "--sigma", "sigma0=2,-1"]
    code, out, _ = run(capsys, *argv)
    problem = json.loads(out)["problem"]
    frob = cli._parse_sigma("sigma0=2,-1", cli._parse_group("gl:2*2"), False)
    monkeypatch.setattr(reduction, "bruhat_leq", lambda u, v: False)
    with pytest.raises(InternalCheckFailed, match="is not below") as failed:
        reduction.solve((1, 0, 1, 0), frob, "constructive")
    assert failed.value.problem == reduction.Problem((1, 0, 1, 0), frob)
    assert cli._problem_json(failed.value.problem) == problem
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    first, second = err.splitlines()
    assert first.startswith("bgmu: witness ") and "is not below" in first
    assert second == f"bgmu: problem {json.dumps(problem, separators=(',', ':'))}"


# gl:6 descends to a parabolic, gl:3*4 splits its orbits and the block
# swaps gl:3*3 and gl:2*2 split a product
TWISTED = [
    ("gl:6", "2,1,1,0,0,0", "tau=t[1,1,0,0,0,0]*cyc(1,3,5)*cyc(2,4,6)"),
    ("gl:3*3", "2,1,0,1,0,0", "tau=t[1,0,0,0,0,0]*cyc(1,2,3);sigma0=2,1"),
    ("gl:3*4", "1,1,0,3,2,1,0", "tau=t[1,0,0,1,1,1,0]*cyc(1,2,3)*cyc(4,7,6,5);sigma0=1,2"),
    ("gl:2*2", "1,0,1,0", "tau=t[1,0,0,0]*cyc(1,2);sigma0=2,1"),
]


def test_twist_and_mu_checks_run_once(capsys, monkeypatch):
    # on twisted problems, the parsed tau and every sub-twist are tested
    # for length zero by the O(n) window test, never by Shi's O(n^2) sum;
    # and mu is checked once, in the parsed problem, which max hands to
    # the solver: the maximal point's bound table and the reduction's
    # sub-problems are built unchecked
    import bgmu.acceptable as acceptable
    import bgmu.newton as newton
    import bgmu.reduction as reduction
    import bgmu.weyl as weyl

    inside, counted, checked = [], [], []

    def scoped(fn):
        def wrapper(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    real_length, real_mu = weyl._window_length, acceptable._check_mu
    monkeypatch.setattr(weyl, "_window_length",
                        lambda *args: counted.append(bool(inside)) or real_length(*args))
    monkeypatch.setattr(newton.Frobenius, "__new__", scoped(newton.Frobenius.__new__))
    monkeypatch.setattr(reduction, "_sub_twist", scoped(reduction._sub_twist))
    for module in (acceptable, reduction):
        monkeypatch.setattr(module, "_check_mu",
                            lambda mu, datum: checked.append(datum) or real_mu(mu, datum))
    for group, mu, sigma in TWISTED:
        checked.clear()
        code, _, err = run(capsys, "max", "--group", group, "--mu", mu, "--sigma", sigma,
                           "--strategy", "constructive")
        assert code == 0, err
        top = GroupDatum(tuple(int(b) for b in group[3:].split("*")))
        assert checked == [top], group
    assert True not in counted


def test_the_final_check_walks_only_off_the_superbasic_route(capsys, monkeypatch):
    # max walks w <= t^{x(mu)} once on the parabolic, orbit-split and
    # product-split traces, and never on an adjoint, base-superbasic
    # one, where the certificate is the proof
    import bgmu.reduction as reduction

    walks = []
    real = reduction.bruhat_leq
    monkeypatch.setattr(reduction, "bruhat_leq", lambda *args: walks.append(args) or real(*args))
    superbasic = [("gl:5", "2,1,1,0,0", "superbasic:2/5"), ("pgl:5", "3,1,0,0,0", "superbasic:3/5"),
                  ("gl:64", ",".join(map(str, range(63, -1, -1))), "superbasic:33/64")]
    for problems, want in ((TWISTED, 1), (superbasic, 0)):
        for group, mu, sigma in problems:
            walks.clear()
            code, out, err = run(capsys, "max", "--group", group, "--mu", mu, "--sigma", sigma,
                                 "--strategy", "constructive")
            assert code == 0, err
            kinds = [step["kind"] for step in json.loads(out)["trace"]]
            assert (kinds == ["adjoint", "base-superbasic"]) == (want == 0), group
            assert len(walks) == want, group


def test_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BGMU_GUARD", "2")
    code, _, err = run(capsys, "adm", "--group", "gl:3", "--mu", "1,0,0")
    assert code == 1 and "guard" in err


BIG = 12345678901234567890  # 20 digits
CYCLE_64 = ("gl:" + "*".join(["2"] * 64),
            "tau=t[%s]*cyc(1,2);sigma0=%s" % (",".join(["1"] + ["0"] * 127),
                                               ",".join(map(str, list(range(2, 65)) + [1]))))
# one walking trace kind per row, with mu = (e, 0, ..., 0) of length
# (n - 1) e on the one block of rank 4 and e on a block of rank 2: a
# parabolic descent on gl and on pgl, a block swap, a flipped swap, a
# 3-cycle and a 64-block cycle of blocks
WALKING = [
    ("gl:4", "tau=t[1,1,0,0]*cyc(1,3)*cyc(2,4)", 3),
    ("pgl:4", "tau=t[1,1,0,0]*cyc(1,3)*cyc(2,4)", 3),
    ("gl:2*2", "tau=t[1,0,0,0]*cyc(1,2);sigma0=2,1", 1),
    ("gl:2*2", "sigma0=2,-1", 1),
    ("gl:2*2*2", "tau=t[1,0,0,0,0,0]*cyc(1,2);sigma0=2,3,1", 1),
    CYCLE_64 + (1,),
]


@pytest.mark.parametrize("group, sigma, per_entry", WALKING,
                         ids=["gl", "pgl", "swap", "flip", "3-cycle", "64-cycle"])
def test_a_walk_that_grows_with_the_entries_is_refused_at_once(capsys, group, sigma, per_entry):
    # the walks take about len(t^mu) steps, linear in the entries: a
    # 20-digit entry is refused by the walk guard before any walk, in one
    # line, while the same trace with small entries answers
    from bgmu.reduction import WALK_BUDGET, _stage

    n = cli._parse_group(group).n
    for strategy in ("auto", "constructive"):
        small = ["max", "--group", group, "--mu", ",".join(["1"] + ["0"] * (n - 1)),
                 "--sigma", sigma, "--strategy", strategy]
        assert run(capsys, *small)[0] == 0
        _stage.cache_clear()
        start = time.perf_counter()
        code, out, err = run(capsys, "max", "--group", group,
                             "--mu", ",".join([str(BIG)] + ["0"] * (n - 1)),
                             "--sigma", sigma, "--strategy", strategy)
        assert time.perf_counter() - start < 0.2
        assert (code, out) == (1, "")
        assert err == ("bgmu: guard exceeded: walk guard: len(t^mu) * n ="
                       f" {per_entry * BIG} * {n} > {WALK_BUDGET}\n")


# --- the parsed-twist memo ----------------------------------------------------

def test_an_equal_twist_text_returns_the_same_twist():
    # equal (text, datum, normalize) give the identical object, though
    # each call parses its own, equal datum
    for group, sigma, normalize in [("gl:3", "superbasic:1/3", False),
                                    ("gl:3*3", "tau=t[1,0,0,0,0,0]*cyc(1,2,3);sigma0=2,1", True)]:
        first = cli._parse_sigma(sigma, cli._parse_group(group), normalize)
        assert cli._parse_sigma(sigma, cli._parse_group(group), normalize) is first
    # normalize is part of the key: it changes a twist of nonzero kappa
    datum = cli._parse_group("gl:2*2")
    sigma = "tau=t[1,0,0,0]*cyc(1,2);sigma0=2,1"
    assert cli._parse_sigma(sigma, datum, True) != cli._parse_sigma(sigma, datum, False)


MEMO_COMMANDS = [
    ["max", "--group", "gl:6", "--mu", "2,1,1,0,0,0",
     "--sigma", "tau=t[1,1,0,0,0,0]*cyc(1,3,5)*cyc(2,4,6)", "--strategy", "constructive"],
    ["max", "--group", "gl:3*3", "--mu", "2,1,0,1,0,0",
     "--sigma", "tau=t[1,0,0,0,0,0]*cyc(1,2,3);sigma0=2,1", "--normalize"],
    ["newton", "--group", "gl:3", "--w", "t[2,1,0]*cyc(1,2)",
     "--sigma", "tau=t[1,0,0]*cyc(1,2,3);sigma0=-1", "--normalize"],
]


@pytest.mark.parametrize("argv", MEMO_COMMANDS, ids=["max-parabolic", "max-swap", "newton-flip"])
def test_a_repeated_twist_prints_the_same_bytes(capsys, argv):
    # a repeat reads the kept twist; after the memo is cleared, and in a
    # fresh process, the twist is parsed again: all print the same bytes
    cli._parse_sigma.cache_clear()
    first = run(capsys, *argv)
    assert first[0] == 0, first[2]
    assert run(capsys, *argv) == first
    cli._parse_sigma.cache_clear()
    assert run(capsys, *argv) == first
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    fresh = subprocess.run([sys.executable, "-m", "bgmu", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == first


def test_a_malformed_twist_is_refused_on_every_call(capsys):
    # no exception is kept: each call parses the text again and refuses it
    argv = ["max", "--group", "gl:2*2", "--mu", "0,0,0,0", "--sigma", "sigma0=a,1"]
    for _ in range(2):
        assert run(capsys, *argv) == (1, "", "bgmu: bad sigma0 spec 'a,1'\n")


def test_a_twist_text_on_gl_and_on_pgl_stays_two_twists(capsys):
    gl = cli._parse_sigma("superbasic:1/3", cli._parse_group("gl:3"), False)
    pgl = cli._parse_sigma("superbasic:1/3", cli._parse_group("pgl:3"), False)
    assert gl != pgl
    assert (gl.datum.adjoint, pgl.datum.adjoint) == ((False,), (True,))
    groups = []
    for group in ("gl:3", "pgl:3", "gl:3"):
        code, out, err = run(capsys, "max", "--group", group, "--mu", "1,0,0",
                             "--sigma", "superbasic:1/3")
        assert code == 0, err
        groups.append(json.loads(out)["problem"]["group"])
    assert groups == ["gl:3", "pgl:3", "gl:3"]


def test_a_bad_group_is_refused_before_a_bad_or_kept_twist(capsys):
    # --group and --mu are parsed before --sigma, kept or not
    good = ["--sigma", "superbasic:1/3"]
    assert run(capsys, "max", "--group", "gl:3", "--mu", "1,0,0", *good)[0] == 0
    for sigma in (good, ["--sigma", "superbasic:1/2/3"]):
        for _ in range(2):
            assert run(capsys, "max", "--group", "sl:3", "--mu", "1,0,0", *sigma) == (
                1, "", "bgmu: unknown group kind 'sl'\n")
            assert run(capsys, "max", "--group", "gl:3", "--mu", "1,0", *sigma) == (
                1, "", "bgmu: mu must have 3 entries\n")


def test_a_repeated_twist_builds_no_twist_and_parses_no_element(capsys, monkeypatch):
    import bgmu.newton as newton

    built, parsed = [], []
    real_new, real_parse = newton.Frobenius.__new__, cli.parse_element
    monkeypatch.setattr(newton.Frobenius, "__new__",
                        lambda cls, *args: built.append(args) or real_new(cls, *args))
    monkeypatch.setattr(cli, "parse_element",
                        lambda *args: parsed.append(args) or real_parse(*args))
    twisted = ["max", "--group", "gl:3*3", "--mu", "2,1,0,1,0,0",
               "--sigma", "tau=t[1,0,0,0,0,0]*cyc(1,2,3);sigma0=2,1"]
    superbasic = ["max", "--group", "gl:5", "--mu", "2,1,1,0,0", "--sigma", "superbasic:2/5"]
    for argv in (twisted, superbasic):
        first = run(capsys, *argv)
        assert first[0] == 0, first[2]
        assert built
        built.clear()
        parsed.clear()
        assert run(capsys, *argv) == first
        assert (built, parsed) == ([], [])


# argv cases with the exit code, stdout and stderr that ``bgmu`` gave
# them while both argparse layers read every argv, with help and usage
# wrapped at 80 columns: help, usage errors from either layer, and the
# spellings that argparse resolves (an abbreviated option, a glued
# negative --mu, --option=value)
ARGV_CASES = json.loads((Path(__file__).parent / "cli_argv_cases.json").read_text())


@pytest.mark.parametrize("case", ARGV_CASES, ids=[case["id"] for case in ARGV_CASES])
def test_each_argv_prints_what_two_parses_printed(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def test_a_well_formed_command_is_parsed_once(capsys, monkeypatch):
    # a well-formed command goes straight to its own parser; the
    # top-level parser runs only for what that parser leaves unread
    top = cli._parser()
    parsed = []
    real = cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    argv = ["max", "--group", "gl:3", "--mu", "1,0,0", "--sigma", "superbasic:1/3",
            "--strategy", "constructive"]
    assert run(capsys, *argv)[0] == 0
    assert parsed == ["bgmu max"] and top.prog == "bgmu"
    parsed.clear()
    assert run(capsys, *argv, "extra")[0] == 1
    assert parsed == ["bgmu max", "bgmu", "bgmu max"]
