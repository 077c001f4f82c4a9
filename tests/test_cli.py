"""End-to-end CLI behaviour: output contracts, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from onckesten import cli
from onckesten.fock import POSITION_MOMENT_LIMIT
from onckesten.partitions import PAIR_ENUM_LIMIT

R3 = "1 + p + q + 1/2p^2 + pq + 1/2q^2"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_moments_symbolic(capsys):
    code, doc = run_json(capsys, "moments", "--n", "3")
    assert code == 0
    assert doc["schema"] == "onc-kesten/1"
    assert doc["agreement"] is True
    assert len(doc["routes"]) == 5
    assert set(doc["routes"].values()) == {R3}


def test_moments_evaluated(capsys):
    code, doc = run_json(capsys, "moments", "--n", "2", "--p", "1/2", "--q", "1/3")
    assert code == 0
    assert set(doc["routes"].values()) == {"17/12"}


def test_moments_single_route(capsys):
    code, doc = run_json(capsys, "moments", "--n", "4", "--route", "delaney")
    assert code == 0 and list(doc["routes"]) == ["delaney"]


def test_enumerate_pairs_golden(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["blocks"] for r in rows] == [
        "[{1,2},{3,4}]",
        "[{3,4},{1,2}]",
        "[{1,4},{2,3}]",
        "[{2,3},{1,4}]",
    ]
    assert [r["weight"] for r in rows] == ["1", "1", "q", "p"]
    assert [(r["e"], r["eprime"]) for r in rows] == [(0, 0), (0, 0), (0, 1), (1, 0)]
    assert all(set(r) == {"blocks", "e", "eprime", "weight", "inner", "outer", "covered"} for r in rows)


def test_enumerate_general_includes_singletons(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "2", "--general")
    blocks = [json.loads(line)["blocks"] for line in out.splitlines()]
    assert "[{1},{2}]" in blocks and "[{1,2}]" in blocks
    assert len(blocks) == 3  # {1,2}; {1},{2} in two orders


def test_poisson_output(capsys):
    assert run_cli(capsys, "poisson", "--n", "1") == (0, "T\n")
    code, out = run_cli(capsys, "poisson", "--n", "3")
    assert code == 0
    assert out == "T + 2T^2 + 1/2pT^2 + 1/2qT^2 + T^3\n"


def test_brownian_worked_example(capsys):
    code, doc = run_json(
        capsys,
        "brownian",
        "--signature", "f f g g f f",
        "--intervals", "g=[0,1],f=[1,2]",
    )
    assert code == 0
    assert doc["equal"] is True
    assert doc["operator_route"] == "1 + 1/2p^2 + 1/2pq"
    assert doc["combinatorial_route"] == doc["operator_route"]
    assert doc["intervals"] == {"g": ["0", "1"], "f": ["1", "2"]}


@pytest.mark.parametrize("signature", ["f f g g " * 3, "f f g g " * 3 + "g f"], ids=["12", "14"])
def test_brownian_accepts_what_the_pair_enumeration_accepts(capsys, signature):
    # both routes share the limit of 14 positions
    assert POSITION_MOMENT_LIMIT == PAIR_ENUM_LIMIT
    code, doc = run_json(capsys, "brownian", "--signature", signature, "--intervals", "g=[0,1],f=[1,2]")
    assert code == 0 and doc["equal"] is True


def test_clt_golden_rationals(capsys):
    code, doc = run_json(
        capsys, "clt", "--N", "100", "--moment", "6", "--p", "1/2", "--q", "1/3"
    )
    assert code == 0
    assert doc["value"] == "176161/80000"
    assert doc["limit"] == "157/72"
    assert doc["distance"] == "15449/720000"


def test_clt_symbolic_distance_is_null(capsys):
    code, doc = run_json(capsys, "clt", "--N", "10", "--moment", "2")
    assert code == 0 and doc["value"] == "1" and doc["distance"] is None


def test_quadcheck_passes_and_fails_by_tolerance(capsys):
    code, doc = run_json(capsys, "quadcheck", "--p", "1", "--q", "1", "--nmax", "6")
    assert code == 0 and doc["ok"] is True
    assert [row["exact"] for row in doc["rows"]] == ["0", "1", "0", "2", "0", "5"]
    assert all(row["abs_error"] <= 1e-8 for row in doc["rows"])

    code, doc = run_json(
        capsys, "quadcheck", "--p", "1", "--q", "1", "--nmax", "6", "--tol", "1e-30"
    )
    assert code == 1 and doc["ok"] is False


def test_quadcheck_near_critical_ray(capsys):
    # p + q = 1 - 1e-6: the integrand's denominator nearly vanishes at the edge
    code, doc = run_json(capsys, "quadcheck", "--p", "1/2", "--q", "499999/1000000", "--nmax", "12")
    assert code == 0 and doc["ok"] is True and len(doc["rows"]) == 12


def test_density_sections_with_atoms(capsys):
    code, out = run_cli(capsys, "density", "--p", "3/10", "--q", "1/5", "--grid", "5")
    assert code == 0
    density_part, atom_part = out.split("\n\n")
    dlines = density_part.splitlines()
    assert dlines[0] == "x,density" and len(dlines) == 6
    xs = [float(line.split(",")[0]) for line in dlines[1:]]
    assert xs[0] == -1.0 and xs[-1] == 1.0  # edge = sqrt(2 * 1/2)
    alines = atom_part.splitlines()
    assert alines[0] == "atom,mass" and len(alines) == 3


def test_density_near_critical_atoms(capsys):
    # p + q = 1 - 1e-9: the atoms sit just outside the edge with mass ~ 1e-9
    code, out = run_cli(capsys, "density", "--p", "1/2", "--q", "499999999/1000000000", "--grid", "5")
    assert code == 0
    alines = out.split("\n\n")[1].splitlines()
    assert alines[0] == "atom,mass" and len(alines) == 3
    masses = [float(line.split(",")[1]) for line in alines[1:]]
    assert all(abs(m - 1e-9) < 1e-12 for m in masses)


def test_density_no_atoms_above_unit_weight(capsys):
    code, out = run_cli(capsys, "density", "--p", "1", "--q", "1", "--grid", "3")
    assert code == 0
    assert out.split("\n\n")[1].splitlines() == ["atom,mass"]


def test_density_boolean_limit_is_purely_atomic(capsys):
    # p = 1e-400 rounds to the float 0.0: the same boolean point
    for p in ("0", "1e-400"):
        code, out = run_cli(capsys, "density", "--p", p, "--q", "0")
        assert code == 0
        density_part, atom_part = out.split("\n\n")
        assert density_part.splitlines() == ["x,density"]
        alines = atom_part.splitlines()
        assert len(alines) == 3 and alines[1].endswith(",0.5") and alines[2].endswith(",0.5")


def test_verify_report(capsys):
    code, doc = run_json(capsys, "verify")
    assert code == 0 and doc["ok"] is True
    assert doc["order"] == 6 and doc["seed"] == 7
    assert len(doc["checks"]) >= 12
    assert all(c["status"] == "pass" for c in doc["checks"])
    names = {e["name"] for e in doc["paper_errata"]}
    assert len(doc["paper_errata"]) == 2
    for entry in doc["paper_errata"]:
        assert entry["published"] and entry["computed"] and entry["published"] != entry["computed"]


def test_verify_at_order_one(capsys):
    # the series identities start at order 2; the check runs them there
    code, doc = run_json(capsys, "verify", "--order", "1")
    assert code == 0 and doc["ok"] is True and doc["order"] == 1
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_byte_determinism(capsys):
    for argv in (
        ["enumerate", "--n", "4"],
        ["density", "--p", "3/10", "--q", "1/5", "--grid", "7"],
        ["moments", "--n", "3"],
    ):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--n", "0"],
        ["moments", "--n", "2", "--p", "1/2"],  # --q missing
        ["moments", "--n", "2", "--p", "x/y", "--q", "1"],
        ["moments", "--n", "2", "--p", "-1", "--q", "1"],
        ["density", "--p", "1", "--q", "1", "--grid", "1"],
        ["density", "--p", "1/0", "--q", "1"],
        ["quadcheck", "--p", "1", "--q", "1", "--nmax", "0"],
        ["brownian", "--signature", "f f", "--intervals", "nonsense"],
        ["brownian", "--signature", "f f", "--intervals", "g=[0,1]"],  # name not declared
        ["enumerate", "--n", "16"],  # exceeds the guard without --override-limits
        ["clt", "--N", "10", "--moment", "8"],
        ["verify", "--order", "9"],
        ["nosuchcommand"],
        ["poisson", "--n", "9"],  # exceeds the general enumeration guard
        ["brownian", "--signature", "f f g g " * 4, "--intervals", "g=[0,1],f=[1,2]"],  # 16 positions
        ["enumerate", "--n", "0"],
        ["poisson", "--n", "0"],
        ["clt", "--N", "0", "--moment", "4"],
        ["clt", "--N", "10", "--moment", "0"],
        ["density", "--p", "1e400", "--q", "1"],  # beyond the float range
        ["quadcheck", "--p", "1e400", "--q", "1"],
        ["quadcheck", "--p", "1e300", "--q", "1"],  # (1 - s)^2 overflows
        ["density", "--p", "1e308", "--q", "1"],  # 2s overflows
        ["brownian", "--signature", "f f", "--intervals", "f=[0,1],f=[2,5]"],  # f declared twice
        ["quadcheck", "--p", "1", "--q", "1", "--tol", "nan"],
        ["quadcheck", "--p", "1", "--q", "1", "--tol", "-1"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_unpaired_p_exits_before_computing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("moment_report ran before the --p/--q check")

    monkeypatch.setattr(cli.moments, "moment_report", refuse)
    with pytest.raises(SystemExit) as info:
        cli.main(["moments", "--n", "7", "--p", "1/2"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_failed_computation_exits_one_without_traceback(capsys):
    # an accepted s far from 1 whose quadrature cannot reach the tolerance
    code = cli.main(["quadcheck", "--p", "1e150", "--q", "1", "--nmax", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1 and "best estimate" in err


def test_size_guard_names_the_override_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["clt", "--N", "10", "--moment", "8"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "n = 8 exceeds the limit 6" in err and "--override-limits" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["enumerate", "--n", "8"], "e5c2c1710b470d52fc16b356195b9c135221196932ef11822af8f2cbc67a3923"),
        (["enumerate", "--n", "6", "--general"], "73ea26922d2d93394b8f1e349fe6032f08cb9a25e45151f6a4114c6a0242f49a"),
        (["enumerate", "--n", "12"], "e751b6536ddd54f44b6ba8e39cdfddcb3c33df522a19e9d933f38a2d5f8a2b8b"),
        (["enumerate", "--n", "8", "--general"], "80e1f2db10be8f2d37379e89a8ea474a14914b27d6e69cb744e2ae4cc77800e3"),
        (["moments", "--n", "7", "--route", "enum"], "1ef2f964be95156273fbb5d7cc27818b4ccafd7d3176144e7a50f4b745c629a1"),
        (["poisson", "--n", "8"], "73e4fbe194c36b2176c4e4e679d8ea8bfd8d5771722bfee8fd861176599059c1"),
        (
            ["brownian", "--signature", "f f g g f f g g", "--intervals", "g=[0,1],f=[1,5/2]"],
            "ed8bbbae9e600317a709212ee5fb4426ecbdf178085cfdd54b1a864e9b2daae4",
        ),
    ],
    ids=["enumerate-8", "enumerate-6-general", "enumerate-12", "enumerate-8-general", "moments-7-enum", "poisson-8", "brownian-two-intervals"],
)
def test_stdout_golden_digests(capsys, argv, digest):
    # sha256 of the byte-reproducible stdout, frozen at the default limits
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [["enumerate", "--n", "10"], ["enumerate", "--n", "7", "--general"]])
def test_enumerate_rows_are_canonical_json(capsys, argv):
    # the rows are assembled by hand; each must read back to the same text
    code, out = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines and all(json.dumps(json.loads(line)) == line for line in lines)


def test_closed_pipe_exits_one_without_traceback():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "onckesten.cli", "enumerate", "--n", "12"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # the listing is far larger than a pipe buffer
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert json.loads(first)["blocks"] == "[{1,2},{3,4},{5,6},{7,8},{9,10},{11,12}]"
    assert err == b""  # no traceback, no message


def test_benchmark_tracer_installs():
    # perfbench/spans.py rebinds package names by name; a rename breaks the traced run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    code = "import spans; spans.install(spans.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_coloring_counter_keeps_its_meaning():
    # the traced run counts k! colorings per plain base with an edge and
    # prod |g|! per adapted base, however the histogram is computed
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    assignment = (0, 1, 1, 0, 0, 1, 1, 0)
    code = (
        "import spans; tracer = spans.Tracer(); spans.install(tracer)\n"
        "from fractions import Fraction\n"
        "from onckesten import moments\n"
        "from onckesten.partitions import IntervalSignature\n"
        "moments.r_by_enumeration(5)\n"
        f"moments.mixed_moment_brownian(IntervalSignature((Fraction(1), Fraction(2)), {assignment}))\n"
        "print(tracer.counts['moments.colorings'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    plain = sum(math.factorial(5) for blocks in oracles.nc_pair_partitions(10) if oracles.forest_edges(blocks))
    grouped = 0
    for blocks in oracles.nc_pair_partitions(len(assignment)):
        ranks = [{assignment[x - 1] for x in b} for b in blocks]
        if all(len(r) == 1 for r in ranks):
            grouped += math.prod(math.factorial(sum(r == {i} for r in ranks)) for i in (0, 1))
    assert plain and grouped
    assert int(proc.stdout) == plain + grouped


def test_benchmark_tracer_sees_the_compound_bases():
    # poisson_moment streams its bases through the enumerate_nc binding the tracer wraps
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    code = (
        "import spans; tracer = spans.Tracer(); spans.install(tracer)\n"
        "from onckesten import moments\n"
        "moments.poisson_moment(6)\n"
        "print(tracer.counts['partitions.bases'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 132  # Catalan(6)


def test_benchmark_operator_counter_sees_every_fock_step():
    # the traced run counts every create, annihilate and gauge call, whichever routine makes it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    code = (
        "import spans; tracer = spans.Tracer(); spans.install(tracer)\n"
        "from onckesten.fock import FockEngine, parse_word, position_moment\n"
        "from onckesten.partitions import IntervalSignature\n"
        "FockEngine.poisson().word_vacuum_moment(parse_word('a*na'))\n"
        "print(tracer.counts['fock.operator_calls'])\n"
        "position_moment(IntervalSignature.single(2))\n"
        "print(tracer.counts['fock.operator_calls'])\n"
        "FockEngine.brownian([(0, 1), (2, 3)]).word_vacuum_moment((('a*', 1), ('a*', 0), ('a', 0), ('a', 1)))\n"
        "print(tracer.counts['fock.operator_calls'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "7", "11"]
