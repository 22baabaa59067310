"""Instance file format, path reconstruction, and the command-line interface."""

import csv
import json
import os
import sys

import pytest

from conftest import c4_instance, random_weights, theta_instance
from trackpaths.cli import main
from trackpaths.generators import grid
from trackpaths.graph import CapExceededError, Graph, Instance
from trackpaths.io import (
    ParseError,
    ReconstructionError,
    parse_instance,
    reconstruct_path,
    render_instance,
)
from trackpaths.verify import verify_by_paths

C4_TEXT = """\
# a four-cycle
p track 4 4
s 1
t 3
e 1 2
e 2 3
e 3 4
e 4 1
"""


def test_parse_c4():
    inst = parse_instance(C4_TEXT)
    assert inst.graph.n == 4 and inst.graph.m == 4
    assert (inst.s, inst.t) == (0, 2)
    assert inst.is_unit_weighted()


def test_parse_weights_and_render_roundtrip():
    text = C4_TEXT + "w 2 7\nw 4 3/2\n"
    inst = parse_instance(text)
    assert str(inst.weights[1]) == "7"
    assert str(inst.weights[3]) == "3/2"
    again = parse_instance(render_instance(inst))
    assert again == inst


def test_render_roundtrip_random():
    inst = random_weights(theta_instance(), seed=3)
    assert parse_instance(render_instance(inst)) == inst


def test_parse_errors_carry_line_numbers():
    bad = C4_TEXT.replace("e 4 1", "e 1 1")
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "line" in str(err.value)
    for broken in (
        C4_TEXT.replace("p track 4 4", "p track 4 5"),
        C4_TEXT.replace("s 1\n", ""),
        C4_TEXT.replace("e 4 1", "e 4 9"),
        C4_TEXT + "e 1 2\n",
        C4_TEXT.replace("t 3", "t 1"),
    ):
        with pytest.raises(ParseError):
            parse_instance(broken)


def test_reconstruct_examples():
    inst = c4_instance()
    assert reconstruct_path(inst, {1}, [1]) == [0, 1, 2]
    assert reconstruct_path(inst, {1}, []) == [0, 3, 2]
    with pytest.raises(ReconstructionError):
        reconstruct_path(inst, set(), [])  # not a tracking set
    with pytest.raises(ReconstructionError):
        reconstruct_path(inst, {1}, [1, 1])  # no such path


def test_reconstruct_and_verify_a_long_path_without_recursion(tmp_path, capsys):
    # one s-t path through 1,200 vertices: enumerating it must not recurse
    limit = sys.getrecursionlimit()
    n = 1200
    inst = Instance(Graph(n, [(v, v + 1) for v in range(n - 1)]), 0, n - 1)
    assert verify_by_paths(inst, set()).valid
    assert reconstruct_path(inst, set(), []) == list(range(n))
    f = tmp_path / "long.txt"
    f.write_text(render_instance(inst))
    assert main(["reconstruct", str(f), "--trackers", "", "--sequence", ""]) == 0
    assert json.loads(capsys.readouterr().out)["path"] == list(range(1, n + 1))
    assert sys.getrecursionlimit() == limit
    # more paths than the cap: the cap error comes before any answer
    k12 = Instance(Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)]), 0, 11)
    with pytest.raises(CapExceededError):
        reconstruct_path(k12, set(range(12)), [0, 11], cap=50)


@pytest.fixture()
def c4_file(tmp_path):
    f = tmp_path / "c4.txt"
    f.write_text(C4_TEXT)
    return str(f)


def test_cli_solve_exact(c4_file, capsys):
    assert main(["solve", c4_file, "--method", "exact"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trackers"] == [2]
    assert out["size"] == 1 and out["valid"] is True
    assert out["weight"] == "1"


def test_cli_solve_all_methods(c4_file, capsys):
    for method in ("greedy", "bg"):
        assert main(["solve", c4_file, "--method", method]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True


def test_cli_eptas_needs_planar(c4_file, capsys, tmp_path):
    assert main(["solve", c4_file, "--method", "eptas", "--r", "9"]) == 2
    capsys.readouterr()
    assert (
        main(
            ["--declared-class", "planar", "solve", c4_file, "--method", "eptas", "--r", "9"]
        )
        == 0
    )
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_cli_verify(c4_file, capsys):
    assert main(["verify", c4_file, "--trackers", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert main(["verify", c4_file, "--trackers", "1"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False and report["witness"]


def test_cli_reduce_and_kernel(c4_file, capsys):
    assert main(["reduce", c4_file]) == 0
    reduced = parse_instance(capsys.readouterr().out)
    assert reduced.graph.n == 4
    assert main(["kernel", c4_file, "--k", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["decision"] == "trivial_no"


def test_cli_reconstruct(c4_file, capsys):
    assert main(["reconstruct", c4_file, "--trackers", "2", "--sequence", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["path"] == [1, 2, 3]
    assert main(["reconstruct", c4_file, "--trackers", "2", "--sequence", "2,2"]) == 3


def test_cli_rdiv(c4_file, capsys):
    assert main(["rdiv", c4_file, "--r", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == 4 and out["regions"]


def test_cli_parse_failure_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("p track 2 1\ns 1\nt 2\ne 1 1\n")
    assert main(["solve", str(f), "--method", "exact"]) == 2
    assert main(["solve", str(tmp_path / "absent.txt"), "--method", "exact"]) == 2


def _no_path_file(tmp_path):
    # s on a 20-cycle, t on an edge of its own: 22 vertices, no s-t path
    edges = [(v, v % 20 + 1) for v in range(1, 21)] + [(21, 22)]
    f = tmp_path / "nopath.txt"
    f.write_text(
        f"p track 22 {len(edges)}\ns 1\nt 22\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    )
    return str(f)


def test_cli_solve_without_an_st_path_returns_the_empty_set(tmp_path, capsys):
    nopath = _no_path_file(tmp_path)
    for method in ("exact", "greedy", "bg", "eptas"):
        argv = ["--declared-class", "planar", "solve", nopath, "--method", method]
        assert main(argv) == 0, method
        out = json.loads(capsys.readouterr().out)
        assert out["trackers"] == [] and out["valid"] is True, method
        assert out["weight"] == "0" and out["lower_bound"] == 0, method
    # the cycle verifier's side (more than 14 vertices) agrees
    assert main(["verify", nopath, "--trackers", ""]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_cli_kernel_without_an_st_path_is_a_yes_kernel(tmp_path, capsys):
    assert main(["kernel", _no_path_file(tmp_path), "--k", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"decision": "kernel", "k": 0, "kernel": None, "reason": None}


def test_cli_precondition_errors_are_not_parse_errors(tmp_path, capsys, monkeypatch, c4_file):
    from trackpaths import cli
    from trackpaths.graph import NotReducedError

    # Rule 1 needs an s-t path
    assert main(["reduce", _no_path_file(tmp_path)]) == 1
    # an r-division needs a connected graph
    split = tmp_path / "split.txt"
    split.write_text("p track 4 2\ns 1\nt 2\ne 1 2\ne 3 4\n")
    assert main(["rdiv", str(split), "--r", "4"]) == 1

    # a solver that meets an unreduced graph
    def unreduced(instance):
        raise NotReducedError("not Rule-1 reduced")

    monkeypatch.setattr(cli, "approx_logn_weighted", unreduced)
    assert main(["solve", c4_file, "--method", "greedy"]) == 1
    assert "not Rule-1 reduced" in capsys.readouterr().err


def test_cli_bench(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--corpus",
            "er:n=8,p=0.4,count=2;theta:arms=3,len=1",
            "--methods",
            "exact,greedy",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 2  # header + 3 instances x 2 methods
    header = lines[0].split(",")
    assert "method" in header and "status" in header
    # eptas needs a planar declaration: on a mixed corpus its general rows
    # are skipped, and every solved row reports its own kernel and counts
    assert main(
        [
            "bench",
            "--corpus",
            "er:n=8,p=0.4,count=1;grid:w=3",
            "--methods",
            "greedy,eptas",
            "--out",
            str(out_csv),
        ]
    ) == 0
    with open(out_csv, newline="") as fh:
        rows = {(r["class"], r["method"]): r for r in csv.DictReader(fh)}
    assert len(rows) == 4
    skipped = rows[("general", "eptas")]
    assert skipped["status"] == "skipped:class"
    assert skipped["size"] == skipped["kernel_n"] == skipped["B"] == ""
    for (_, method), row in rows.items():
        if row is skipped:
            continue
        assert row["status"] == "ok" and int(row["kernel_n"]) > 2, row
        assert (row["cycles"] != "") == (method == "greedy"), row
        assert (row["B"] != "") == (method == "eptas"), row


def test_cli_verify_large_unreduced_instance(tmp_path, capsys):
    # a 6x6 grid with a pendant vertex on vertex 8: 37 vertices, not
    # Rule-1-reduced, and too many s-t paths for the path verifier
    from trackpaths.generators import grid
    from trackpaths.graph import Graph, Instance

    g = grid(6, 6)
    inst = Instance(Graph(37, list(g.graph.edges) + [(7, 36)]), g.s, g.t)
    f = tmp_path / "grid_pendant.txt"
    f.write_text(render_instance(inst))
    # the set approx_logn_weighted returns on this instance
    greedy = "2,4,5,6,7,8,9,10,11,13,14,15,17,18,20,21,22,23,25,26,27,28,29,30,32,34"
    assert main(["verify", str(f), "--trackers", greedy]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "witness": None}
    assert main(["verify", str(f), "--trackers", ""]) == 3
    witness = json.loads(capsys.readouterr().out)["witness"]
    cycle = [v - 1 for v in witness["cycle"]]
    assert len(set(cycle)) == len(cycle) >= 3
    assert all(inst.graph.has_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    assert witness["entry"] - 1 in cycle and witness["exit"] - 1 in cycle
