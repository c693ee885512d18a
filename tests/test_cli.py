"""Command-line surface: subcommands, formats, exit codes."""

import argparse
from pathlib import Path

import pytest

from topocompat import Graph, gray_code_cycle, graph_power, hypercube, parse_topology_spec
from topocompat import cli, compat
from topocompat.cli import parse_range, run
from topocompat.edgelist import loads, read_edge_list_path, write_edge_list_path
from oracles import chord_ring

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_table_star.csv"


class TestParseRange:
    def test_interval(self):
        assert parse_range("2..8") == range(2, 9)

    def test_single_value(self):
        assert parse_range("3") == range(3, 4)

    @pytest.mark.parametrize("text", ["5..2", "a..b", "3..", "..4", "2.5"])
    def test_malformed(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(text)


class TestPotentialCommand:
    def test_star_on_hypercube(self, capsys):
        code = run(["potential", "--task", "star", "--system", "hypercube:5", "--reach", "2"])
        assert code == 0
        assert capsys.readouterr().out == "p=16 c=0.5000\n"

    def test_star_on_hypercube_with_a_huge_reach(self, capsys):
        # reach past the dimension saturates: no sum over a trillion terms
        code = run(["potential", "--task", "star", "--system", "hypercube:5",
                    "--reach", "1000000000000"])
        assert code == 0
        assert capsys.readouterr().out == "p=32 c=1.0000\n"

    def test_ring_on_hypercube(self, capsys):
        code = run(["potential", "--task", "ring", "--system", "hypercube:8", "--reach", "1"])
        assert code == 0
        assert capsys.readouterr().out == "p=256 c=1.0000\n"

    @pytest.mark.parametrize("s", [0, 21])
    def test_hypercube_dimension_outside_the_cap_exits_two(self, s, capsys):
        code = run(["potential", "--task", "star", "--system", f"hypercube:{s}", "--reach", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: hypercube dimension must be in 1..20, got {s}\n"

    def test_ring_on_acyclic_system(self, capsys):
        code = run(["potential", "--task", "ring", "--system", "star:6", "--reach", "1"])
        assert code == 0
        assert capsys.readouterr().out == "p=0 c=0.0000\n"

    def test_ring_witness_is_gray_cycle(self, capsys):
        code = run(["potential", "--task", "ring", "--system", "hypercube:3",
                    "--reach", "1", "--witness"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "p=8 c=1.0000"
        assert lines[1] == "cycle: " + " ".join(str(v) for v in gray_code_cycle(3))

    def test_ring_witness_on_generic_system(self, capsys):
        code = run(["potential", "--task", "ring", "--system", "ring:6",
                    "--reach", "1", "--witness"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "p=6 c=1.0000"
        assert sorted(int(v) for v in lines[1].split(": ")[1].split()) == list(range(6))

    def test_star_witness_names_center_and_leaves(self, capsys):
        code = run(["potential", "--task", "star", "--system", "ring:6",
                    "--reach", "2", "--witness"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "p=5 c=0.8333"
        assert lines[1].startswith("center=0 leaves=")
        assert len(lines[1].split("leaves=")[1].split()) == 4

    def test_star_witness_builds_no_power(self, capsys, monkeypatch):
        calls = []

        def counting_power(g, reach):
            calls.append(reach)
            return graph_power(g, reach)

        monkeypatch.setattr(cli, "graph_power", counting_power)
        monkeypatch.setattr(compat, "graph_power", counting_power)
        code = run(["potential", "--task", "star", "--system", "ring:9",
                    "--reach", "3", "--witness"])
        assert code == 0
        assert capsys.readouterr().out == "p=7 c=0.7778\ncenter=0 leaves=1 2 3 6 7 8\n"
        assert calls == []

    def test_star_potential_builds_no_power(self, capsys, monkeypatch):
        calls = []

        def counting_power(g, reach):
            calls.append(reach)
            return graph_power(g, reach)

        monkeypatch.setattr(cli, "graph_power", counting_power)
        monkeypatch.setattr(compat, "graph_power", counting_power)
        code = run(["potential", "--task", "star", "--system", "ring:9", "--reach", "3"])
        assert code == 0
        assert capsys.readouterr().out == "p=7 c=0.7778\n"
        assert calls == []

    def test_ring_potential_of_ring_3000(self, capsys):
        code = run(["potential", "--task", "ring", "--system", "ring:3000", "--reach", "1"])
        assert code == 0
        assert capsys.readouterr().out == "p=3000 c=1.0000\n"

    def test_custom_file_system(self, tmp_path, capsys):
        path = tmp_path / "sys.edges"
        write_edge_list_path(hypercube(2), path)
        code = run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "1"])
        assert code == 0
        assert capsys.readouterr().out == "p=3 c=0.7500\n"

    def test_non_utf8_file_system_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bytes.edges"
        path.write_bytes(b"\xff\xfe")
        assert run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text\n"

    def test_time_limit_env_var_stops_the_star_pass(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "chord.edges"
        write_edge_list_path(chord_ring(64), path)  # the bound does not decide it
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "0.000001")
        code = run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "2"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: largest-ball pass ran out of time budget\n")

    def test_time_limit_env_var_spares_a_bound_decided_star(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ring.edges"
        write_edge_list_path(parse_topology_spec("ring:64").build(), path)
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "0.000001")
        code = run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "2"])
        assert code == 0
        assert capsys.readouterr().out == "p=5 c=0.0781\n"

    def test_time_limit_stops_the_ring_transform(self, capsys):
        code = run(["potential", "--task", "ring", "--system", "ring:64", "--reach", "2",
                    "--time-limit", "0.000001"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: reachability transform ran out of time budget\n")


class TestOneCellWhateverTheRoute:
    """``potential`` gives one answer per system, whatever route picks it."""

    @pytest.mark.parametrize("task,system", [
        ("star", "ring:5"), ("star", "hypercube:3"), ("ring", "hypercube:3"), ("ring", "ring:5"),
    ])
    @pytest.mark.parametrize("witness", [[], ["--witness"]])
    def test_bad_budget_exits_two_on_every_path(self, task, system, witness, capsys,
                                               monkeypatch):
        argv = ["potential", "--task", task, "--system", system, "--reach", "1", *witness]
        assert run([*argv, "--time-limit", "nan"]) == 2
        assert capsys.readouterr() == (
            "", "error: search budget fields must be strictly positive and finite\n")
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "abc")
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: TOPO_COMPAT_TIME_LIMIT is not a number: 'abc'\n")

    @pytest.mark.parametrize("spec", [*(f"hypercube:{s}" for s in range(1, 7)),
                                      "star:2", "complete:1", "complete:2", "ring:3"])
    @pytest.mark.parametrize("task", ["star", "ring"])
    @pytest.mark.parametrize("witness", [[], ["--witness"]])
    def test_spec_and_its_file_agree(self, spec, task, witness, tmp_path, capsys):
        path = tmp_path / "system.edges"
        write_edge_list_path(parse_topology_spec(spec).build(), path)
        for reach in range(1, 5):
            outcomes = []
            for system in (spec, f"file:{path}"):
                code = run(["potential", "--task", task, "--system", system,
                            "--reach", str(reach), *witness])
                outcomes.append((code, *capsys.readouterr()))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == 0

    @pytest.mark.parametrize("task", ["star", "ring"])
    def test_table_cells_match_potential(self, task, tmp_path, capsys):
        assert run(["table", "--task", task, "--s", "1..8", "--reach", "1..4"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 32
        for row in rows:
            fields = dict(field.split("=", 1) for field in row.split())
            s, reach = int(fields["system"].split(":")[1]), fields["reach"]
            path = tmp_path / f"h{s}.edges"
            if not path.exists():
                write_edge_list_path(hypercube(s), path)
            for system in (f"hypercube:{s}", f"file:{path}"):
                assert run(["potential", "--task", task, "--system", system,
                            "--reach", reach]) == 0
                assert capsys.readouterr().out == f"p={fields['p']} c={fields['c']}\n"

    @pytest.mark.parametrize("argv", [
        ["potential", "--task", "star", "--system", "hypercube:20", "--reach", "5"],
        ["potential", "--task", "ring", "--system", "hypercube:20", "--reach", "1", "--witness"],
        ["table", "--task", "star", "--s", "1..20", "--reach", "1..20"],
        ["table", "--task", "ring", "--s", "1..20", "--reach", "1..20"],
    ])
    def test_closed_forms_build_no_graph(self, argv, capsys, monkeypatch):
        built = []
        init, from_neighbors = Graph.__init__, Graph._from_neighbors.__func__

        def counting_init(self, n, edges):
            built.append(n)
            init(self, n, edges)

        def counting_from_neighbors(cls, neighbors):
            built.append(len(neighbors))
            return from_neighbors(cls, neighbors)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        monkeypatch.setattr(Graph, "_from_neighbors", classmethod(counting_from_neighbors))
        assert run(argv) == 0
        assert capsys.readouterr().out
        assert built == []


class TestTableCommand:
    def test_markdown_reference_table(self, capsys):
        code = run(["table", "--task", "star", "--s", "2..8", "--reach", "1..3",
                    "--format", "markdown"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "| task=star | s=2 | s=3 | s=4 | s=5 | s=6 | s=7 | s=8 |"
        assert lines[2] == "| n | 4 | 8 | 16 | 32 | 64 | 128 | 256 |"
        assert len(lines) == 6  # header, rule, n row, three reach rows
        cells = [c.strip() for row in lines[3:] for c in row.split("|")[2:-1]]
        assert len(cells) == 21

    def test_csv_matches_golden_file(self, capsys):
        code = run(["table", "--task", "star", "--s", "2..8", "--reach", "1..3",
                    "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_CSV.read_text()

    def test_text_format(self, capsys):
        code = run(["table", "--task", "star", "--s", "3", "--reach", "1"])
        assert code == 0
        assert capsys.readouterr().out == "task=star system=hypercube:3 reach=1 n=8 p=4 c=0.5000\n"

    def test_ring_table(self, capsys):
        code = run(["table", "--task", "ring", "--s", "2..4", "--reach", "1"])
        assert code == 0
        for line in capsys.readouterr().out.strip().split("\n"):
            assert "c=1.0000" in line

    def test_empty_range_rejected(self, capsys):
        assert run(["table", "--task", "star", "--s", "5..2", "--reach", "1"]) == 2

    @pytest.mark.parametrize("s,reach,err", [
        ("21", "1", "hypercube dimension must be in 1..20, got 21"),
        ("1..100000", "1", "hypercube dimension must be in 1..20, got 21"),
        ("1", "1..100000", "reachability must be in 1..20, got 21"),
        ("1..100000", "1..100000", "hypercube dimension must be in 1..20, got 21"),
        ("1..1000000000000000000000", "1..3", "hypercube dimension must be in 1..20, got 21"),
    ])
    def test_values_above_twenty_exit_two_at_once(self, s, reach, err, capsys):
        assert run(["table", "--task", "star", "--s", s, "--reach", reach]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")


class TestEmbedCommand:
    def test_odd_ring_reports_no_embedding(self, capsys):
        code = run(["embed", "--task", "ring:3", "--system", "hypercube:3", "--reach", "1"])
        assert code == 0
        assert capsys.readouterr().out == "no embedding\n"

    def test_found_with_witness(self, capsys):
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:2",
                    "--reach", "1", "--witness"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "embedding found"
        mapping = [int(line.split(" -> ")[1]) for line in lines[1:]]
        host = hypercube(2)
        assert sorted(mapping) == [0, 1, 2, 3]
        for i in range(4):
            assert host.has_edge(mapping[i], mapping[(i + 1) % 4])

    def test_reach_widens_the_host(self, capsys):
        assert run(["embed", "--task", "ring:3", "--system", "hypercube:3", "--reach", "2"]) == 0
        assert capsys.readouterr().out == "embedding found\n"

    def test_budget_exhaustion_exits_one(self, capsys):
        code = run(["embed", "--task", "ring:7", "--system", "hypercube:4",
                    "--reach", "2", "--max-nodes", "3"])
        assert code == 1
        assert "budget" in capsys.readouterr().err.lower()

    def test_absence_proof_needs_no_budget(self, capsys):
        # an odd ring into a hypercube is proved absent without a search
        code = run(["embed", "--task", "ring:7", "--system", "hypercube:4",
                    "--reach", "1", "--max-nodes", "3"])
        assert code == 0
        assert capsys.readouterr().out == "no embedding\n"

    def test_host_cap_exits_one_and_can_be_raised(self, capsys):
        code = run(["embed", "--task", "ring:3", "--system", "ring:65", "--reach", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err
        code = run(["embed", "--task", "ring:3", "--system", "ring:65", "--reach", "2",
                    "--max-host-order", "65"])
        assert code == 0
        assert capsys.readouterr().out == "embedding found\n"

    def test_host_cap_checked_before_the_power_is_built(self, capsys, monkeypatch):
        calls = []

        def counting_power(g, reach):
            calls.append(reach)
            return graph_power(g, reach)

        monkeypatch.setattr(cli, "graph_power", counting_power)
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:13", "--reach", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: host order 8192 exceeds budget cap 64\n"
        assert calls == []

    def test_time_limit_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "0.000001")
        code = run(["embed", "--task", "complete:7", "--system", "hypercube:5", "--reach", "2"])
        assert code == 1

    def test_time_limit_env_var_spares_absence_proof(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "0.000001")
        code = run(["embed", "--task", "ring:11", "--system", "hypercube:5", "--reach", "1"])
        assert code == 0
        assert capsys.readouterr().out == "no embedding\n"

    def test_time_limit_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "0.000001")
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:2",
                    "--reach", "1", "--time-limit", "60"])
        assert code == 0

    def test_bad_env_var_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "soon")
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:2", "--reach", "1"])
        assert code == 2

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    def test_non_finite_env_var_exits_two(self, limit, capsys, monkeypatch):
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", limit)
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:2", "--reach", "1"])
        assert code == 2

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    def test_non_finite_time_limit_flag_exits_two(self, limit, capsys):
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:2",
                    "--reach", "1", "--time-limit", limit])
        assert code == 2


class TestGenAndPower:
    SPECS = ["hypercube:3", "ring:5", "star:4", "complete:4"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_gen_round_trip(self, spec, tmp_path, capsys):
        out = tmp_path / "g.edges"
        assert run(["gen", spec, "-o", str(out)]) == 0
        assert read_edge_list_path(out) == parse_topology_spec(spec).build()

    def test_gen_from_file_spec(self, tmp_path):
        src = tmp_path / "src.edges"
        write_edge_list_path(hypercube(2), src)
        out = tmp_path / "copy.edges"
        assert run(["gen", f"file:{src}", "-o", str(out)]) == 0
        assert read_edge_list_path(out) == hypercube(2)

    def test_gen_to_stdout(self, capsys):
        assert run(["gen", "ring:4"]) == 0
        assert loads(capsys.readouterr().out) is not None

    @pytest.mark.parametrize("spec", SPECS)
    def test_power_reach_one_equals_gen_byte_for_byte(self, spec, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        assert run(["gen", spec, "-o", str(a)]) == 0
        assert run(["power", spec, "--reach", "1", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_power_squares_the_graph(self, capsys):
        assert run(["power", "hypercube:2", "--reach", "2"]) == 0
        assert loads(capsys.readouterr().out) == graph_power(hypercube(2), 2)

    def test_power_reach_zero_exits_two(self, capsys):
        assert run(["power", "ring:5", "--reach", "0"]) == 2

    def test_missing_input_file_exits_two(self, capsys):
        assert run(["gen", "file:/nonexistent/g.edges"]) == 2

    @pytest.mark.parametrize("spec", ["ring:99999999999999999999", "star:1048577",
                                      "complete:4580"])
    def test_gen_above_the_order_cap_exits_two(self, spec, capsys):
        assert run(["gen", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "cap" in captured.err


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["gen", "mesh:3"],
            ["potential", "--task", "mesh", "--system", "ring:5", "--reach", "1"],
            ["potential", "--task", "star", "--system", "ring:5", "--reach", "0"],
            ["embed", "--task", "ring:3", "--system", "ring:5"],
            ["table", "--task", "star", "--s", "x..y", "--reach", "1"],
        ],
    )
    def test_exit_two(self, argv, capsys):
        assert run(argv) == 2
