"""Command-line surface: subcommands, formats, exit codes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from topocompat import (Graph, InvalidParameter, gray_code_cycle, graph_power, hypercube,
                        parse_topology_spec)
from topocompat import cli, compat, graph, topologies
from topocompat.cli import parse_range, run
from topocompat.edgelist import loads, read_edge_list_path, write_edge_list_path
from oracles import chord_ring, is_valid_cycle, relabelled

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_table_star.csv"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestParseRange:
    def test_interval(self):
        assert parse_range("2..8") == range(2, 9)

    def test_single_value(self):
        assert parse_range("3") == range(3, 4)

    @pytest.mark.parametrize("text", ["5..2", "a..b", "3..", "..4", "2.5"])
    def test_malformed(self, text):
        with pytest.raises(InvalidParameter):
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

    def test_a_negative_first_endpoint_exits_two(self, tmp_path, capsys):
        # it must not stand for vertex 2, which would print p=2 c=0.6667
        path = tmp_path / "negative.edges"
        path.write_text("3 1\n-1 0\n")
        code = run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "1"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: vertex -1 out of range 0..2\n")

    def test_ring_on_a_long_matching_answers_zero_within_the_time_limit(self, tmp_path, capsys):
        # an acyclic host answers 0 before any n-bit mask is made
        path = tmp_path / "matching.edges"
        path.write_text("100000 50000\n" + "".join(f"{v} {v + 1}\n" for v in range(0, 100_000, 2)))
        code = run(["potential", "--task", "ring", "--system", f"file:{path}", "--reach", "1",
                    "--time-limit", "0.5"])
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

    @pytest.mark.parametrize("s,reach", [(8, 1), (10, 2)])
    def test_relabelled_hypercube_file_answers_its_ring(self, s, reach, tmp_path, capsys):
        # recognized as H_s, so no search runs; the H8 query used to run out of any budget
        path = tmp_path / "h.edges"
        write_edge_list_path(relabelled(hypercube(s), s), path)
        start = time.perf_counter()
        code = run(["potential", "--task", "ring", "--system", f"file:{path}",
                    "--reach", str(reach), "--witness"])
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 1
        head, cycle = capsys.readouterr().out.splitlines()
        assert head == f"p={1 << s} c=1.0000"
        cycle = [int(v) for v in cycle.removeprefix("cycle: ").split()]
        power = graph_power(read_edge_list_path(path), reach)
        assert len(cycle) == 1 << s and is_valid_cycle(power, cycle)

    def test_non_utf8_file_system_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bytes.edges"
        path.write_bytes(b"\xff\xfe")
        assert run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text\n"

    def test_time_limit_stops_the_star_pass(self, tmp_path, capsys):
        path = tmp_path / "chord.edges"
        write_edge_list_path(chord_ring(64), path)  # the bound does not decide it
        code = run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "2",
                    "--time-limit", "0.000001"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: largest-ball pass ran out of time budget\n")

    def test_time_limit_spares_a_bound_decided_star(self, tmp_path, capsys):
        path = tmp_path / "ring.edges"
        write_edge_list_path(parse_topology_spec("ring:64").build(), path)
        code = run(["potential", "--task", "star", "--system", f"file:{path}", "--reach", "2",
                    "--time-limit", "0.000001"])
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
    def test_bad_budget_exits_two_on_every_path(self, task, system, witness, capsys):
        argv = ["potential", "--task", task, "--system", system, "--reach", "1", *witness]
        assert run([*argv, "--time-limit", "nan"]) == 2
        assert capsys.readouterr() == (
            "", "error: search budget fields must be strictly positive and finite\n")

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

    @pytest.fixture
    def graphs_built(self, monkeypatch):
        """Names of the Graph constructors called from here on, one per graph:
        ``__init__`` and every alternative constructor, which are the
        classmethods (``_from_neighbors``, ``_from_masks``)."""
        built = []

        def counting(name, make):
            def wrapper(*args):
                built.append(name)
                return make(*args)
            return wrapper

        init = Graph.__init__
        monkeypatch.setattr(Graph, "__init__", counting("__init__", init))
        for name, attr in list(vars(Graph).items()):
            if isinstance(attr, classmethod):
                monkeypatch.setattr(Graph, name, classmethod(counting(name, attr.__func__)))
        return built

    @pytest.mark.parametrize("argv", [
        ["potential", "--task", "star", "--system", "hypercube:20", "--reach", "5"],
        ["potential", "--task", "ring", "--system", "hypercube:20", "--reach", "1", "--witness"],
        ["table", "--task", "star", "--s", "1..20", "--reach", "1..20"],
        ["table", "--task", "ring", "--s", "1..20", "--reach", "1..20"],
    ])
    def test_closed_forms_build_no_graph(self, argv, capsys, graphs_built):
        assert run(argv) == 0
        assert capsys.readouterr().out
        assert graphs_built == []

    @pytest.mark.parametrize("cap,constructor", [(4096, "_from_masks"), (0, "_from_neighbors")])
    def test_the_count_sees_every_constructor(self, cap, constructor, capsys, graphs_built,
                                              monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", cap)
        assert run(["power", "ring:8", "--reach", "2"]) == 0
        assert capsys.readouterr().out.startswith("8 16\n")
        assert graphs_built == ["_from_neighbors", constructor]


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
        assert sorted(mapping) == [0, 1, 2, 3]
        assert is_valid_cycle(hypercube(2), mapping)

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

        def counting_power(g, reach, deadline=None):
            calls.append(reach)
            return graph_power(g, reach, deadline)

        monkeypatch.setattr(cli, "graph_power", counting_power)
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:13", "--reach", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: host order 8192 exceeds budget cap 64\n"
        assert calls == []

    @pytest.fixture
    def generators_called(self, monkeypatch):
        calls = []
        for name, build in list(topologies._GENERATORS.items()):
            def counting(k, name=name, build=build):
                calls.append(name)
                return build(k)
            monkeypatch.setitem(topologies._GENERATORS, name, counting)
        return calls

    @pytest.mark.parametrize("spec,order", [
        ("hypercube:20", 1 << 20), ("hypercube:17", 1 << 17), ("ring:1048576", 1 << 20),
        ("star:65", 65), ("complete:4579", 4579),
    ])
    def test_oversized_generated_system_is_refused_from_the_spec(self, spec, order, capsys,
                                                                  generators_called):
        assert run(["embed", "--task", "ring:4", "--system", spec, "--reach", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: host order {order} exceeds budget cap 64\n")
        assert generators_called == ["ring"]  # the task's, not the system's

    def test_oversized_hypercube_power_is_refused_from_the_spec(self, capsys, generators_called):
        # a raised host cap lets H_20 through, but not its reach-2 power
        assert run(["embed", "--task", "ring:4", "--system", "hypercube:20", "--reach", "2",
                    "--max-host-order", str(1 << 20)]) == 2
        assert capsys.readouterr() == ("", "error: the reach-2 transform has more than "
                                           "10485760 edges, the cap (the edges of H_20)\n")
        assert generators_called == ["ring"]

    def test_oversized_file_system_is_refused_once_read(self, tmp_path, capsys):
        path = tmp_path / "ring65.edges"
        write_edge_list_path(topologies.ring(65), path)
        assert run(["embed", "--task", "ring:4", "--system", f"file:{path}", "--reach", "1"]) == 1
        assert capsys.readouterr() == ("", "error: host order 65 exceeds budget cap 64\n")

    @pytest.mark.parametrize("spec", ["hypercube:25", "hypercube:-1", "ring:2",
                                      "ring:99999999999999999999", "star:1", "complete:5000",
                                      "complete:0"])
    def test_invalid_generated_system_keeps_its_exit_and_message(self, spec, capsys):
        with pytest.raises(InvalidParameter) as refused:
            parse_topology_spec(spec).build()
        assert run(["embed", "--task", "ring:4", "--system", spec, "--reach", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {refused.value}\n")

    def test_the_task_and_the_system_are_checked_before_the_budget(self, capsys,
                                                                   generators_called):
        assert run(["embed", "--task", "ring:2", "--system", "hypercube:20", "--reach", "1"]) == 2
        assert capsys.readouterr().err == "error: ring order must be >= 3, got 2\n"
        nan = ["--time-limit", "nan"]
        assert run(["embed", "--task", "ring:4", "--system", "hypercube:21", "--reach", "1",
                    *nan]) == 2
        assert capsys.readouterr().err == "error: hypercube dimension must be in 1..20, got 21\n"
        assert run(["embed", "--task", "ring:4", "--system", "hypercube:20", "--reach", "1",
                    *nan]) == 2
        assert capsys.readouterr().err == (
            "error: search budget fields must be strictly positive and finite\n")
        assert generators_called == ["ring", "ring", "ring"]

    def test_time_limit_stops_the_search(self, capsys):
        code = run(["embed", "--task", "complete:7", "--system", "hypercube:5", "--reach", "2",
                    "--time-limit", "0.000001"])
        assert code == 1

    def test_time_limit_stops_the_transform(self, capsys):
        # the transform and the search share the one deadline from --time-limit
        code = run(["embed", "--task", "ring:4", "--system", "ring:64", "--reach", "2",
                    "--time-limit", "0.000001"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: reachability transform ran out of time budget\n")

    def test_time_limit_spares_absence_proof(self, capsys):
        code = run(["embed", "--task", "ring:11", "--system", "hypercube:5", "--reach", "1",
                    "--time-limit", "0.000001"])
        assert code == 0
        assert capsys.readouterr().out == "no embedding\n"

    def test_a_later_time_limit_wins(self, capsys):
        code = run(["embed", "--task", "ring:4", "--system", "hypercube:2", "--reach", "1",
                    "--time-limit", "0.000001", "--time-limit", "60"])
        assert code == 0

    def test_the_environment_sets_no_time_limit(self, capsys, monkeypatch):
        queries = [["embed", "--task", "ring:4", "--system", "hypercube:2", "--reach", "1",
                    "--witness"],
                   ["potential", "--task", "ring", "--system", "ring:5", "--reach", "1"]]
        expected = [(run(argv), capsys.readouterr()) for argv in queries]
        monkeypatch.setenv("TOPO_COMPAT_TIME_LIMIT", "abc")
        assert [(run(argv), capsys.readouterr()) for argv in queries] == expected
        assert expected[0][0] == expected[1][0] == 0

    def test_the_environment_picks_no_kernel_backend(self):
        # whether the extension loads is all that picks the backend, in a fresh process
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                "from topocompat._kernels import active_backend; print(active_backend())")
        env = {k: v for k, v in os.environ.items() if k != "TOPO_COMPAT_PURE"}
        printed = [subprocess.run([sys.executable, "-I", "-S", "-c", code], env=child_env,
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  check=True).stdout
                   for child_env in (env, dict(env, TOPO_COMPAT_PURE="1"))]
        assert printed[0] == printed[1] and printed[0] in ("pure\n", "compiled\n")

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

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("reach", [1, 2, 3])
    def test_stdout_is_the_output_file(self, spec, reach, tmp_path, capsys):
        out = tmp_path / "g.edges"
        for argv in (["gen", spec], ["power", spec, "--reach", str(reach)]):
            assert run([*argv, "-o", str(out)]) == 0
            assert capsys.readouterr() == ("", "")
            assert run(argv) == 0
            assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_power_squares_the_graph(self, capsys):
        assert run(["power", "hypercube:2", "--reach", "2"]) == 0
        assert loads(capsys.readouterr().out) == graph_power(hypercube(2), 2)

    def test_power_reach_zero_exits_two(self, capsys):
        assert run(["power", "ring:5", "--reach", "0"]) == 2

    @pytest.fixture
    def hypercube_builds(self, monkeypatch):
        calls = []
        build = topologies._GENERATORS["hypercube"]

        def counting(s):
            calls.append(s)
            return build(s)

        monkeypatch.setitem(topologies._GENERATORS, "hypercube", counting)
        return calls

    @pytest.mark.parametrize("s,reach", [(20, 2), (20, 10**12), (16, 5)])
    def test_oversized_hypercube_power_is_refused_from_the_spec(self, s, reach, capsys,
                                                                  hypercube_builds):
        assert run(["power", f"hypercube:{s}", "--reach", str(reach)]) == 2
        assert capsys.readouterr() == ("", f"error: the reach-{reach} transform has more than "
                                           "10485760 edges, the cap (the edges of H_20)\n")
        assert hypercube_builds == []

    @pytest.mark.parametrize("s", [0, -1, 21, 10**14])
    def test_hypercube_power_dimension_is_checked_first(self, s, capsys):
        assert run(["power", f"hypercube:{s}", "--reach", "2"]) == 2
        assert capsys.readouterr().err == f"error: hypercube dimension must be in 1..20, got {s}\n"

    def test_hypercube_power_at_the_cap_is_built(self, capsys, monkeypatch, hypercube_builds):
        # H_4 at reach 2: 16 rows of C(4, 1) + C(4, 2) = 10 entries, 80 edges
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 80)
        assert run(["power", "hypercube:4", "--reach", "2"]) == 0
        assert loads(capsys.readouterr().out) == graph_power(hypercube(4), 2)
        assert run(["power", "hypercube:4", "--reach", "1000"]) == 2
        assert capsys.readouterr().err.startswith("error: the reach-1000 transform has more than 80 ")
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 79)
        assert run(["power", "hypercube:4", "--reach", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: the reach-2 transform has more than 79 ")
        assert hypercube_builds == [4]

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


class TestCommandLineSurface:
    """Help, the error shape and the accepted spellings of every command."""

    FLAGS = {
        "gen": ["-h", "-o"],
        "power": ["-h", "--reach", "-o"],
        "potential": ["-h", "--task", "--system", "--reach", "--witness", "--max-nodes",
                      "--time-limit"],
        "table": ["-h", "--task", "--s", "--reach", "--format"],
        "embed": ["-h", "--task", "--system", "--reach", "--witness", "--max-nodes",
                  "--time-limit", "--max-host-order"],
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_flag(self, command, flag, capsys):
        assert run([command, flag]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: topo-compat {command} ")
        usage = out.split("\n\n")[0]
        assert set(self.FLAGS[command]) <= {token.strip("[]") for token in usage.split()}
        assert "--help" in out and ("--output" in out) == (command in ("gen", "power"))

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
                         "(choose from 'gen', 'power', 'potential', 'table', 'embed')"),
        (["power", "ring:5"], "the following arguments are required: --reach"),
        (["potential", "--task", "mesh", "--system", "ring:5", "--reach", "1"],
         "argument --task: invalid choice: 'mesh' (choose from 'star', 'ring')"),
        (["potential", "--task", "star", "--system", "ring:5", "--reach", "-1"],
         "argument --reach: expected a positive integer, got '-1'"),
        (["gen", "ring:5", "-o"], "argument -o/--output: expected one argument"),
        (["gen", "ring:5", "extra"], "unrecognized arguments: extra"),
        (["gen", "ring:5", "--bogus"], "unrecognized arguments: --bogus"),
        (["embed", "--task", "ring:3", "--system", "ring:5", "--reach", "1", "--max", "5"],
         "ambiguous option: --max could match --max-nodes, --max-host-order"),
        # no potential runs the generic search that the host-order cap bounds
        (["potential", "--task", "ring", "--system", "ring:100", "--reach", "1",
          "--max-host-order", "5"], "unrecognized arguments: --max-host-order 5"),
    ])
    def test_errors_exit_two_with_usage_and_message(self, argv, message, capsys):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("usage: topo-compat")
        assert lines[-1].startswith("topo-compat") and ": error: " in lines[-1]
        assert lines[-1].endswith(message)

    @pytest.mark.parametrize("argv,ending", [
        (["power", "ring:5", "--reach", "1\n2"], "expected a positive integer, got '1\\n2'"),
        (["power", "ring:5", "--reach", ""], "expected a positive integer, got ''"),
        (["gen", "ring:5", "extra\nline"], "unrecognized arguments: extra\\nline"),
    ])
    def test_a_bad_value_stays_on_the_one_error_line(self, argv, ending, capsys):
        assert run(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert sum("error:" in line for line in lines) == 1
        assert lines[-1].endswith(ending)

    @pytest.mark.parametrize("short,long", [
        (["potential", "--task", "ring", "--system", "ring:6", "--reach=1", "--wit"],
         ["potential", "--task", "ring", "--system", "ring:6", "--reach", "1", "--witness"]),
        (["potential", "--task=star", "--sys=ring:9", "--rea=3", "--wit"],
         ["potential", "--task", "star", "--system", "ring:9", "--reach", "3", "--witness"]),
        (["embed", "--task=ring:4", "--system", "hypercube:2", "--reach=1", "--wit"],
         ["embed", "--task", "ring:4", "--system", "hypercube:2", "--reach", "1", "--witness"]),
    ])
    def test_equals_form_and_prefixes_match_the_long_forms(self, short, long, capsys):
        assert run(short) == 0
        first = capsys.readouterr()
        assert run(long) == 0
        assert capsys.readouterr() == first
        assert first.out and first.err == ""
