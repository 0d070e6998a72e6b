import json

from convlab.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from convlab.fileio import load_graph


def test_simulate_layers(capsys):
    code = main(["simulate", "--graph", "layered4reg", "--seed-set", "0,1,2", "-k", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "0: 0 1 2"
    assert len(out.splitlines()) == 4


def test_check_pass_and_fail(capsys):
    assert main(["check", "--graph", "petersen", "--seed-set", "0,2,8", "-k", "2"]) == EXIT_PASS
    assert main(["check", "--graph", "petersen", "--seed-set", "0,1", "-k", "2"]) == EXIT_FAIL
    capsys.readouterr()


def test_solve_json_certified(capsys):
    code = main(["solve", "--graph", "petersen", "-k", "2", "--certify", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["value"] == 3
    assert payload["certified_minimum"] is True
    assert len(payload["witness"]) == 3


def test_solve_certify_empty_graph(capsys, monkeypatch):
    import io

    # value 0 is minimal without a sweep over sets of size -1
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    code = main(["solve", "--graph", "-", "-k", "2", "--certify"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "value: 0" in out and "certified minimum: yes" in out


def test_bounds_table(capsys):
    code = main(["bounds", "--graph", "petersen", "-k", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "forest-complement" in out and "lower" in out
    assert "three-eighths" in out  # cubic upper bounds included for k=2


def test_construct_emits_seed_comment(capsys):
    code = main(["construct", "extremal", "--param", "k=3"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "8 16"
    assert out.splitlines()[-1] == "# seed: 0 1 2"


def test_construct_graph6_loads_back(capsys):
    code = main(["construct", "catalog", "--param", "graph=heawood", "--format", "graph6"])
    out = capsys.readouterr().out.strip()
    assert code == EXIT_PASS
    g = load_graph(out)
    assert g.n == 14 and g.edge_count == 21


def test_catalog_listing(capsys):
    code = main(["catalog"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    names = [line.split()[0] for line in out.splitlines()]
    assert "petersen" in names and names == sorted(names)


def test_classify_json(capsys):
    code = main(["classify", "--graph", "j5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["n"] == 20 and payload["girth"] == 5
    assert payload["cyclically_4_connected"] is True


def test_verify_single_suite(capsys):
    code = main(["verify", "prop-kkk"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out.startswith("PASS")


def test_error_exit_codes(capsys):
    assert main(["solve", "--graph", "no-such-file", "-k", "2"]) == EXIT_ERROR
    assert main(["construct", "extremal", "--param", "k"]) == EXIT_ERROR
    assert main(["verify", "no-such-suite"]) == EXIT_ERROR
    capsys.readouterr()


def test_stdin_pipe(capsys, monkeypatch):
    import io

    main(["catalog", "prism"])
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["classify", "--graph", "-"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS and "regular_degree: 3" in out


def test_oversized_edge_list_header_exits_2(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("99999999999 0\n"))
    assert main(["classify", "--graph", "-"]) == EXIT_ERROR
    assert "exceeds the edge-list limit" in capsys.readouterr().err


def test_internal_error_exits_2_with_one_line(capsys, monkeypatch):
    def broken(g):
        raise RuntimeError("internal error: simulated failure")

    monkeypatch.setattr("convlab.cli.structure_report", broken)
    code = main(["classify", "--graph", "k4"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.splitlines() == ["error: internal error: simulated failure"]
    assert "Traceback" not in err


def test_seed_set_must_name_vertices(capsys):
    # {0, 1} converts K4 at k = 2; a vertex outside the graph is an error,
    # not a silent "does not convert"
    assert main(["check", "--graph", "k4", "--seed-set", "0,1", "-k", "2"]) == EXIT_PASS
    assert main(["check", "--graph", "k4", "--seed-set", "0,1,9", "-k", "2"]) == EXIT_ERROR
    assert "9" in capsys.readouterr().err
    assert main(["simulate", "--graph", "k4", "--seed-set", "0,-1", "-k", "2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "-1" in err and "shift count" not in err
