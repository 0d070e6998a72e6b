import json

import pytest

from convlab.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from convlab.constructions import RECIPES
from convlab.fileio import load_graph

# recipe -> every one of its parameters, and the graph6 the CLI emits for them
CONSTRUCT_SAMPLES = {
    "catalog": (["graph=petersen"], "IheA@GUAo"),
    "join-empty": (["graph=k4", "k=4"], "D~{"),
    "extremal": (["k=4"], "I?~vUiq[W"),
    "path-replacement": (["m=3", "leaf=3"], "ShSkk?@?G?_D?T?A??G?@??C??g??g?AS"),
    "cycle-replacement": (["m=3", "block=4"], "QhNK?C@?G@_X?C??_?G_@??K?BG"),
    "triangle-replace": (["graph=k4"], "K{CY?SBG?G_F"),
    "product": (["graph=k4", "inner=g1", "removed=0", "seed=3"],
                "[hIY_O@?G?_A?R?I??G?@??C??GC?O?@K??S?@?????_??@???@_??@???AW??@S"),
    "doubled": (["graph=petersen", "u=0", "v=1"], "OgAQpWG?H?a?_??H?Ao?U"),
    "tree-gadgets": (["tree=star"], "Qw?W{o???@_FOK??????B??[_@_"),
    "random-regular": (["n=10", "d=3", "seed=7"], "I_KUAWsg_"),
}


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


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_construct_every_recipe(recipe, capsys):
    params, expected = CONSTRUCT_SAMPLES[recipe]
    assert {p.split("=")[0] for p in params} == set(RECIPES[recipe][1])
    args = [arg for p in params for arg in ("--param", p)]
    assert main(["construct", recipe, *args, "--format", "graph6"]) == EXIT_PASS
    assert capsys.readouterr().out == expected + "\n"


def test_construct_parameter_errors_name_recipe_and_parameter(capsys):
    assert main(["construct", "extremal"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: recipe 'extremal' needs parameter 'k'\n"
    assert main(["construct", "extremal", "--param", "k=3", "--param", "bogus=1"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: recipe 'extremal' has no parameter 'bogus'")
    # a repeated key is refused, not silently overridden by its last value
    assert main(["construct", "extremal", "--param", "k=3", "--param", "k=2"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: recipe 'extremal' gets parameter 'k' more than once\n")


def test_error_exit_codes(capsys):
    assert main(["solve", "--graph", "no-such-file", "-k", "2"]) == EXIT_ERROR
    assert main(["construct", "extremal", "--param", "k"]) == EXIT_ERROR
    assert main(["verify", "no-such-suite"]) == EXIT_ERROR
    capsys.readouterr()


def test_catalog_prism_graph6_pin(capsys):
    # the catalog's prism is GP(3,1); its graph6 may not move
    assert main(["catalog", "prism", "--format", "graph6"]) == EXIT_PASS
    assert capsys.readouterr().out == "E{Sw\n"


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
