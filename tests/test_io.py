import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convlab.constructions import catalog
from convlab.fileio import (
    FormatError,
    from_edge_list,
    from_graph6,
    load_graph,
    to_edge_list,
    to_graph6,
)
from convlab.graph import Graph, GraphError, are_isomorphic, build_graph, complete_graph


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def test_graph6_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(0, 20)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        h = from_graph6(to_graph6(g))
        assert h.n == g.n and h.adj == g.adj


def test_graph6_matches_networkx():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 16)
        g = _random_graph(rng, n, 0.4)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert to_graph6(g) == expected


def test_graph6_reads_networkx_output():
    nxg = nx.petersen_graph()
    s = nx.to_graph6_bytes(nxg, header=True).decode()
    g = load_graph(s)
    assert g.n == 10 and g.edge_count == 15
    assert are_isomorphic(g, catalog()["petersen"])


def test_graph6_long_form_order():
    g = build_graph(100, [(0, 99)])
    h = from_graph6(to_graph6(g))
    assert h.n == 100 and h.edges() == [(0, 99)]


def test_edge_list_roundtrip():
    g = complete_graph(5)
    text = to_edge_list(g)
    assert text.splitlines()[0] == "5 10"
    h = from_edge_list(text)
    assert h.adj == g.adj


def test_edge_list_header_mismatch():
    with pytest.raises(FormatError, match="claims 3 edges"):
        from_edge_list("4 3\n0 1\n")


def test_load_autodetects():
    g = complete_graph(4)
    assert load_graph(to_edge_list(g)).adj == g.adj
    assert load_graph(to_graph6(g)).adj == g.adj


def test_load_empty_rejected():
    with pytest.raises(FormatError):
        load_graph("   \n")


def test_graph6_trailing_bytes_rejected():
    text = to_graph6(complete_graph(5))
    assert from_graph6(text).edge_count == 10
    with pytest.raises(FormatError, match="trailing"):
        from_graph6(text + "?")
    with pytest.raises(FormatError, match="trailing"):
        load_graph(">>graph6<<" + text + "~~")


def test_graph6_nonzero_padding_rejected():
    # order 5: 10 adjacency bits in two characters, the last two bits padding
    text = to_graph6(complete_graph(5))
    assert (ord(text[-1]) - 63) & 0b11 == 0
    with pytest.raises(FormatError, match="padding"):
        from_graph6(text[:-1] + chr(ord(text[-1]) + 1))


def test_malformed_numbers_raise_format_error():
    for text in ("3 x", "2 1\n0 a", "2 1\n0 1.5"):
        with pytest.raises(FormatError, match=repr(text.splitlines()[-1])):
            load_graph(text)


def test_graph6_order_bytes_validated():
    # 0x7f once read as order 64, and "~!!!" as order -30
    with pytest.raises(FormatError, match=r"order byte '\\x7f'"):
        load_graph("\x7f" + "?" * 336)
    with pytest.raises(FormatError, match="order byte '!'"):
        load_graph("~!!!")


# Edge-list headers stay at order <= 64: build_graph allocates one row per
# vertex, so an arbitrary header would ask for arbitrary memory.
_TOKENS = st.one_of(st.integers(-3, 64).map(str),
                    st.sampled_from(["x", "1.5", "-", "0x1", "1e3", "\u00b2", "#"]))
_LINES = st.lists(_TOKENS, max_size=3).map(" ".join)


@st.composite
def _edge_list_texts(draw):
    header = draw(st.one_of(_LINES, st.builds("{} {}".format, st.integers(-2, 64),
                                              st.integers(-1, 6))))
    return "\n".join([header] + draw(st.lists(_LINES, max_size=6)))


_GRAPH6_TEXTS = st.builds(
    "{}{}".format, st.sampled_from(["", ">>graph6<<"]),
    st.text(st.characters(min_codepoint=0, max_codepoint=255), max_size=24),
).filter(lambda text: not text.strip()[:1].isdigit())


@settings(max_examples=400, deadline=None)
@given(st.one_of(_edge_list_texts(), _GRAPH6_TEXTS))
@example("3 x")
@example("~!!!")
def test_load_graph_fuzz(text):
    # a graph or a clean error; never a bare ValueError or another crash
    try:
        g = load_graph(text)
    except (FormatError, GraphError):
        return
    assert isinstance(g, Graph)
