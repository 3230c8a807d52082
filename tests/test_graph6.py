import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvability import Graph6Error, complete, parse_graph6, path, write_graph6
from resolvability.graph import Graph, from_edge_list

from conftest import random_connected_graph


def test_c_tilde_is_k4():
    # hand-encoded: header 'C' = 4 vertices, body '~' = 111111, i.e. all
    # six upper-triangle bits set
    assert parse_graph6("C~") == complete(4)


def test_write_k4():
    assert write_graph6(complete(4)) == "C~"


@pytest.mark.parametrize("text,n,edges", [
    # the graph6 specification's own example
    ("DQc", 5, [(0, 2), (0, 4), (1, 3), (3, 4)]),
    # the star on 3 vertices centred at vertex 0
    ("Bo", 3, [(0, 1), (0, 2)]),
])
def test_asymmetric_fixtures(text, n, edges):
    # unlike K_4 and P_2, these read as other graphs with the pair order
    # reversed, so they pin the layout in each direction
    g = from_edge_list(n, edges)
    assert parse_graph6(text) == g
    assert write_graph6(g) == text


def test_p2_round_trip():
    s = write_graph6(path(2))
    assert parse_graph6(s) == path(2)


def test_optional_header_prefix():
    assert parse_graph6(">>graph6<<C~") == complete(4)


def test_truncated_body_rejected():
    # header declares 5 vertices (10 bits -> 2 bytes) but no body
    with pytest.raises(Graph6Error):
        parse_graph6("D")


def test_overlong_body_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")


def test_nonzero_padding_rejected():
    # P_2 is 'A_' (single bit 1, 5 zero pad bits); 'A`' flips a pad bit
    assert parse_graph6("A_") == path(2)
    with pytest.raises(Graph6Error):
        parse_graph6("A`")  # '`' = 100001: edge bit plus a stray pad bit


def test_long_form_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("~??")


def test_byte_range_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("C!")


@pytest.mark.parametrize("text", ["E~~\u00e9", "B\u00e9", "A\udcc3"])
def test_non_ascii_rejected(text):
    # each would decode as another graph if read as "?"
    with pytest.raises(Graph6Error, match="bytes outside 63..126"):
        parse_graph6(text)


def test_n_above_62_rejected():
    g = Graph(63, [0] * 63)
    with pytest.raises(Graph6Error):
        write_graph6(g)


def test_round_trip_random_up_to_62():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randint(1, 62)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.2:
                    edges.append((u, v))
        g = from_edge_list(n, edges)
        s = write_graph6(g)
        assert parse_graph6(s) == g
        assert write_graph6(parse_graph6(s)) == s


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.data())
def test_round_trip_property(n, data):
    npairs = n * (n - 1) // 2
    mask = data.draw(st.integers(min_value=0, max_value=(1 << npairs) - 1))
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    g = Graph(n, adj)
    s = write_graph6(g)
    assert parse_graph6(s) == g
    assert write_graph6(parse_graph6(s)) == s


def test_round_trip_random_connected():
    rng = random.Random(5)
    for _ in range(100):
        g = random_connected_graph(rng)
        assert parse_graph6(write_graph6(g)) == g
