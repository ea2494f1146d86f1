"""The whole-text canonical-form checks of the graph and decomposition parsers.

Both patterns use possessive repetitions, so a match keeps no per-line
backtracking state.  These tests pin that the check's traced memory stays
small as the text grows, and that the patterns accept exactly the texts
(and, for the graph, capture exactly the groups) of their plain-greedy
forms, which are spelled out below as the reference.
"""

import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathreach import decomposition, graph
from pathreach.dagcover import minimal_path_decomposition
from pathreach.testkit import gen_random_dag

GREEDY_GRAPH = re.compile(r"n ([0-9]+)((?:\ne [0-9]+ [0-9]+)*)\n?")
GREEDY_DECOMPOSITION = re.compile(r"(?:[0-9]+(?: [0-9]+)*\n)*")

# The greedy forms peak at 2.6-2.8 MB traced on the texts of
# gen_random_dag(1000, 0.02, 1); the possessive ones at about 1 KB.
PEAK_LIMIT = 64 * 1024


@pytest.fixture(scope="module")
def texts():
    """The graph and cover texts of gen_random_dag(1000, 0.02, 1)."""
    g = gen_random_dag(1000, 0.02, 1)
    return graph.format_graph(g), decomposition.format_decomposition(
        minimal_path_decomposition(g))


def _ten_times(graph_text, cover_text):
    """Canonical texts ten times as long: the graph's edge lines and the
    cover's walk lines, each repeated ten times."""
    header, edges = graph_text.rstrip("\n").split("\n", 1)
    return header + ("\n" + edges) * 10 + "\n", cover_text * 10


def _traced_peak(pattern, text):
    tracemalloc.start()
    try:
        match = pattern.fullmatch(text)
        return match, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scale", [1, 10])
def test_checks_keep_no_per_line_state(texts, scale):
    graph_text, cover_text = texts if scale == 1 else _ten_times(*texts)
    for pattern, text in ((graph._CANONICAL, graph_text),
                          (decomposition._CANONICAL, cover_text)):
        match, peak = _traced_peak(pattern, text)
        assert match is not None
        assert peak < PEAK_LIMIT, (pattern.pattern, len(text), peak)


# Text over the patterns' alphabet: random characters, runs of the pieces
# canonical texts are made of, and canonical texts with up to two
# one-character edits, so that matches and near misses are common.
_ALPHABET = "0123456789 \nen"
_PIECES = ["n ", "\ne ", " ", "\n", "e", "n", "0", "7", "12", "305"]
_ids = st.integers(min_value=0, max_value=99).map(str)


@st.composite
def _near_canonical(draw):
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(_ids, _ids), max_size=2))
        text = "\n".join([f"n {draw(_ids)}", *(f"e {u} {v}" for u, v in edges)])
        text += draw(st.sampled_from(["", "\n"]))
    else:
        walks = draw(st.lists(st.lists(_ids, min_size=1, max_size=2), max_size=2))
        text = "".join(" ".join(walk) + "\n" for walk in walks)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(" \nen1"))  # one digit stands for all
        if edit == "insert":
            text = text[:i] + char + text[i:]
        else:
            text = text[:i] + (char if edit == "replace" else "") + text[i + 1:]
    return text


_texts = st.one_of(
    st.text(_ALPHABET, max_size=24),
    st.lists(st.sampled_from(_PIECES), max_size=16).map("".join),
    _near_canonical(),
)


def _assert_same_as_greedy(text):
    match, reference = graph._CANONICAL.fullmatch(text), GREEDY_GRAPH.fullmatch(text)
    assert (match is None) == (reference is None)
    if match is not None:
        assert match.groups() == reference.groups()
    match = decomposition._CANONICAL.fullmatch(text)
    assert (match is None) == (GREEDY_DECOMPOSITION.fullmatch(text) is None)


@settings(max_examples=500)
@given(_texts)
def test_patterns_match_greedy_forms(text):
    _assert_same_as_greedy(text)


# Near misses at each repetition boundary, found by mutating the patterns.
@pytest.mark.parametrize("text", [
    "n 3\n\n", "n 3\ne 0 1 2\n", "n 3\ne 0 1\n\n", "n 3\ne 0\n", "n 3\ne 0 1\ne",
    "1\n\n", "1 \n", "1\n2", " 1\n", "\n", "1 2\n3 \n", "1  2\n",
])
def test_patterns_match_greedy_forms_at_boundaries(text):
    _assert_same_as_greedy(text)
