from hypothesis import strategies as st

from pathreach.decomposition import WalkDecomposition
from pathreach.graph import Digraph
from pathreach.testkit import gen_random_dag

# Two overlapping ten-vertex walks used throughout the suite; they share
# the steps 2->3 and 3->4 and the second walk revisits vertex 3.
OVERLAP_W1 = [1, 6, 7, 2, 3, 4, 5, 10, 9, 8]
OVERLAP_W2 = [1, 2, 3, 4, 9, 3, 8]


def overlap_instance() -> WalkDecomposition:
    return WalkDecomposition([OVERLAP_W1, OVERLAP_W2])


def random_dags(max_n=12, min_n=1):
    return st.builds(
        gen_random_dag,
        n=st.integers(min_value=min_n, max_value=max_n),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**63),
    )


def digraphs(max_n=6, max_edges=None):
    """Loop-free digraphs on at most max_n vertices, cycles allowed, with
    at most max_edges edges when it is given."""
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)
                     if pairs else st.just([]))
        return Digraph(n, edges)
    return st.composite(build)()
