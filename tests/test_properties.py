"""Property tests on random DAGs with up to five nodes: CPDAG completion
is a canonical form of the equivalence class."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gesbn.graphs import Dag, consistent_extensions, dag_to_cpdag, equivalent

# fixed examples, and no example database written next to the sources
PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


@st.composite
def dags(draw, n=None):
    """A DAG on n nodes (drawn from 1..5 if not given): a random node order,
    and a random subset of the pairs that point forward in it."""
    if n is None:
        n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag(n, frozenset(p for p, k in zip(pairs, keep) if k))


@st.composite
def dag_pairs(draw):
    """Two DAGs on the same nodes: g2 is a member of g1's class, g1's
    skeleton oriented along a random node order, or an unrelated DAG, so
    that both equivalent and same-skeleton inequivalent pairs occur often."""
    n = draw(st.integers(1, 5))
    g1 = draw(dags(n))
    kind = draw(st.sampled_from(("member", "reoriented", "unrelated")))
    if kind == "member":
        members = consistent_extensions(dag_to_cpdag(g1))
        return g1, members[draw(st.integers(0, len(members) - 1))]
    if kind == "reoriented":
        rank = {v: i for i, v in enumerate(draw(st.permutations(range(n))))}
        edges = {(u, v) if rank[u] < rank[v] else (v, u) for u, v in g1.edges}
        return g1, Dag(n, frozenset(edges))
    return g1, draw(dags(n))


@PROPERTY_SETTINGS
@given(st.data())
def test_completion_idempotent_on_members(data):
    c = dag_to_cpdag(data.draw(dags()))
    members = consistent_extensions(c)
    member = members[data.draw(st.integers(0, len(members) - 1))]
    assert dag_to_cpdag(member) == c


@PROPERTY_SETTINGS
@given(dag_pairs())
def test_equal_completions_iff_equivalent(pair):
    g1, g2 = pair
    assert (dag_to_cpdag(g1) == dag_to_cpdag(g2)) == equivalent(g1, g2)
