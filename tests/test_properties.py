"""Property tests on random DAGs with up to five nodes: CPDAG completion
is a canonical form of the equivalence class, and d-separation gives the
independencies of a joint drawn on the DAG. And on random datasets:
tallies read off the count table equal a count made record by record."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gesbn.datagen import sample_parameters
from gesbn.graphs import (
    Dag,
    VariableSpec,
    consistent_extensions,
    dag_to_cpdag,
    dsep_triples,
    equivalent,
)
from gesbn.oracle import ci_triple_set, joint_from_bn
from gesbn.scoring import CategoricalDataset, tally

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


@PROPERTY_SETTINGS
@given(st.data())
def test_dsep_equals_ci_of_a_joint_drawn_on_the_dag(data):
    # parameters drawn from a continuous prior are faithful almost surely,
    # so the d-separations of g are exactly the independencies of the joint
    g = data.draw(dags())
    cards = data.draw(st.lists(st.integers(2, 3), min_size=g.n, max_size=g.n))
    spec = VariableSpec(tuple(f"V{i}" for i in range(g.n)), tuple(cards))
    bn = sample_parameters(g, spec, seed=data.draw(st.integers(0, 2**32 - 1)))
    assert dsep_triples(g) == ci_triple_set(joint_from_bn(bn))


@st.composite
def datasets(draw):
    """Up to 40 records over one to five variables of one to four states."""
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    record = st.tuples(*(st.integers(0, c - 1) for c in cards))
    records = draw(st.lists(record, max_size=40))
    spec = VariableSpec(tuple(f"V{i}" for i in range(len(cards))), tuple(cards))
    return CategoricalDataset(spec, records)


@PROPERTY_SETTINGS
@given(st.data())
def test_tally_equals_per_record_count(data):
    ds = data.draw(datasets())
    n, cards = ds.spec.n, ds.spec.cards
    child = data.draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != child]
    parents = data.draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
    q = 1
    for p in sorted(parents):
        q *= cards[p]
    want = [[0] * cards[child] for _ in range(q)]
    for rec in ds.records.tolist():
        j = 0
        for p in sorted(parents):  # lowest index most significant
            j = j * cards[p] + rec[p]
        want[j][rec[child]] += 1
    got = tally(ds, child, parents)
    assert got.tolist() == want
