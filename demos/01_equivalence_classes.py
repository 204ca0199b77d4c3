"""Tour of the graph layer: DAGs, d-separation, covered edges, and
equivalence classes represented as completed PDAGs."""

from gesbn import (
    Dag,
    VariableSpec,
    consistent_extensions,
    d_separated,
    dag_to_cpdag,
    encode_edges,
    enumerate_classes,
    enumerate_dags,
    equivalent,
    included_in,
    is_covered,
    reverse_covered,
)

spec = VariableSpec(("X1", "X2", "X3", "X4", "H"), (2, 3, 2, 2, 3))

# the hidden-variable benchmark structure: X1 -> X2 <- H -> X3 <- X4
w = Dag(5, {(0, 1), (4, 1), (4, 2), (3, 2)})
print("w-structure edges:")
print(encode_edges(w, spec))

print("d-separation facts read off the graph:")
print("  X1 _||_ X4            :", d_separated(w, 0, 3))
print("  X1 _||_ X3            :", d_separated(w, 0, 2))
print("  X1 _||_ X3 | X2       :", d_separated(w, 0, 2, 1))

# covered edges can be reversed without changing the equivalence class
chain = Dag(3, {(0, 1), (1, 2)})
print("\nchain 0->1->2: edge (0,1) covered?", is_covered(chain, (0, 1)))
flipped = reverse_covered(chain, (0, 1))
print("after reversal still equivalent?", equivalent(chain, flipped))

# the completed pattern keeps only compelled orientations
print("\nclass of the chain:  ", encode_edges(dag_to_cpdag(chain), spec).replace("\n", "  "))
collider = Dag(3, {(0, 1), (2, 1)})
print("class of the collider:", encode_edges(dag_to_cpdag(collider), spec).replace("\n", "  "))
print("collider class members:", len(consistent_extensions(dag_to_cpdag(collider))))
print("chain class members:   ", len(consistent_extensions(dag_to_cpdag(chain))))

# inclusion: fewer independence constraints = larger model
complete = Dag(3, {(0, 1), (0, 2), (1, 2)})
print("\nchain included in complete DAG?", included_in(chain, complete))
print("complete included in chain?    ", included_in(complete, chain))

print("\nDAGs / classes by node count:")
for n in (2, 3, 4):
    print(f"  n={n}: {len(enumerate_dags(n)):>4} DAGs, {len(enumerate_classes(n)):>4} classes")
