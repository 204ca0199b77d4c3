"""The two benchmark generative models and the exact oracle: hidden
variables, selection bias, and the inclusion-optimal classes of the
induced observable margins."""

from gesbn import (
    canonical_member,
    ci_holds,
    composition_holds,
    encode_edges,
    gold_four_cycle,
    gold_w,
    observed_margin,
    observed_sample,
    optimal_classes,
    parameter_count,
)

for name, gold in [("w-structure", gold_w()), ("selection four-cycle", gold_four_cycle())]:
    gold = gold.with_parameters(ess=10.0, seed=0)
    margin = observed_margin(gold)
    spec = margin.spec
    print(f"=== {name} ===")
    print("generative edges:", "; ".join(encode_edges(gold.structure, gold.spec).splitlines()))
    print("hidden:", [gold.spec.names[v] for v in gold.hidden],
          " selection:", {gold.spec.names[v]: s for v, s in gold.selection})

    opt, popt = optimal_classes(margin)
    print(f"inclusion-optimal classes of the observable margin: {len(opt)}")
    for c in opt:
        rep = canonical_member(c)
        d = parameter_count(rep, spec)
        tag = "parameter optimal" if c in popt else "not parameter optimal"
        print(f"  [{d:>2} parameters, {tag}] " + "; ".join(encode_edges(c, spec).splitlines()))

    print("composition property on the margin:", bool(composition_holds(margin)))
    data = observed_sample(gold, 1000, seed=1)
    print(f"sampled {data.m} observed records over {data.spec.names}")
    print()

# selection bias in the four-cycle: conditioning is what couples X1 and X4
gold = gold_four_cycle().with_parameters(seed=0)
margin = observed_margin(gold)
print("four-cycle margin conditional-independence pattern:")
print("  X1 _||_ X3 | {X2,X4}:", ci_holds(margin, 0, 2, (1, 3)))
print("  X2 _||_ X4 | {X1,X3}:", ci_holds(margin, 1, 3, (0, 2)))
print("  X1 _||_ X3 | X2     :", ci_holds(margin, 0, 2, (1,)))
print("  X1 _||_ X4          :", ci_holds(margin, 0, 3))
