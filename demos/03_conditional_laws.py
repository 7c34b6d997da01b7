"""
Conditional tail laws
=====================

Restricting an exponent measure to the slab where coordinate k exceeds 1
and normalizing gives a probability law on the orthant: pick an atom with
probability mass * omega_k / margin_k, then a Pareto(1) radius above
1 / omega_k.  Everything about the measure above level 1 in coordinate k
is encoded in this law, including which blocks can be large together.
"""

import numpy as np

import facetail as ft

measure = ft.ExponentMeasure(3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [2.0, 1.0])

law = ft.conditional_law(measure, 0)
print("atoms in law:", law.atom_indices)
print("weights:     ", law.weights)
print("r_min:       ", law.r_min)
print("norming mass:", law.norming_mass)

# upper-rectangle probabilities are closed form; coordinates the selected
# atoms do not charge force exact zeros
print("P(Y >= (2, 2, 0.1)):", ft.rectangle_probability(law, [2.0, 2.0, 0.1]))
print("P(Y_0 >= 2):        ", ft.marginal_rectangle_probability(law, [0], [2.0]))
print("P(Y_2 >= 0.1):      ", ft.marginal_rectangle_probability(law, [2], [0.1]))

# multiplying by the norming mass recovers plain measure mass, as long as
# the rectangle stays inside the conditioning slab (x_k >= 1); shown on
# the pair marginal, whose single atom charges the whole rectangle
pair_measure = ft.marginalize(measure, [0, 1])
pair_law = ft.conditional_law(pair_measure, 0)
x = np.array([1.5, 0.7])
lhs = pair_law.norming_mass * ft.rectangle_probability(pair_law, x)
print("mass via law:   ", lhs)
print("mass directly:  ", ft.rectangle_mass(pair_measure, x))

# factorization of the law over a bipartition is a structural property:
# it fails exactly when an atom charging k straddles the blocks
for blocks in (((0, 1), (2,)), ((0, 2), (1,))):
    part = ft.bipartition(*blocks)
    verdict = ft.conditional_factorization(measure, part)
    print(f"split {blocks}: holds={verdict.holds}")
    if not verdict.holds:
        k = int(np.argmin(verdict.ok))
        print(f"  coordinate {k} blocked by atom {verdict.atom[k]}")

# per-coordinate detail: the axis coordinate factorizes even under the
# straddling split, because the atom charging it lies inside one block
detail = ft.conditional_factorization(measure, ft.bipartition([0, 2], [1]))
for k, ok in enumerate(detail.ok):
    print(f"  k={k}: ok={ok}")
