"""
Extremal independence of a coordinate bipartition, five ways
============================================================

For a split (A, C) of the coordinates the library decides extremal
independence through five formulations computed side by side:

  cond_i      no atom's face straddles both blocks
  cond_ii     the tail mass is additive over blocks (the sign of an exactly
              summed defect at the point 1)
  cond_iii    block-straddling marginals avoid the interior of their domain
  df          the max-stable distribution function factorizes (compared in
              floating point at one point t * 1: it can fail, or be None,
              "below resolution", never hold)
  new_notion  every conditional tail law factorizes over the blocks

They are equivalent for atomic measures, and `full_report` verifies that
the decided ones actually agree on each instance instead of assuming it.
"""

import numpy as np

import facetail as ft

# block structure: one atom couples coordinates 0 and 1, one sits on the
# third axis; blocks {0,1} vs {2} are extremally independent
block = ft.ExponentMeasure(3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [2.0, 1.0])

good = ft.full_report(block, ft.bipartition([0, 1], [2]))
print("split {0,1} | {2}:", "independent" if good.independent else "dependent",
      "agree:", good.agree, "undecided:", good.undecided)

# the same measure against the wrong split: every criterion fails, each
# with its own witness
bad = ft.full_report(block, ft.bipartition([0, 2], [1]))
print("split {0,2} | {1}:", "independent" if bad.independent else "dependent")
for name, witness in bad.witnesses.items():
    print(f"  {name}: {witness}")

# the additivity defect is itself a measure mass: the mass of the region
# where both blocks are exceeded at once
part = ft.bipartition([0, 2], [1])
x = np.array([1.0, 1.0, 1.0])
lam = ft.exponent_function(block, x)
lam_a = ft.exponent_function(ft.marginalize(block, [0, 2]), x[[0, 2]])
lam_c = ft.exponent_function(ft.marginalize(block, [1]), x[[1]])
print("defect:", lam_a + lam_c - lam,
      "= joint exceedance mass:", ft.joint_exceedance_mass(block, part, x))

# the mixed-margin criterion in its finite form: the marginal mass that a
# subset places above a threshold scales like 1/threshold, so a straddling
# subset with positive interior mass blows up as the threshold drops
for n in (1, 2, 4, 8):
    print(f"interior mass of {{0, 1}} above 1/{n}:",
          ft.face_interior_mass(block, [0, 1], threshold=1.0 / n))

# randomized cross-check over many measures and bipartitions; every other
# trial is built block-structured so both verdicts appear
battery = ft.agreement_battery(d=4, n_atoms=6, trials=50, seed=0)
print("battery:", battery.instances, "instances,",
      len(battery.disagreements), "disagreements,",
      battery.notion_mismatches, "notion mismatches")
