"""
Estimation and dependence graphs
================================

From the measure side, the pairwise tail dependence coefficient chi and
the dependence graph are exact computations.  From the sample side, chi
is estimated by joint rank exceedances, the graph is recovered by
thresholding, and block factorization of a conditional law is tested by
rank permutation.  This script walks the round trip.
"""

import numpy as np

import facetail as ft

measure = ft.ExponentMeasure(3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [2.0, 1.0])

# exact side
print("chi(0,1):", ft.chi_exact(measure, 0, 1))
print("chi(0,2):", ft.chi_exact(measure, 0, 2))
graph = ft.build_graph(measure)
print("edges:", graph.edges, " components:", graph.components)
print("finest independent partition:", ft.finest_partition(measure))

# sample side: estimate chi above the empirical 95% level
batch = ft.sample_max_stable(measure, 50_000, seed=7)
est = ft.chi_empirical(batch, q=0.95)
print("chi matrix estimate:")
print(np.round(est.chi, 3))

recovered = ft.empirical_graph(est, threshold=0.1)
print("recovered components:", recovered.components)

# DOT rendering groups coordinates by component
print(ft.to_dot(graph))

# the permutation test distinguishes factorizing from coupled laws: add a
# mixing atom that straddles the blocks and the block maxima correlate
# through its shared radius
mixing = ft.standardize(ft.ExponentMeasure(3, [
    [0.5, 0.5, 0.0],
    [0.0, 0.0, 1.0],
    [0.5, 0.0, 0.5],
], [2.0, 1.0, 1.0 / 3.0]))
part = ft.bipartition([0, 1], [2])
coupled = ft.sample_conditional(mixing, 0, 10_000, seed=9)
res = ft.factorization_test(coupled, part, seed=1)
print("mixing atom present: reject =", res.reject, " p =", res.p_value)

# under the factorizing measure one block maximum is constant zero and
# the test reports the degenerate, trivially independent case
clean = ft.sample_conditional(measure, 0, 10_000, seed=9)
res2 = ft.factorization_test(clean, part, seed=1)
print("factorizing law:     degenerate =", res2.degenerate, " p =", res2.p_value)

# exhaustive certification: the finest partition is checked against every
# bipartition with the full five-way report
print("brute force certified:", ft.certify_partition_bruteforce(measure))
