"""
Atomic exponent measures: construction, faces, validation, serialization
========================================================================

An exponent measure here is a finite list of spectral atoms, given as a
(J, d) array of directions and a (J,) array of masses.  Each atom is a
direction omega in the nonnegative orthant together with a mass, and
spreads its mass along the ray r * omega with radial density r**-2.  The
induced max-stable distribution is P(X <= x) = exp(-tail_mass(x)).
"""

import os
import tempfile

import numpy as np

import facetail as ft

# three atoms on three different faces of the orthant
measure = ft.ExponentMeasure(3, [
    [0.6, 0.4, 0.0],   # charges {0, 1}
    [0.0, 0.0, 1.0],   # the third axis
    [0.2, 0.2, 0.2],   # the interior
], [1.0, 1.0, 0.5])

print("faces: ", [np.flatnonzero(omega > 0.0).tolist() for omega in measure.omega_matrix])
print("margins:", ft.margins(measure))

# validation catches structural defects: a coordinate no atom charges,
# nonpositive masses, negative or nonfinite direction entries
bad = ft.ExponentMeasure(3, [[1.0, 0.5, 0.0]], [1.0])
for violation in ft.validate_measure(bad):
    print("violation:", violation.code, "coordinate", violation.coordinate)

# standardize rescales directions so every margin is exactly 1; the
# measure describes the same dependence with unit Frechet margins
std = ft.standardize(measure)
print("standardized margins:", ft.margins(std))
print("is_standardized:", ft.is_standardized(std))

# the tail mass is -1-homogeneous: scaling the point by t divides it by t
x = np.array([1.0, 2.0, 1.0])
print("tail mass at x:   ", ft.exponent_function(std, x))
print("tail mass at 2x:  ", ft.exponent_function(std, 2 * x))
print("df at x:          ", ft.distribution_function(std, x))

# marginalization keeps a coordinate subset and drops atoms that vanish
pair = ft.marginalize(std, [0, 1])
print("pair atoms:", pair.n_atoms, "of", std.n_atoms)

# measures round-trip through a small JSON schema
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "measure.json")
    ft.save_measure(std, path)
    again = ft.load_measure(path)
print("round trip equal:", ft.measures_allclose(std, again))

# atoms on the same ray are merged at construction; the merged mass keeps
# the total intensity contribution mass * omega
merged = ft.ExponentMeasure(2, [[0.5, 0.5], [1.0, 1.0]], [1.0, 1.0])
print("merged:", merged.n_atoms, "atom with mass", merged.mass_vector[0])
