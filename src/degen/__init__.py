"""Exact-arithmetic workbench for semistable degenerations.

The package computes with the stratum combinatorics of a strict normal
crossings special fibre: the monodromy double complex built from Chow
groups of the strata, its mapping cone under the identity-block monodromy
operator, v-adic Deligne cohomology presented as an exact quotient, and
leading values of function-field L-functions as rational multiples of
powers of log(q).  Every rational is carried as integers, a numerator
over a denominator, from the bundle file to the printed report;
``fractions.Fraction`` is only the type of the views the public API hands
out (``Mat.entries``, ``RatFunc.num``, ``LeadingValue.coeff``), built on
demand.  No floats enter any code path, so every report is reproducible
byte for byte.
"""

__version__ = "0.1.0"
