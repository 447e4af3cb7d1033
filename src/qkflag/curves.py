"""Curve neighborhoods of Schubert varieties.

The degree-d neighborhood of a Schubert variety is again a Schubert
variety; its label is the Demazure product of the label with z_d, projected
to the minimal coset representative.  On the K-theory side the matching
operator applies the Demazure operators along a reduced word of z_d.  No
moduli of stable maps appears anywhere: the combinatorics carries all the
geometry this package needs.
"""

from .weyl import Degree, FlagSpace, Perm, _check_min_rep, coset_min, demazure_product, z_d


def curve_neighborhood_schubert(space: FlagSpace, w, d: Degree) -> Perm:
    """Label of the degree-d curve neighborhood of the Schubert variety of w."""
    w = _check_min_rep(space, w)
    z = z_d(space, tuple(d))
    return coset_min(space, demazure_product(w, z))
