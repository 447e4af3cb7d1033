"""Curve neighborhoods of Schubert varieties.

The degree-d neighborhood of a Schubert variety is again a Schubert
variety; its label is the Demazure product of the label with z_d, projected
to the minimal coset representative.  On the K-theory side the matching
operator applies the Demazure operators along a reduced word of z_d.  No
moduli of stable maps appears anywhere: the combinatorics carries all the
geometry this package needs.

For the incidence variety Fl(1, n-1; n) the neighborhood collapses to a
three-branch closed form: saturate along the projection to the
Grassmannian whose degree component vanishes, or take the whole space when
both components move.  That closed form is implemented independently here
as a cross-check of the z_d route.
"""

from .ktheory import KClass, demazure_word, pullback
from .weyl import (
    Degree,
    FlagSpace,
    Perm,
    _check_effective,
    _check_min_rep,
    coset_min,
    demazure_product,
    longest_element,
    parabolic_longest,
    reduced_word,
    z_d,
)


def curve_neighborhood_schubert(space: FlagSpace, w, d: Degree) -> Perm:
    """Label of the degree-d curve neighborhood of the Schubert variety of w."""
    w = _check_min_rep(space, w)
    z = z_d(space, tuple(d))
    return coset_min(space, demazure_product(w, z))


def class_neighborhood(sigma: KClass, d: Degree) -> KClass:
    """The class of sigma moved by degree-d curves, on the complete flag.

    Partial-flag classes are pulled back first; the degree is read in the
    lattice of sigma's own space.  Schubert classes go to the Schubert
    class of their neighborhood label.
    """
    space = sigma.space
    z = z_d(space, tuple(d))
    if not space.is_full:
        sigma = pullback(sigma)
    return demazure_word(reduced_word(z), sigma)


def incidence_neighborhood_label(space: FlagSpace, w, d: Degree) -> Perm:
    """Closed-form neighborhood label on the incidence variety Fl(1, n-1; n).

    With the line degree zero the neighborhood is the preimage of the image
    under the projection remembering the line, and symmetrically for the
    hyperplane; with both components positive it is the whole space.
    """
    if not space.is_incidence:
        raise ValueError(f"{space} is not an incidence variety")
    w = _check_min_rep(space, w)
    d1, d2 = _check_effective(space, d)
    n = space.n
    if d1 == 0 and d2 == 0:
        return w
    if d1 > 0 and d2 > 0:
        return coset_min(space, longest_element(n))
    if d1 > 0:
        fiber = parabolic_longest(n, range(1, n - 1))
    else:
        fiber = parabolic_longest(n, range(2, n))
    return coset_min(space, demazure_product(w, fiber))
