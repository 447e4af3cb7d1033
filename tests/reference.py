"""Independent references the tests compare the library against.

No command, verification or benchmark takes these routes, so they live with
the tests:

- simple reflections composed along a word, the palindromic reduced word of
  a reflection, and the longest element of a parabolic subgroup;
- z_d over every choice of maximal root at every peel level, which must
  agree with the greedy peel of ``weyl.z_d``;
- Demazure operators applied to a class along a word, and the class-level
  curve neighborhood, Demazure operators along z_d applied to the pullback
  of a class to the complete flag;
- tautological wedge classes built point by point from the fixed-point
  characters;
- the three-branch closed form of the neighborhood label on the incidence
  variety Fl(1, n-1; n);
- the q = 0 part of a quantum K element as a K-theory class.
"""

from functools import lru_cache

from qkflag.algebra import LaurentPolynomial, elem_sym
from qkflag.ktheory import KClass, demazure_op, scalar_class, schubert_class
from qkflag.qk import QKElement
from qkflag.weyl import (
    Degree,
    FlagSpace,
    Perm,
    Root,
    _active_components,
    _check_effective,
    _check_min_rep,
    _peel,
    compose,
    coset_min,
    demazure_product,
    identity,
    longest_element,
    min_coset_reps,
    reduced_word,
    z_d,
)


# -- words and parabolics -----------------------------------------------------


def simple_reflection(n: int, i: int) -> Perm:
    if not 1 <= i <= n - 1:
        raise ValueError("simple reflection index out of range")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def compose_word(n: int, word) -> Perm:
    acc = identity(n)
    for i in word:
        acc = compose(acc, simple_reflection(n, i))
    return acc


def root_word(root: Root) -> tuple[int, ...]:
    """Palindromic reduced word of the reflection: descend from b-1 to a,
    then climb back to b-1."""
    down = range(root.b - 1, root.a - 1, -1)
    up = range(root.a + 1, root.b)
    return tuple(down) + tuple(up)


def parabolic_longest(n: int, gens) -> Perm:
    """Longest element of the parabolic subgroup generated by the given
    simple reflections: reverse each run of consecutive generators."""
    gens = sorted(set(gens))
    out = list(range(1, n + 1))
    run_start = None
    prev = None
    for g in gens + [None]:
        if g is not None and not 1 <= g <= n - 1:
            raise ValueError("generator index out of range")
        if run_start is not None and (g is None or g != prev + 1):
            out[run_start - 1 : prev + 1] = reversed(out[run_start - 1 : prev + 1])
            run_start = None
        if g is not None and run_start is None:
            run_start = g
        prev = g
    return tuple(out)


# -- z_d over every peel choice -----------------------------------------------


@lru_cache(maxsize=None)
def _z_d_choices(space: FlagSpace, d: Degree) -> frozenset[Perm]:
    # one pass per peel level over (degree, Hecke product of the peels so far)
    results, pending = set(), {(d, identity(space.n))}
    while pending:
        peeled = set()
        for deg, suffix in pending:
            comps = _active_components(space, deg)
            if not comps:
                results.add(suffix)
            for comp in comps:
                beta, lowered = _peel(space, deg, comp)
                peeled.add((lowered, demazure_product(beta.to_perm(space.n), suffix)))
        pending = peeled
    return frozenset(results)


def z_d_choices(space: FlagSpace, d: Degree) -> frozenset[Perm]:
    """Results over every choice of maximal root at every peel level."""
    return _z_d_choices(space, _check_effective(space, d))


# -- classes ------------------------------------------------------------------


def demazure_word(word, sigma: KClass) -> KClass:
    """Apply Demazure operators along a word, first letter first."""
    for i in word:
        sigma = demazure_op(i, sigma)
    return sigma


def wedge_class(space: FlagSpace, lo: int, hi: int, ell: int) -> KClass:
    """The class restricting at w to e_ell of T_{w(p)} over the 0-based
    positions lo <= p < hi: wedge^ell S_j for (0, r_j), of a quotient
    S_{j+1}/S_j for (r_j, r_{j+1})."""
    n = space.n
    vals = {}
    for w in min_coset_reps(space):
        e = elem_sym([LaurentPolynomial.variable(n, w[p]) for p in range(lo, hi)], ell)
        vals[w] = LaurentPolynomial.one(n) * e
    return KClass(space, vals)


# -- curve neighborhoods ------------------------------------------------------


def pullback(sigma: KClass) -> KClass:
    """Pull a partial-flag class back to the complete flag variety.

    The value at u is the value at the minimal representative of u's coset.
    """
    space = sigma.space
    full = FlagSpace.full(space.n)
    vals = {u: sigma.values[coset_min(space, u)] for u in min_coset_reps(full)}
    return KClass(full, vals)


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


# -- quantum K elements -------------------------------------------------------


def classical_part(x: QKElement) -> KClass:
    """The q = 0 specialization as a K-theory class."""
    out = scalar_class(x.space, 0)
    for w, qs in x.coords.items():
        c = qs.constant_term()
        if not c.is_zero():
            out = out + schubert_class(x.space, w, "B") * c
    return out
