"""Tests for qkflag.weyl: permutations, words, cosets, roots, z_d."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import qkflag.weyl as weyl
from qkflag.weyl import (
    FlagSpace,
    Root,
    bruhat_leq,
    compose,
    coset_max,
    coset_min,
    demazure_product,
    identity,
    inverse,
    is_min_rep,
    length,
    longest_element,
    min_coset_reps,
    reduced_word,
    right_mul,
    transposition,
    z_d,
    z_d_peels,
    z_d_replace_factor,
)

from reference import (
    compose_word,
    parabolic_longest,
    root_word,
    simple_reflection,
    z_d_choices,
)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


@st.composite
def perm_pairs(draw, count=2, nmin=2, nmax=5):
    n = draw(st.integers(nmin, nmax))
    return tuple(tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(count))


# ---------------------------------------------------------------- basics


def test_compose_convention():
    # (u o v)(i) = u(v(i)), so s1 o s2 sends 2 -> 3 -> 3 ... explicitly:
    s1 = simple_reflection(3, 1)
    s2 = simple_reflection(3, 2)
    assert compose(s1, s2) == (2, 3, 1)
    assert compose(s2, s1) == (3, 1, 2)
    u = (2, 3, 1)
    assert compose(u, inverse(u)) == identity(3)
    assert compose(inverse(u), u) == identity(3)


def test_side_multiplication():
    for w in all_perms(4):
        for i in range(1, 4):
            assert right_mul(w, i) == compose(w, simple_reflection(4, i))
            swapped = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
            assert compose(simple_reflection(4, i), w) == swapped


def test_length_counts_inversions():
    for w in all_perms(4):
        brute = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if w[i] > w[j]
        )
        assert length(w) == brute
    assert length(longest_element(5)) == 10


@given(perm_pairs(count=1))
def test_length_of_inverse(pair):
    (w,) = pair
    assert length(inverse(w)) == length(w)


def test_reduced_word_reconstructs():
    for w in all_perms(5):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert compose_word(5, word) == w


def all_reduced_words(w):
    if length(w) == 0:
        yield ()
        return
    n = len(w)
    for i in range(1, n):
        wi = compose(simple_reflection(n, i), w)
        if length(wi) < length(w):
            for rest in all_reduced_words(wi):
                yield (i,) + rest


def test_reduced_word_is_lex_least():
    for w in all_perms(4):
        assert reduced_word(w) == min(all_reduced_words(w))


# ---------------------------------------------------------------- Hecke product


def test_hecke_product_basics():
    s1 = simple_reflection(3, 1)
    s2 = simple_reflection(3, 2)
    assert demazure_product(s1, s1) == s1
    assert demazure_product(s1, s2) == compose(s1, s2)
    w0 = longest_element(4)
    for v in all_perms(4):
        assert demazure_product(w0, v) == w0
        assert demazure_product(v, identity(4)) == v
        assert demazure_product(identity(4), v) == v


def test_hecke_product_reduces_to_composition_when_lengths_add():
    for u in all_perms(4):
        for i in range(1, 4):
            s = simple_reflection(4, i)
            if length(right_mul(u, i)) > length(u):
                assert demazure_product(u, s) == compose(u, s)
            else:
                assert demazure_product(u, s) == u


@settings(max_examples=200)
@given(perm_pairs(count=3))
def test_hecke_product_associative(triple):
    u, v, w = triple
    left = demazure_product(demazure_product(u, v), w)
    right = demazure_product(u, demazure_product(v, w))
    assert left == right


def test_hecke_product_dominates_factors():
    for u in all_perms(4):
        for v in all_perms(4):
            p = demazure_product(u, v)
            assert bruhat_leq(u, p)
            assert bruhat_leq(v, p)


# ---------------------------------------------------------------- Bruhat order


def bruhat_leq_by_subwords(u, w):
    # u <= w iff some reduced word of w contains a reduced word of u
    word = reduced_word(w)
    lu = length(u)
    n = len(w)
    for picks in itertools.combinations(range(len(word)), lu):
        if compose_word(n, tuple(word[p] for p in picks)) == u:
            return True
    return lu == 0


def test_bruhat_matches_subword_criterion():
    for u in all_perms(4):
        for w in all_perms(4):
            assert bruhat_leq(u, w) == bruhat_leq_by_subwords(u, w)


def test_bruhat_poset_sanity():
    e = identity(4)
    w0 = longest_element(4)
    for u in all_perms(4):
        assert bruhat_leq(e, u)
        assert bruhat_leq(u, w0)
        assert bruhat_leq(u, u)
        for w in all_perms(4):
            if bruhat_leq(u, w):
                assert length(u) <= length(w)
                if bruhat_leq(w, u):
                    assert u == w


# ---------------------------------------------------------------- coset reps


def test_min_coset_reps_small_spaces():
    assert min_coset_reps(FlagSpace(3, (1,))) == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
    assert min_coset_reps(FlagSpace(3, (1, 2))) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    assert len(min_coset_reps(FlagSpace(4, (1, 3)))) == 12
    assert len(min_coset_reps(FlagSpace(4, (2,)))) == 6
    assert len(min_coset_reps(FlagSpace(4, (1, 2, 3)))) == 24
    assert len(min_coset_reps(FlagSpace(5, (2, 3)))) == 30


def test_min_coset_reps_count_is_multinomial():
    for n, ranks in [(4, (1, 3)), (5, (2,)), (5, (1, 4)), (5, (1, 2, 3, 4))]:
        space = FlagSpace(n, ranks)
        sizes = [b - a for a, b in space.block_bounds()]
        expect = math.factorial(n)
        for s in sizes:
            expect //= math.factorial(s)
        assert len(min_coset_reps(space)) == expect


def test_min_coset_reps_are_increasing_within_blocks():
    space = FlagSpace(5, (2, 3))
    for w in min_coset_reps(space):
        for a, b in space.block_bounds():
            block = w[a:b]
            assert list(block) == sorted(block)
        assert is_min_rep(space, w)


def test_coset_projections():
    space = FlagSpace(4, (1, 3))
    for w in all_perms(4):
        lo = coset_min(space, w)
        hi = coset_max(space, w)
        assert is_min_rep(space, lo)
        assert coset_min(space, lo) == lo
        # same coset: blocks carry the same value sets
        for a, b in space.block_bounds():
            assert sorted(w[a:b]) == sorted(lo[a:b]) == sorted(hi[a:b])
        assert bruhat_leq(lo, w)
        assert bruhat_leq(w, hi)


# ---------------------------------------------------------------- roots


def test_root_words():
    assert root_word(Root(1, 2)) == (1,)
    assert root_word(Root(1, 3)) == (2, 1, 2)
    assert root_word(Root(2, 4)) == (3, 2, 3)
    assert root_word(Root(1, 4)) == (3, 2, 1, 2, 3)
    for n in range(2, 6):
        for r in (Root(a, b) for a, b in itertools.combinations(range(1, n + 1), 2)):
            t = r.to_perm(n)
            assert t == transposition(n, r.a, r.b)
            assert compose_word(n, root_word(r)) == t
            assert length(t) == len(root_word(r)) == 2 * (r.b - r.a) - 1


def test_reflections_commute_when_supports_nested_or_separated():
    # adjacent disjoint supports genuinely fail to commute (s1*s2 != s2*s1),
    # so the testable rule needs a full gap between disjoint supports
    for n in range(2, 6):
        roots = [Root(a, b) for a, b in itertools.combinations(range(1, n + 1), 2)]
        for x in roots:
            for y in roots:
                sx, sy = set(range(x.a, x.b)), set(range(y.a, y.b))
                nested = sx <= sy or sy <= sx
                separated = max(sx) < min(sy) - 1 or max(sy) < min(sx) - 1
                a = demazure_product(x.to_perm(n), y.to_perm(n))
                b = demazure_product(y.to_perm(n), x.to_perm(n))
                if nested or separated:
                    assert a == b
    s1 = Root(1, 2).to_perm(3)
    s2 = Root(2, 3).to_perm(3)
    assert demazure_product(s1, s2) != demazure_product(s2, s1)


def test_reflection_absorbs_simple_at_support_edge():
    # a reflection swallows the simple reflections at the two ends of its
    # support; an interior simple instead pushes the product strictly up
    for n in range(3, 6):
        for r in (Root(a, b) for a, b in itertools.combinations(range(1, n + 1), 2)):
            t = r.to_perm(n)
            for i in (r.a, r.b - 1):
                s = simple_reflection(n, i)
                assert demazure_product(s, t) == t
                assert demazure_product(t, s) == t
    t14 = Root(1, 4).to_perm(4)
    s2 = simple_reflection(4, 2)
    assert demazure_product(t14, s2) == longest_element(4)


# ---------------------------------------------------------------- z_d


def test_z_d_full_flag_small_cases():
    space3 = FlagSpace(3, (1, 2))
    assert z_d(space3, (0, 0)) == (1, 2, 3)
    assert z_d(space3, (1, 0)) == (2, 1, 3)
    assert z_d(space3, (0, 1)) == (1, 3, 2)
    assert z_d(space3, (1, 1)) == (3, 2, 1)
    assert z_d(space3, (2, 0)) == (2, 1, 3)


def test_z_d_disjoint_runs_give_commuting_reflections():
    space4 = FlagSpace(4, (1, 2, 3))
    assert z_d(space4, (1, 0, 1)) == (2, 1, 4, 3)
    assert z_d(space4, (1, 1, 1)) == (4, 2, 3, 1)


def test_z_d_saturates_at_large_degree():
    for n in range(2, 6):
        space = FlagSpace.full(n)
        d = tuple([n] * (n - 1))
        assert z_d(space, d) == longest_element(n)


def test_z_d_partial_spaces():
    inc4 = FlagSpace(4, (1, 3))
    assert z_d(inc4, (0, 1)) == (1, 4, 3, 2)
    assert coset_min(inc4, z_d(inc4, (0, 1))) == (1, 3, 4, 2)
    assert z_d(inc4, (1, 0)) == (3, 2, 1, 4)
    assert coset_min(inc4, z_d(inc4, (1, 0))) == (3, 1, 2, 4)
    assert z_d(inc4, (1, 1)) == (4, 2, 3, 1)
    assert z_d(inc4, (2, 1)) == (4, 3, 2, 1)
    # projective space: degree one lines through a point fill the space
    gr13 = FlagSpace(3, (1,))
    assert z_d(gr13, (1,)) == (3, 2, 1)
    assert coset_min(gr13, z_d(gr13, (1,))) == (3, 1, 2)
    # Gr(2,4) needs degree two to saturate
    gr24 = FlagSpace(4, (2,))
    assert z_d(gr24, (1,)) == (4, 2, 3, 1)
    assert z_d(gr24, (2,)) == (4, 3, 2, 1)


def degree_grid(k, bound):
    return itertools.product(range(bound + 1), repeat=k)


def test_z_d_is_an_involution():
    for n in range(2, 5):
        space = FlagSpace.full(n)
        for d in degree_grid(n - 1, 3):
            z = z_d(space, d)
            assert inverse(z) == z
    for n, ranks in [(4, (1, 3)), (4, (2,)), (5, (1, 4)), (5, (2, 3))]:
        space = FlagSpace(n, ranks)
        for d in degree_grid(len(ranks), 2):
            z = z_d(space, d)
            assert inverse(z) == z


def test_z_d_choice_independent():
    for n in range(2, 6):
        space = FlagSpace.full(n)
        for d in degree_grid(n - 1, 3):
            choices = z_d_choices(space, d)
            assert choices == frozenset({z_d(space, d)})
    for n, ranks in [(4, (1, 3)), (4, (2,)), (5, (1, 4)), (5, (2, 3))]:
        space = FlagSpace(n, ranks)
        for d in degree_grid(len(ranks), 2):
            assert z_d_choices(space, d) == frozenset({z_d(space, d)})
    # one peel level per unit of degree, far past the recursion limit
    space = FlagSpace(3, (1, 2))
    assert z_d_choices(space, (600, 0)) == frozenset({z_d(space, (600, 0))})


def test_z_d_peels_multiply_back():
    for n, ranks in [(4, (1, 2, 3)), (5, (1, 2, 3, 4)), (4, (1, 3)), (5, (2, 3))]:
        space = FlagSpace(n, ranks)
        for d in degree_grid(len(ranks), 2):
            peels = z_d_peels(space, d)
            acc = identity(n)
            for root in reversed(peels):
                acc = demazure_product(acc, root.to_perm(n))
            assert acc == z_d(space, d)


def test_z_d_rejects_negative_degrees():
    with pytest.raises(ValueError):
        z_d(FlagSpace(3, (1, 2)), (-1, 0))


# ------------------------------------------------- degree-lowering factor surgery


def valid_drop_positions(n, d):
    out = []
    for i in range(1, n):
        if d[i - 1] != 0 and (i == n - 1 or d[i] == 0):
            out.append(i)
    return out


def test_z_d_replace_factor_matches_direct_recursion():
    for n in range(2, 6):
        space = FlagSpace.full(n)
        for d in degree_grid(n - 1, 3):
            for i in valid_drop_positions(n, d):
                lowered = tuple(
                    c - 1 if j == i - 1 else c for j, c in enumerate(d)
                )
                assert z_d_replace_factor(space, d, i) == z_d(space, lowered)


def test_z_d_replace_factor_mutation_is_detected(skip_surgery):
    # skipping the factor replacement leaves z_d itself, which differs from
    # the lowered element in the simplest possible case
    space = FlagSpace.full(2)
    kept = skip_surgery(space, (1,), 1)
    assert kept == z_d(space, (1,))
    assert kept != z_d_replace_factor(space, (1,), 1)
    assert kept != z_d(space, (0,))


@pytest.mark.parametrize("peels", [
    (),                  # no peel runs through the step
    (Root(1, 3),),       # a peel crosses past the step
])
def test_z_d_replace_factor_broken_peels_raise(monkeypatch, peels):
    # the surgery's invariants are exceptions, so they hold under python -O
    monkeypatch.setattr(weyl, "z_d_peels", lambda space, d: peels)
    with pytest.raises(RuntimeError):
        z_d_replace_factor(FlagSpace.full(3), (1, 0), 1)


# ---------------------------------------------------------------- parabolics


def test_parabolic_longest():
    assert parabolic_longest(4, ()) == (1, 2, 3, 4)
    assert parabolic_longest(4, (2, 3)) == (1, 4, 3, 2)
    assert parabolic_longest(4, (1, 2, 3)) == (4, 3, 2, 1)
    assert parabolic_longest(4, (1, 3)) == (2, 1, 4, 3)
    assert parabolic_longest(6, (1, 2, 4)) == (3, 2, 1, 5, 4, 6)


def test_flag_space_validation():
    with pytest.raises(ValueError):
        FlagSpace(3, ())
    with pytest.raises(ValueError):
        FlagSpace(3, (0, 2))
    with pytest.raises(ValueError):
        FlagSpace(3, (2, 2))
    with pytest.raises(ValueError):
        FlagSpace(3, (1, 3))
    assert FlagSpace.full(4).ranks == (1, 2, 3)
    assert FlagSpace(5, (1, 4)).is_incidence
    assert not FlagSpace(5, (2, 4)).is_incidence
    assert FlagSpace.full(3).is_incidence
