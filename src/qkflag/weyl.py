"""Symmetric group combinatorics underlying flag varieties.

Permutations are tuples in one-line notation with 1-based values, so
``w[i - 1]`` is w(i). Composition is (u o v)(i) = u(v(i)). Right
multiplication by the simple reflection s_i swaps the entries at
positions i, i+1; left multiplication swaps the values i, i+1.

The module provides reduced words, Bruhat order, the Demazure (Hecke)
product, minimal coset representatives for partial flag varieties,
positive roots e_a - e_b, the curve-neighborhood elements z_d obtained by
greedily peeling maximal roots from an effective degree, and the factor
surgery that lowers a complete-flag degree by one simple root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

Perm = tuple[int, ...]
Degree = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def transposition(n: int, a: int, b: int) -> Perm:
    w = list(range(1, n + 1))
    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def compose(u: Perm, v: Perm) -> Perm:
    return tuple(u[x - 1] for x in v)


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        out[val - 1] = pos
    return tuple(out)


def length(w: Perm) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_mul(w: Perm, i: int) -> Perm:
    """w * s_i: swap the entries at positions i and i+1."""
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def reduced_word(w: Perm) -> tuple[int, ...]:
    """The lexicographically least reduced word of w.

    Taking the smallest left descent at each step and recursing on
    s_i * w yields the lex-least word, since a reduced word can start
    with the letter i exactly when i is a left descent.
    """
    word = []
    pos = list(inverse(w))
    w = list(w)
    n = len(w)
    while True:
        for i in range(1, n):
            if pos[i - 1] > pos[i]:
                break
        else:
            return tuple(word)
        word.append(i)
        p, q = pos[i - 1], pos[i]
        w[p - 1], w[q - 1] = w[q - 1], w[p - 1]
        pos[i - 1], pos[i] = q, p


def demazure_product(u: Perm, v: Perm) -> Perm:
    """The Hecke product u * v: absorb v letter by letter, keeping only
    the length-increasing right multiplications."""
    if len(u) != len(v):
        raise ValueError("permutations must have the same size")
    out = list(u)
    for i in reduced_word(v):
        if out[i - 1] < out[i]:
            out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Dominance criterion on one-line notation: u <= w iff for all i, j
    the count #{a <= i : u(a) > j} never exceeds the same count for w."""
    n = len(u)
    if len(w) != n:
        raise ValueError("permutations must have the same size")
    cu = [0] * (n + 1)
    cw = [0] * (n + 1)
    for i in range(n):
        for j in range(u[i]):
            cu[j] += 1
        for j in range(w[i]):
            cw[j] += 1
        for j in range(n + 1):
            if cu[j] > cw[j]:
                return False
    return True


# ---------------------------------------------------------------------- roots


@dataclass(frozen=True)
class Root:
    """The positive root e_a - e_b, for 1 <= a < b."""

    a: int
    b: int

    def __post_init__(self):
        if not 1 <= self.a < self.b:
            raise ValueError("a root needs 1 <= a < b")

    def to_perm(self, n: int) -> Perm:
        return transposition(n, self.a, self.b)


# ----------------------------------------------------------------- flag spaces


@dataclass(frozen=True)
class FlagSpace:
    """The partial flag variety Fl(r_1, ..., r_k; n).

    Torus-fixed points are the permutations increasing within each of the
    blocks cut out by consecutive ranks; these are the minimal length
    representatives of the cosets of the block-permuting subgroup.
    """

    n: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not self.ranks:
            raise ValueError("need at least one rank")
        prev = 0
        for r in self.ranks:
            if not isinstance(r, int) or not prev < r < self.n:
                raise ValueError("ranks must satisfy 0 < r_1 < ... < r_k < n")
            prev = r

    @staticmethod
    def full(n: int) -> "FlagSpace":
        return FlagSpace(n, tuple(range(1, n)))

    @property
    def k(self) -> int:
        return len(self.ranks)

    @property
    def is_full(self) -> bool:
        return self.ranks == tuple(range(1, self.n))

    @property
    def is_incidence(self) -> bool:
        return self.n >= 3 and self.ranks == (1, self.n - 1)

    @property
    def edges(self) -> tuple[int, ...]:
        """The rank sequence 0 = r_0 < r_1 < ... < r_k < r_{k+1} = n.

        edges[j] is the rank of S_j, with S_0 = 0 and S_{k+1} = C^n; the
        0-based positions edges[j] <= p < edges[j + 1] form block j, the
        one the quotient S_{j+1}/S_j sees.
        """
        return (0,) + self.ranks + (self.n,)

    def block_bounds(self) -> tuple[tuple[int, int], ...]:
        """0-based slice bounds of the position blocks, last block included."""
        e = self.edges
        return tuple((e[j], e[j + 1]) for j in range(self.k + 1))


def coset_min(space: FlagSpace, w: Perm) -> Perm:
    out = list(w)
    for a, b in space.block_bounds():
        out[a:b] = sorted(out[a:b])
    return tuple(out)


def coset_max(space: FlagSpace, w: Perm) -> Perm:
    out = list(w)
    for a, b in space.block_bounds():
        out[a:b] = sorted(out[a:b], reverse=True)
    return tuple(out)


def is_min_rep(space: FlagSpace, w: Perm) -> bool:
    return w == coset_min(space, w)


def _check_min_rep(space: FlagSpace, w) -> Perm:
    w = tuple(w)
    if sorted(w) != list(range(1, space.n + 1)) or not is_min_rep(space, w):
        raise ValueError(f"{w} is not a minimal coset representative of {space}")
    return w


@lru_cache(maxsize=None)
def _min_coset_reps(space: FlagSpace) -> tuple[Perm, ...]:
    sizes = [b - a for a, b in space.block_bounds()]
    reps: list[Perm] = []

    def assign(remaining: tuple[int, ...], acc: tuple[int, ...], block: int):
        if block == len(sizes):
            reps.append(acc)
            return
        for chosen in combinations(remaining, sizes[block]):
            rest = tuple(x for x in remaining if x not in chosen)
            assign(rest, acc + chosen, block + 1)

    assign(tuple(range(1, space.n + 1)), (), 0)
    reps.sort(key=lambda w: (length(w), w))
    return tuple(reps)


def min_coset_reps(space: FlagSpace) -> list[Perm]:
    """All fixed-point labels, sorted by (length, one-line) for determinism."""
    return list(_min_coset_reps(space))


@lru_cache(maxsize=None)
def _bruhat_below(space: FlagSpace) -> dict:
    """The labels v < h in Bruhat order, for each basis label h, in basis
    order."""
    reps = _min_coset_reps(space)
    return {h: [v for v in reps if v != h and bruhat_leq(v, h)] for h in reps}


# ------------------------------------------------------------------------- z_d


def _check_effective(space: FlagSpace, d: Degree) -> Degree:
    d = tuple(d)
    if len(d) != space.k:
        raise ValueError("degree length must match the number of ranks")
    if any(not isinstance(c, int) or c < 0 for c in d):
        raise ValueError("degree must be effective")
    return d


def _active_components(space: FlagSpace, d: Degree) -> list[tuple[int, int]]:
    """Maximal simple-root intervals avoiding every rank of degree zero
    and containing at least one rank of positive degree.

    Peeling the root of such an interval lowers by one each degree
    coordinate whose rank lies inside; peeling stops at zero because every
    active component contains a positive coordinate.
    """
    zero_marks = {r for r, c in zip(space.ranks, d) if c == 0}
    positive_marks = {r for r, c in zip(space.ranks, d) if c > 0}
    comps = []
    lo = None
    for i in range(1, space.n + 1):
        if i <= space.n - 1 and i not in zero_marks:
            if lo is None:
                lo = i
        else:
            if lo is not None:
                if any(lo <= r <= i - 1 for r in positive_marks):
                    comps.append((lo, i - 1))
                lo = None
    return comps


def _peel(space: FlagSpace, d: Degree, comp: tuple[int, int]) -> tuple[Root, Degree]:
    lo, hi = comp
    beta = Root(lo, hi + 1)
    lowered = tuple(
        c - 1 if lo <= r <= hi else c for r, c in zip(space.ranks, d)
    )
    return beta, lowered


@lru_cache(maxsize=None)
def _z_d_peels(space: FlagSpace, d: Degree) -> tuple[Root, ...]:
    peels = []
    comps = _active_components(space, d)
    while comps:
        beta, d = _peel(space, d, comps[0])
        peels.append(beta)
        comps = _active_components(space, d)
    return tuple(peels)


@lru_cache(maxsize=None)
def _z_d(space: FlagSpace, d: Degree) -> Perm:
    # each prefix of the reversed peels is z_d of an intermediate degree
    z = identity(space.n)
    for beta in reversed(_z_d_peels(space, d)):
        z = demazure_product(z, beta.to_perm(space.n))
        if inverse(z) != z:
            raise RuntimeError(f"z_d on the way to degree {d} is not an involution")
    return z


def z_d(space: FlagSpace, d: Degree) -> Perm:
    """The Weyl label of the degree-d neighborhood of a point: peel maximal
    roots off d until none is left, and take the Hecke product."""
    return _z_d(space, _check_effective(space, d))


def z_d_peels(space: FlagSpace, d: Degree) -> tuple[Root, ...]:
    """The greedy peel sequence; its reversed Hecke product is z_d."""
    return _z_d_peels(space, _check_effective(space, d))


def z_d_replace_factor(space: FlagSpace, d: Degree, i: int) -> Perm:
    """Lower a full-flag degree at the simple root i by factor surgery.

    Requires d_i > 0 and d_{i+1} = 0 (no constraint beyond the last
    coordinate). The peels whose support contains i form a chain of
    intervals [a, i] with weakly increasing a: later peels never extend
    further left, since coordinates only decrease. Rearranged so the
    chain sits at the end in reversed peel order, the innermost chain
    factor is the designated one; replacing its reflection root
    e_a - e_{i+1} by e_a - e_i (dropping it when a = i) produces the
    element for d - alpha_i.
    """
    if not space.is_full:
        raise ValueError("factor surgery is defined on the complete flag variety")
    d = _check_effective(space, d)
    n = space.n
    if not 1 <= i <= n - 1 or d[i - 1] == 0 or (i <= n - 2 and d[i] != 0):
        raise ValueError("need a positive coordinate followed by a zero")
    peels = z_d_peels(space, d)
    if any(b.a <= i + 1 < b.b for b in peels):
        raise RuntimeError(f"a peel of degree {d} crosses step {i + 1}")
    chain = [b for b in peels if b.a <= i < b.b]
    others = [b for b in peels if not (b.a <= i < b.b)]
    if not chain or any(b.b != i + 1 for b in chain):
        raise RuntimeError(f"the peels of degree {d} through step {i} "
                           f"do not form a chain ending at {i + 1}")
    arranged = list(reversed(others)) + list(reversed(chain))
    prods = [r.to_perm(n) for r in arranged]
    if reduce(demazure_product, prods, identity(n)) != _z_d(space, d):
        raise RuntimeError(f"the rearranged peels of degree {d} do not multiply to z_d")
    # in peel order the chain's left endpoints weakly increase, so the
    # designated factor (last peeled) has the innermost support
    if any(x.a > y.a for x, y in zip(chain, chain[1:])):
        raise RuntimeError(f"the chain of degree {d} at step {i} is not nested")
    designated = arranged[len(others)]
    head = prods[: len(others)]
    tail = prods[len(others) + 1 :]
    if designated.a == i:
        replaced = head + tail
    else:
        replaced = head + [Root(designated.a, i).to_perm(n)] + tail
    return reduce(demazure_product, replaced, identity(n))
