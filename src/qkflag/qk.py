"""Quantum K-theory products and relation checks, truncated in q.

Everything here is driven by two- and three-point invariants that reduce to
classical sheaf Euler characteristics over curve neighborhoods:

    <sigma, O_w>_d            = chi(sigma * O_{Gamma_d(X_w)})
    <det S_j, sigma, O_w>_d   = 0                                  if d_j > 0
                              = chi(det S_j * sigma * O_{Gamma_d(X_w)})  else

The vanishing branch is a theorem on incidence varieties and Grassmannians
and a conjecture on complete flag varieties; a GWOracle records which of
these licenses is being used, and every report produced from the
conjectural mode is labeled CONDITIONAL.

Products with a line bundle factor are defined through the quantum metric:
L * sigma is the unique element whose pairings against the Schubert basis
match the three-point column.  Each metric entry chi(O^v * O_g) is the Euler
characteristic of a Richardson variety, which is 1 when v <= g in Bruhat
order and 0 (the variety is empty) otherwise, so the degree-d metric
factors as P_d * Z: P_d sends u to its curve-neighborhood label
Gamma_d(u) and Z[g][v] = [v <= g] is the Bruhat indicator.  The
three-point column factors through the same P_d, so products solve the
factored system P y = P' b, where y holds the classical pairings of the
product against the O_g.  P is the identity at q = 0, so the truncated
system solves by substitution with no division.  General products of two
non-line-bundle classes are out of scope.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

from .algebra import LaurentPolynomial, QSeries, RationalFunction, _grlex_key, t_elem
from .curves import curve_neighborhood_schubert
from .ktheory import (
    KClass,
    bundle_class,
    bundle_quotient_class,
    det_class,
    demazure_word,
    euler_char,
    expand_schubert,
    pairings,
    scalar_class,
    schubert_class,
    zero_class,
)
from .weyl import (
    Degree,
    FlagSpace,
    Perm,
    _check_effective,
    bruhat_leq,
    min_coset_reps,
    reduced_word,
    z_d,
    z_d_replace_factor,
)


def degree_box(k: int, bound: int) -> list[Degree]:
    """All effective degrees with every component at most bound, sorted by
    total degree and then lexicographically."""
    if bound < 0:
        raise ValueError("need a nonnegative truncation bound")
    return sorted(iter_product(range(bound + 1), repeat=k), key=_grlex_key)


# -- invariants -------------------------------------------------------------


def gw2(sigma: KClass, w: Perm, d: Degree) -> RationalFunction:
    """Two-point invariant of sigma against the Schubert class of w."""
    space = sigma.space
    g = curve_neighborhood_schubert(space, w, d)
    return euler_char(sigma * schubert_class(space, g, "B"))


_MODES = ("incidence-proven", "grassmannian-proven", "full-flag-conjectural")


@dataclass(frozen=True)
class GWOracle:
    """License for the vanishing branch of divisor three-point invariants.

    The incidence and Grassmannian modes are proven; the full-flag mode is
    conjectural and everything derived from it must be reported as
    conditional.  drop_vanishing lists flag steps whose vanishing rule is
    suppressed in favor of the classical curve-neighborhood value; it exists
    only to drive the mutated-oracle negative controls in the verification
    reports.
    """

    mode: str
    space: FlagSpace
    drop_vanishing: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "drop_vanishing", tuple(self.drop_vanishing))
        if self.mode not in _MODES:
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        space = self.space
        if self.mode == "incidence-proven" and not space.is_incidence:
            raise ValueError("incidence-proven mode needs ranks (1, n-1)")
        if self.mode == "grassmannian-proven" and space.k != 1:
            raise ValueError("grassmannian-proven mode needs a single rank")
        if self.mode == "full-flag-conjectural" and not space.is_full:
            raise ValueError("full-flag-conjectural mode needs the complete flag")

    @property
    def proven(self) -> bool:
        return self.mode != "full-flag-conjectural"

    def divisor_steps(self) -> tuple[int, ...]:
        if self.mode == "grassmannian-proven":
            return (1,)
        return tuple(range(1, self.space.k + 1))


def _check_licence(oracle: GWOracle, j: int):
    if j not in oracle.divisor_steps():
        raise ValueError(
            f"step {j} is not licensed by the {oracle.mode} oracle on this space"
        )


def _vanishes(d: Degree, j: int, dropped: bool) -> bool:
    """The vanishing rule: <det S_j, sigma, O_w>_d = 0 whenever d_j > 0.

    On incidence varieties Fl(1, n-1; n) and on Grassmannians the rule is
    a theorem.  On the complete flag variety it follows from the quantum K
    divisor axiom conjectured by Buch and Mihalcea, so there it is a
    conjecture and everything resting on it is reported as conditional.
    dropped suppresses the rule on step j, which only the mutated-oracle
    negative controls do.
    """
    return d[j - 1] > 0 and not dropped


def _divisor_char(oracle: GWOracle, j: int, sigma: KClass, w: Perm,
                  d: Degree) -> RationalFunction:
    space = oracle.space
    _check_licence(oracle, j)
    d = _check_effective(space, d)
    if _vanishes(d, j, j in oracle.drop_vanishing):
        return RationalFunction.of(0, space.n)
    g = curve_neighborhood_schubert(space, w, d)
    return euler_char(det_class(space, j) * sigma * schubert_class(space, g, "B"))


def _parse_line_arg(oracle: GWOracle, L):
    """Reduce a supported line-bundle argument to c0 + c1 * det S_j.

    Supported forms: ("det", j), ("sub1",) for the rank-one subbundle,
    ("opposite", j) for the structure sheaf of the opposite Schubert divisor
    crossing step j, and ("affine", c0, c1, j) with coefficients in K_T(pt).
    The opposite divisor class satisfies det S_j = m_j (1 - O^{s_{r_j}})
    with m_j the identity-coset restriction, so it is affine in det S_j.
    """
    space = oracle.space
    n = space.n
    if not isinstance(L, tuple) or not L:
        raise ValueError("line bundle argument must be a descriptor tuple")
    kind = L[0]
    if kind == "det" and len(L) == 2:
        return RationalFunction.of(0, n), RationalFunction.of(1, n), L[1]
    if kind == "sub1" and len(L) == 1:
        if space.ranks[0] != 1:
            raise ValueError("the first step does not have rank one here")
        return RationalFunction.of(0, n), RationalFunction.of(1, n), 1
    if kind == "opposite" and len(L) == 2:
        j = L[1]
        if not 1 <= j <= space.k:
            raise ValueError(f"no flag step {j} on this space")
        m_j = det_class(space, j).at(min_coset_reps(space)[0])
        return RationalFunction.of(1, n), RationalFunction.of(-1, n) / m_j, j
    if kind == "affine" and len(L) == 4:
        return (RationalFunction.of(L[1], n), RationalFunction.of(L[2], n), L[3])
    raise ValueError(f"unsupported line bundle descriptor {L!r}")


def gw3_divisor(oracle: GWOracle, L, sigma: KClass, w: Perm,
                d: Degree) -> RationalFunction:
    """Three-point invariant whose first argument is a supported line bundle."""
    if sigma.space != oracle.space:
        raise ValueError("class and oracle live on different spaces")
    c0, c1, j = _parse_line_arg(oracle, L)
    out = RationalFunction.of(0, oracle.space.n)
    if not c0.is_zero():
        out = out + c0 * gw2(sigma, w, d)
    if not c1.is_zero():
        out = out + c1 * _divisor_char(oracle, j, sigma, w, d)
    return out


# -- the quantum metric -----------------------------------------------------


@lru_cache(maxsize=None)
def _neighborhoods(space: FlagSpace, bound: int) -> dict:
    """The labels (d, Gamma_d(u)) of each basis label u, in degree_box order:
    the entries q^d of the factor P of the quantum metric.  Gamma_0(u) = u
    makes P the identity at q = 0; a violation is an internal error."""
    out = {}
    for u in min_coset_reps(space):
        out[u] = [(d, curve_neighborhood_schubert(space, u, d))
                  for d in degree_box(space.k, bound)]
        if out[u][0][1] != u:
            raise RuntimeError(f"quantum metric solve failed: Gamma_0({u}) is not {u}")
    return out


@lru_cache(maxsize=None)
def quantum_gram(space: FlagSpace, bound: int):
    """Pairings sum_{d <= bound} q^d <O_u, O^v>_d as a nested dict.

    Rows are indexed by u, columns by v, both over the minimal coset
    representatives.  The degree-d pairing is chi(O^v * O_g) with
    g = Gamma_d(u), the Euler characteristic of the Richardson variety
    X^v meet X_g: it is 1 when v <= g in Bruhat order and 0 otherwise, so
    every coefficient is the 0/1 Bruhat indicator.  The constant term is
    the indicator of v <= u, which makes the matrix invertible within the
    truncation.  This is the dense form of the metric; products solve the
    factored form P * Z instead (see _det_column).
    """
    reps = min_coset_reps(space)
    k, n = space.k, space.n
    one = RationalFunction.of(1, n)
    return {
        u: {v: QSeries(k, n, bound, {d: one for d, g in labels if bruhat_leq(v, g)})
            for v in reps}
        for u, labels in _neighborhoods(space, bound).items()
    }


@lru_cache(maxsize=None)
def _dual_classes(space: FlagSpace) -> dict:
    """O_w coordinates of the classes D_g with chi(D_g * O_h) = [g = h].

    chi(O^g * O_h) = [g <= h] gives O^g = sum_{h >= g} D_h, so the D_g are
    computed from the top down as D_g = O^g - sum_{h > g} D_h.
    """
    dual: dict = {}
    for g in reversed(min_coset_reps(space)):
        coords = expand_schubert(schubert_class(space, g, "B-"), "B")
        for h, dh in dual.items():
            if bruhat_leq(g, h):
                coords = {u: c - dh[u] for u, c in coords.items()}
        dual[g] = coords
    return dual


# -- quantum K elements -----------------------------------------------------


@dataclass(frozen=True)
class QKElement:
    """Coordinate vector over the Schubert classes O_w with truncated q-series
    entries.  Module operations are coordinatewise and setting q = 0 gives
    an ordinary K-theory class.
    """

    space: FlagSpace
    bound: int
    coords: dict

    def __post_init__(self):
        reps = set(min_coset_reps(self.space))
        k, n = self.space.k, self.space.n
        clean = {}
        for w, qs in self.coords.items():
            if w not in reps:
                raise ValueError(f"{w} is not a basis label for this space")
            if not isinstance(qs, QSeries) or (qs.k, qs.nvars, qs.bound) != (k, n, self.bound):
                raise ValueError("coordinates must be q-series of the right shape")
            if not qs.is_zero():
                clean[w] = qs
        object.__setattr__(self, "coords", clean)

    def at(self, w: Perm) -> QSeries:
        w = tuple(w)
        qs = self.coords.get(w)
        if qs is None:
            if w not in min_coset_reps(self.space):
                raise ValueError(f"{w} is not a basis label for this space")
            return QSeries.zero(self.space.k, self.space.n, self.bound)
        return qs

    def is_zero(self) -> bool:
        return not self.coords

    def _check_same(self, other: "QKElement"):
        if (self.space, self.bound) != (other.space, other.bound):
            raise ValueError("elements live in different truncated rings")

    def __add__(self, other):
        if not isinstance(other, QKElement):
            return NotImplemented
        self._check_same(other)
        out = dict(self.coords)
        for w, qs in other.coords.items():
            cur = out.get(w)
            out[w] = qs if cur is None else cur + qs
        return QKElement(self.space, self.bound, out)

    def __sub__(self, other):
        if not isinstance(other, QKElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QKElement(self.space, self.bound,
                         {w: -qs for w, qs in self.coords.items()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPolynomial, RationalFunction, QSeries)):
            return QKElement(self.space, self.bound,
                             {w: qs * other for w, qs in self.coords.items()})
        return NotImplemented

    __rmul__ = __mul__

    def classical_part(self) -> KClass:
        """The q = 0 specialization as a K-theory class."""
        out = zero_class(self.space)
        for w, qs in self.coords.items():
            c = qs.constant_term()
            if not c.is_zero():
                out = out + schubert_class(self.space, w, "B") * c
        return out


def embed_classical(sigma: KClass, bound: int) -> QKElement:
    """A K-theory class as a q-constant element, expanded in the O_w basis."""
    coords = expand_schubert(sigma, "B")
    space = sigma.space
    k, n = space.k, space.n
    qc = {
        w: QSeries(k, n, bound, {(0,) * k: c})
        for w, c in coords.items()
        if not c.is_zero()
    }
    return QKElement(space, bound, qc)


def basis_element(space: FlagSpace, w: Perm, bound: int) -> QKElement:
    """The class O_w as a quantum K element."""
    w = tuple(w)
    if w not in min_coset_reps(space):
        raise ValueError(f"{w} is not a basis label for this space")
    one = QSeries.one(space.k, space.n, bound)
    return QKElement(space, bound, {w: one})


# -- line bundle products ---------------------------------------------------


def _triangular_solve(space: FlagSpace, bound: int, rows: list, rhs: dict,
                      diag: dict | None = None) -> dict:
    """Solve sum_c A[r][c] x_c = rhs_r for truncated q-series unknowns.

    rows lists (r, entries) in solving order, entries mapping each column c
    to the q-series A[r][c].  The q = 0 part must be triangular for that
    order: a row's constant entries off the diagonal involve only unknowns
    of earlier rows, and the diagonal constant is diag[r], or 1 when diag is
    None.  Callers check this.  Every degree is then solved in order of
    total degree by exact substitution, dividing only by diag.
    """
    k, n = space.k, space.n
    zero_deg = (0,) * k
    zero = RationalFunction.of(0, n)
    plan = []
    for r, entries in rows:
        shifts: dict = {}
        for c, qs in entries.items():
            for t, a in qs.coeffs.items():
                if c != r or t != zero_deg:
                    shifts.setdefault(t, []).append((c, a))
        plan.append((r, list(shifts.items())))
    sol: dict = {r: {} for r, _ in rows}
    for dcur in degree_box(k, bound):
        for r, shifts in plan:
            acc = rhs[r].coeffs.get(dcur, zero)
            for t, terms in shifts:
                if all(x <= y for x, y in zip(t, dcur)):
                    key = tuple(y - x for x, y in zip(t, dcur))
                    for c, a in terms:
                        sv = sol[c].get(key)
                        if sv is not None:
                            acc = acc - a * sv
            if diag is not None:
                acc = acc / diag[r]
            if not acc.is_zero():
                sol[r][dcur] = acc
    return {r: QSeries(k, n, bound, sol[r]) for r in sol}


@lru_cache(maxsize=None)
def _det_column(space: FlagSpace, j: int, dropped: bool, bound: int,
                w: Perm) -> QKElement:
    """det S_j * O_w through the factored metric, in the O_w basis.

    The metric is sum_d q^d P_d Z and the three-point column is
    sum_d q^d P_d b over the degrees the vanishing rule allows, with
    b_g = chi(det S_j * O_w * O_g).  So y = Z s solves P y = P' b: each row
    u of P has the entry q^d at column Gamma_d(u), and P' keeps only the
    allowed degrees.  y_g is the classical pairing of the product against
    O_g, and the dual classes turn it into O_w coordinates.  dropped selects
    the mutated vanishing rule on step j.
    """
    k, n = space.k, space.n
    one = RationalFunction.of(1, n)
    b = pairings(det_class(space, j) * schubert_class(space, w, "B"))
    rows, rhs = [], {}
    for u, labels in _neighborhoods(space, bound).items():
        entries: dict = {}
        allowed = {}
        for d, g in labels:
            entries.setdefault(g, {})[d] = one
            if not _vanishes(d, j, dropped):
                allowed[d] = b[g]
        rows.append((u, {g: QSeries(k, n, bound, c) for g, c in entries.items()}))
        rhs[u] = QSeries(k, n, bound, allowed)
    dual = _dual_classes(space)
    out = QKElement(space, bound, {})
    for g, qs in _triangular_solve(space, bound, rows, rhs).items():
        out = out + QKElement(space, bound, {
            u: qs * c for u, c in dual[g].items() if not c.is_zero()})
    return out


def _line_operands(oracle: GWOracle, L, sigma: QKElement, bound: int):
    """Check that sigma lives on the oracle's space at this bound and reduce
    L to (c0, c1, j), with step j licensed whenever det S_j enters."""
    if not isinstance(sigma, QKElement) or sigma.space != oracle.space:
        raise ValueError("the element must live on the oracle's space")
    if sigma.bound != bound:
        raise ValueError("truncation bounds disagree")
    c0, c1, j = _parse_line_arg(oracle, L)
    if not c1.is_zero():
        _check_licence(oracle, j)
    return c0, c1, j


def line_bundle_product(oracle: GWOracle, L, sigma: QKElement,
                        bound: int) -> QKElement:
    """The product L * sigma determined by matching three-point pairings.

    sigma must carry O_w coordinates at the same truncation; the result is
    returned in the same basis.  Linearity over K_T(pt)[q] holds by
    construction, and the q = 0 part is the classical product.  For
    L = c0 + c1 det S_j the c0 part is c0 * sigma outright, since solving
    the metric against sigma's own pairings returns sigma.  The c1 part is
    sum_w sigma_w * (det S_j * O_w): the truncated solve is K_T(pt)[q]-linear,
    so each column det S_j * O_w is solved once per (space, j, vanishing
    rule, bound) through the factored metric P * Z and cached, and only the
    columns sigma touches are ever solved.
    """
    space = oracle.space
    c0, c1, j = _line_operands(oracle, L, sigma, bound)
    if c1.is_zero():
        return sigma * c0
    dropped = j in oracle.drop_vanishing
    acc = QKElement(space, bound, {})
    for w, qs in sigma.coords.items():
        acc = acc + _det_column(space, j, dropped, bound, w) * qs
    return sigma * c0 + acc * c1


@lru_cache(maxsize=None)
def _line_matrix(oracle: GWOracle, L, bound: int):
    """Matrix of the product operator for a line class, as columns over
    the basis.  The classical part is supported on u <= w in Bruhat order
    with an invertible restriction on the diagonal, which is what makes
    the operator invertible within the truncation."""
    space = oracle.space
    reps = min_coset_reps(space)
    index = {u: i for i, u in enumerate(reps)}
    cols = {}
    for w in reps:
        col = line_bundle_product(oracle, L, basis_element(space, w, bound), bound)
        for u, qs in col.coords.items():
            c = qs.constant_term()
            if not c.is_zero() and index[u] > index[w]:
                raise RuntimeError("line product operator is not triangular")
        cols[w] = col
    return cols


def line_bundle_solve(oracle: GWOracle, L, sigma: QKElement,
                      bound: int) -> QKElement:
    """The unique tau with L * tau = sigma.

    Line bundle classes are units, so the product operator is invertible:
    its classical part is triangular with unit monomials on the diagonal,
    so rows are solved in reverse basis order, dividing by the diagonal,
    and the quantum corrections are handled degree by degree.  A class that
    vanishes at some fixed point, such as the opposite divisor at the
    identity coset, is not a unit and is refused.
    """
    space = oracle.space
    c0, c1, j = _line_operands(oracle, L, sigma, bound)
    reps = min_coset_reps(space)
    for w in reps:
        # the operator's diagonal entry at w is the restriction L|_w
        value = c0 if c1.is_zero() else c0 + c1 * det_class(space, j).at(w)
        if value.is_zero():
            raise ValueError(f"{L!r} vanishes at the fixed point {w}, "
                             "so it is not a unit")
    cols = _line_matrix(oracle, L, bound)
    diag = {}
    for w in reps:
        c = cols[w].at(w).constant_term()
        if c.is_zero():
            raise RuntimeError("line product operator has a singular diagonal")
        diag[w] = c
    rows = [(w, {wp: cols[wp].coords[w] for wp in reps if w in cols[wp].coords})
            for w in reversed(reps)]
    rhs = {w: sigma.at(w) for w in reps}
    return QKElement(space, bound,
                     _triangular_solve(space, bound, rows, rhs, diag))


# -- verification reports ---------------------------------------------------


def _report(check: str, space: FlagSpace, bound: int, status: str,
            witnesses: list) -> dict:
    return {
        "check": check,
        "space": {"n": space.n, "ranks": list(space.ranks)},
        "truncation": bound,
        "status": status,
        "witnesses": witnesses,
    }


def _diff_witnesses(witnesses: list, relation: str, lhs: QKElement,
                    rhs: QKElement, y_power: int):
    diff = lhs - rhs
    for w in min_coset_reps(diff.space):
        qs = diff.coords.get(w)
        if qs is None:
            continue
        for d in sorted(qs.coeffs, key=_grlex_key):
            witnesses.append({
                "relation": relation,
                "w": list(w),
                "d": list(d),
                "y_power": y_power,
            })


def verify_qk_whitney(space: FlagSpace, bound: int,
                      negative_control: bool = False) -> dict:
    """Check the quantized Whitney relations on an incidence variety.

    Invariant level: for every Schubert label and every degree in the box,
    the splitting of the subbundle chain matches the three-point values,
    including the degree-shifted correction terms.  Ring level: the
    products of the determinant lines against the wedge classes, computed
    through the metric, reproduce the corrected right-hand sides, and the
    rank-two series identity follows mechanically from the same product
    table.  With negative_control the oracle drops the vanishing rule on
    the second step, which deletes the q_2 corrections and must be caught.
    """
    if not space.is_incidence:
        raise ValueError("this check runs on incidence varieties")
    n = space.n
    oracle = GWOracle("incidence-proven", space,
                      drop_vanishing=(2,) if negative_control else ())
    reps = min_coset_reps(space)
    degrees = degree_box(2, bound)
    witnesses: list = []

    sub2 = [bundle_class(space, 2, m) for m in range(n + 1)]
    sub1 = [bundle_class(space, 1, m) for m in range(n + 1)]
    quot = [bundle_quotient_class(space, 1, m) for m in range(n)]
    det2 = det_class(space, 2)
    e_top = RationalFunction.of(t_elem(n, n), n)

    def embed(cls):
        return embed_classical(cls, bound)

    for w in reps:
        for d in degrees:
            for m in range(n):
                lhs = gw2(quot[m], w, d)
                if m >= 1:
                    lhs = lhs + gw3_divisor(oracle, ("sub1",), quot[m - 1], w, d)
                rhs = gw2(sub2[m], w, d)
                if m == n - 1 and d[0] > 0:
                    rhs = rhs - gw2(det2, w, (d[0] - 1, d[1]))
                if lhs != rhs:
                    witnesses.append({
                        "relation": "sub-line-invariants",
                        "w": list(w), "d": list(d), "y_power": m,
                    })
            for ell in range(1, n + 1):
                mid = scalar_class(space, t_elem(n, ell)) - sub2[ell]
                lhs = gw3_divisor(oracle, ("det", 2), mid, w, d)
                inner = gw2(sub2[ell - 1], w, d)
                if d[1] > 0:
                    inner = inner - gw2(sub1[ell - 1], w, (d[0], d[1] - 1))
                rhs = e_top * inner
                if lhs != rhs:
                    witnesses.append({
                        "relation": "det-wedge-invariants",
                        "w": list(w), "d": list(d), "y_power": ell,
                    })

    q1 = QSeries.q(2, n, bound, 1)
    q2 = QSeries.q(2, n, bound, 2)
    one_q = QSeries.one(2, n, bound)

    for m in range(n):
        lhs = embed(quot[m])
        if m >= 1:
            lhs = lhs + line_bundle_product(oracle, ("sub1",), embed(quot[m - 1]), bound)
        rhs = embed(sub2[m])
        if m == n - 1:
            rhs = rhs - embed(det2) * q1
        _diff_witnesses(witnesses, "sub-line-products", lhs, rhs, m)

    for ell in range(1, n + 1):
        mid = embed(scalar_class(space, t_elem(n, ell)) - sub2[ell])
        lhs = line_bundle_product(oracle, ("det", 2), mid, bound)
        rhs = (embed(sub2[ell - 1]) - embed(sub1[ell - 1]) * q2) * e_top
        _diff_witnesses(witnesses, "det-wedge-products", lhs, rhs, ell)

    # The rank-two series relation is recovered from the wedge products.
    # Each y-coefficient of the unknown product of wedge(S_2) with the
    # quotient line has a candidate value forced by the wedge relations;
    # multiplying the candidate by det S_2 must reproduce the product the
    # table gives directly, and the candidates then assemble into the
    # corrected series identity.
    quotline = scalar_class(space, t_elem(n, 1)) - sub2[1]
    cross = line_bundle_product(oracle, ("sub1",), embed(quotline), bound)
    for ell in range(1, n + 1):
        cand = embed(scalar_class(space, t_elem(n, ell)) - sub2[ell]) * (one_q - q2)
        if ell == 1:
            cand = cand + embed(quotline) * q2
        elif ell == 2:
            cand = cand + cross * q2
        lhs = line_bundle_product(oracle, ("det", 2), cand, bound)
        rhs = embed(sub2[ell - 1]) * ((one_q - q2) * e_top)
        _diff_witnesses(witnesses, "quotient-series-rearrangement", lhs, rhs, ell)
        assembled = embed(sub2[ell]) + cand
        target = embed(scalar_class(space, t_elem(n, ell)))
        corr = target - embed(sub2[ell])
        if ell == 1:
            corr = corr - embed(quotline)
        elif ell == 2:
            corr = corr - cross
        _diff_witnesses(witnesses, "quotient-series-assembly", assembled,
                        target - corr * q2, ell)

    status = "FAIL" if witnesses else "PASS"
    return _report("incidence-whitney", space, bound, status, witnesses)


def verify_flag_reduction(nmax: int, bound: int,
                          negative_control: bool = False) -> dict:
    """Unconditional checks behind the complete-flag reduction.

    For each n up to nmax: the degree-lowering surgery on the neighborhood
    label agrees with the recursive computation, the Demazure image of a
    wedge of S_i at degree d matches the image of the wedge of S_{i-1} at
    the lowered degree, and the classical pairing identity that splits
    det S_i times a wedge difference against det S_{i+1} holds over every
    saturated label.  With negative_control the surgery skips its factor
    adjustment and the word comparison must fail.  Below truncation 1 the
    degree-drop checks have no degree to run on, so it is refused.
    """
    if nmax < 3:
        raise ValueError("need nmax >= 3")
    if bound < 1:
        raise ValueError("nothing to check at this truncation")
    witnesses: list = []
    for n in range(3, nmax + 1):
        space = FlagSpace.full(n)
        k = n - 1
        reps = min_coset_reps(space)
        for d in degree_box(k, bound):
            if not any(d):
                continue
            for i in range(1, n):
                if d[i - 1] == 0 or (i <= n - 2 and d[i] != 0):
                    continue
                zfull = z_d(space, d)
                zrep = z_d_replace_factor(space, d, i,
                                          skip_replacement=negative_control)
                lowered = tuple(c - 1 if a == i - 1 else c for a, c in enumerate(d))
                if zrep != z_d(space, lowered):
                    witnesses.append({
                        "relation": "degree-drop-word",
                        "n": n, "d": list(d), "i": i,
                    })
                word_full = reduced_word(zfull)
                word_rep = reduced_word(zrep)
                for ell in range(1, i + 1):
                    lhs = demazure_word(word_full, bundle_class(space, i, ell))
                    rhs = demazure_word(word_rep, bundle_class(space, i - 1, ell))
                    if lhs != rhs:
                        witnesses.append({
                            "relation": "degree-drop-neighborhoods",
                            "n": n, "d": list(d), "i": i, "ell": ell,
                        })
        for i in range(1, n):
            failing = {}
            for ell in range(1, i + 2):
                diff = bundle_class(space, i + 1, ell) - bundle_class(space, i, ell)
                gap = pairings(det_class(space, i) * diff
                               - det_class(space, i + 1) * bundle_class(space, i, ell - 1))
                failing[ell] = {g for g, c in gap.items() if not c.is_zero()}
            for d in degree_box(k, bound):
                if d[i - 1] != 0:
                    continue
                for w in reps:
                    g = curve_neighborhood_schubert(space, w, d)
                    for ell in range(1, i + 2):
                        if g in failing[ell]:
                            witnesses.append({
                                "relation": "adjacent-det-pairing",
                                "n": n, "w": list(w), "d": list(d),
                                "i": i, "ell": ell,
                            })
    status = "FAIL" if witnesses else "PASS"
    return _report("flag-reduction", FlagSpace.full(nmax), bound, status, witnesses)


@lru_cache(maxsize=None)
def conjectural_product_fln(n: int, bound: int):
    """Determinant-line products on the complete flag variety, conditionally.

    Builds every det(S_i) * O_w through the conjectural oracle, then checks
    the adjacent-determinant relations, order independence, pairwise
    associativity on the basis, and, for n = 3, exact agreement with the
    proven incidence computation.  Returns the product table together with
    a report whose passing status is CONDITIONAL-PASS.
    """
    space = FlagSpace.full(n)
    oracle = GWOracle("full-flag-conjectural", space)
    reps = min_coset_reps(space)
    k = n - 1
    witnesses: list = []

    def embed(cls):
        return embed_classical(cls, bound)

    products = {}
    for i in range(1, n):
        for w in reps:
            products[(i, w)] = line_bundle_product(
                oracle, ("det", i), basis_element(space, w, bound), bound)

    q = {i: QSeries.q(k, space.n, bound, i) for i in range(1, n)}
    for i in range(1, n):
        for ell in range(1, i + 2):
            diff = bundle_class(space, i + 1, ell) - bundle_class(space, i, ell)
            lhs = line_bundle_product(oracle, ("det", i), embed(diff), bound)
            inner = embed(bundle_class(space, i, ell - 1)) \
                - embed(bundle_class(space, i - 1, ell - 1)) * q[i]
            if i + 1 == n:
                rhs = inner * RationalFunction.of(t_elem(n, n), n)
            else:
                rhs = line_bundle_product(oracle, ("det", i + 1), inner, bound)
            _diff_witnesses(witnesses, "det-wedge-products", lhs, rhs, ell)

    for i in range(1, n):
        for j in range(i + 1, n):
            lhs = line_bundle_product(oracle, ("det", i), embed(det_class(space, j)), bound)
            rhs = line_bundle_product(oracle, ("det", j), embed(det_class(space, i)), bound)
            _diff_witnesses(witnesses, "product-symmetry", lhs, rhs, 0)
            for w in reps:
                left = line_bundle_product(oracle, ("det", i), products[(j, w)], bound)
                right = line_bundle_product(oracle, ("det", j), products[(i, w)], bound)
                _diff_witnesses(witnesses, "product-associativity", left, right, 0)

    if n == 3:
        proven = GWOracle("incidence-proven", space)
        for i in range(1, n):
            for w in reps:
                other = line_bundle_product(
                    proven, ("det", i), basis_element(space, w, bound), bound)
                _diff_witnesses(witnesses, "incidence-agreement",
                                products[(i, w)], other, 0)

    status = "FAIL" if witnesses else "CONDITIONAL-PASS"
    report = _report("conditional-flag-products", space, bound, status, witnesses)
    return products, report
