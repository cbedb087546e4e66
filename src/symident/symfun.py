"""Elementary, complete homogeneous, power-sum and Schur polynomials over
any exact coefficient ring.  The prefix routines give the generating functions
prod (1 + z_j y), prod 1/(1 - z_j y) and sum_j 1/(1 - z_j y) truncated at
y^n.

All routines take a PointVector and work by duck typing: the entries only
have to support +, -, * (with int) and ** on nonnegative exponents, and may
give a fused acc.addmul(a, b) = acc + a * b for the prefix recurrences to
step with, or run them on ints (``_packable``).  This lets one code path
evaluate over rationals, Laurent polynomials, or cyclotomic integers.

Conventions fixed here once and used everywhere downstream:

* prefix(family, top, v) reads p_0 as the arity of v, the degree-0 power
  sum that the expansion identities need; power(0, ...) is still rejected,
  and so is a negative top.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps

from .exactalg import MultiLaurent, det_cofactor


class PointVector:
    """Nonempty tuple of ring values: raw entries z_j, the doubled
    (z_1..z_r, 1/z_1..1/z_r) or the shifted z_j + 1/z_j."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty point vector")
        self.entries = entries

    @property
    def arity(self) -> int:
        return len(self.entries)

    @property
    def one(self):
        return self.entries[0] ** 0

    @property
    def zero(self):
        one = self.one
        return one - one

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self):
        return "PointVector(%r)" % (self.entries,)


def point_vectors(plus, minus):
    """(doubled, shifted) for plus[j] = z_j and minus[j] = 1/z_j: the
    doubled (z_1..z_r, 1/z_1..1/z_r) and the shifted z_j + 1/z_j."""
    return (PointVector(list(plus) + list(minus)),
            PointVector([z + w for z, w in zip(plus, minus)]))


def symbolic_vectors(r: int):
    """Laurent-polynomial vectors in z_1..z_r: (plain, doubled, shifted)."""
    zs = [MultiLaurent.variable(i, r) for i in range(r)]
    return (PointVector(zs),) + point_vectors(zs, [z ** -1 for z in zs])


# ---------------------------------------------------------------------------
# the three classical families


def _packable(prefix):
    """prefix, or prefix run on ints by an entry type's ``packed(entries,
    bound)``; bound(norms) is its largest value at the entries' 1-norms."""
    @wraps(prefix)
    def run(nmax, v):
        packed = next((type(z).packed for z in v if hasattr(type(z), "packed")), None)
        if packed is None:
            return prefix(nmax, v)
        entries, unpack = packed(v.entries, lambda s: max(prefix(nmax, PointVector(s)), default=0))
        return unpack(prefix(nmax, PointVector(entries)))
    return run


@_packable
def elementary_prefix(nmax: int, v: PointVector) -> list:
    """[e_0, ..., e_nmax] by coefficient extraction from prod (1 + z_j y)."""
    one, zero, addmul = v.one, v.zero, getattr(type(v[0]), "addmul", None)
    top = min(nmax, v.arity)
    e = [one] + [zero] * top
    count = 0
    for z in v:
        count += 1
        for k in range(min(count, top), 0, -1):
            e[k] = addmul(e[k], z, e[k - 1]) if addmul else e[k] + z * e[k - 1]
    return e + [zero] * (nmax - top)


@_packable
def complete_prefix(nmax: int, v: PointVector) -> list:
    """[h_0, ..., h_nmax] by coefficient extraction from prod 1/(1 - z_j y)."""
    one, zero, addmul = v.one, v.zero, getattr(type(v[0]), "addmul", None)
    h = [one] + [zero] * nmax
    for z in v:
        for k in range(1, nmax + 1):
            h[k] = addmul(h[k], z, h[k - 1]) if addmul else h[k] + z * h[k - 1]
    return h


def power(n: int, v: PointVector):
    """Sum of n-th powers of the entries; defined for n >= 1 only."""
    if n < 1:
        raise ValueError("power sums are defined for n >= 1")
    acc = None
    for z in v:
        t = z ** n
        acc = t if acc is None else acc + t
    return acc


@_packable
def power_prefix(nmax: int, v: PointVector) -> list:
    """[p_1, ..., p_nmax] from running powers of each entry; empty for
    nmax < 1."""
    if nmax < 1:
        return []
    acc = None
    for z in v:
        powers = [z]
        for _ in range(nmax - 1):
            powers.append(powers[-1] * z)
        acc = powers if acc is None else [s + t for s, t in zip(acc, powers)]
    return acc


def prefix(family: str, top: int, v: PointVector) -> list:
    """[f_0, ..., f_top] of the family f = "e", "h" or "p" at v, with p_0
    the arity of v; defined for top >= 0 only."""
    if top < 0:
        raise ValueError("prefixes are defined for top >= 0")
    if family not in ("e", "h", "p"):
        raise ValueError("family must be e, h or p")
    if family == "p":
        return [v.one * v.arity] + power_prefix(top, v)
    return (elementary_prefix if family == "e" else complete_prefix)(top, v)


def schur(lam, v: PointVector):
    """Quotient of the alternant det(z_i^(lam_j + r - j)) by the Vandermonde
    determinant, for a partition lam of at most r parts; int entries divide
    as Fractions, and other entries need exact division."""
    lam = tuple(int(x) for x in lam)
    r = v.arity
    if len(lam) > r:
        raise ValueError("shape longer than the vector")
    lam = lam + (0,) * (r - len(lam))
    if lam[-1] < 0 or any(lam[i] < lam[i + 1] for i in range(r - 1)):
        raise ValueError("shape must be weakly decreasing and nonnegative")
    exps = [lam[j] + r - 1 - j for j in range(r)]
    alternant = det_cofactor([[v[i] ** exps[j] for j in range(r)] for i in range(r)])
    vandermonde = det_cofactor([[v[i] ** (r - 1 - j) for j in range(r)] for i in range(r)])
    if isinstance(vandermonde, int):
        return Fraction(alternant, vandermonde)
    return alternant / vandermonde
