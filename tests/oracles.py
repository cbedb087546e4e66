"""Independent brute-force oracles used to derive expected values.

Everything here enumerates definitions directly (combinations, tableaux,
permutations) and never calls the library code paths it is used to check.
Three exceptions: ``bialternant_numerators`` runs the library's full
Berkowitz determinant once per n, the reference for the cofactor route;
``laurent_values`` runs the library's symfun prefixes over the literal
Laurent vectors, the reference for the symbolic sides in Z[E_1..E_r];
``two_step_prefixes`` runs the prefix recurrences on the ring operators,
the reference for the fused addmul and the packed prefix steps.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations


def brute_elementary(n, values, one=Fraction(1)):
    """Sum over n-subsets of the entries of their products; ``one`` is the
    unit of the entries' ring, so Laurent entries work too."""
    if n == 0:
        return one
    if n < 0 or n > len(values):
        return one * 0
    total = one * 0
    for combo in combinations(values, n):
        prod = one
        for x in combo:
            prod *= x
        total += prod
    return total


def brute_complete(n, values, one=Fraction(1)):
    """Sum over n-multisets of the entries of their products; ``one`` as in
    brute_elementary."""
    if n == 0:
        return one
    if n < 0:
        raise ValueError("brute oracle only covers n >= 0")
    total = one * 0
    for combo in combinations_with_replacement(values, n):
        prod = one
        for x in combo:
            prod *= x
        total += prod
    return total


def brute_power(n, values):
    return sum((Fraction(x) ** n for x in values), Fraction(0))


def count_standard_tableaux_two_rows(a, b):
    """Standard Young tableaux of shape (a, b) counted by backtracking;
    this is the Kostka number for content (1, 1, ..., 1)."""
    if b > a:
        return 0
    n = a + b
    count = 0

    def place(k, top, bottom):
        nonlocal count
        if k > n:
            count += 1
            return
        if len(top) < a:
            place(k + 1, top + [k], bottom)
        if len(bottom) < b and len(bottom) < len(top):
            place(k + 1, top, bottom + [k])

    place(1, [], [])
    return count


def brute_partitions(n, max_parts):
    """Partitions of n with at most max_parts parts, by filtering weakly
    decreasing tuples; returns a set of tuples."""
    out = set()

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.add(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for p in range(1, min(cap, remaining) + 1):
            rec(remaining - p, p, acc + [p])

    rec(n, n if n else 1, [])
    if n == 0:
        out.add(())
    return out


def cycle_type_of(perm):
    """Cycle type of a permutation given as a tuple of images of 0..n-1."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def permutation_count_by_cycle_type(n):
    """Map cycle type -> number of permutations of S_n with that type."""
    out = {}
    for perm in permutations(range(n)):
        t = cycle_type_of(perm)
        out[t] = out.get(t, 0) + 1
    return out


def det_permutation_expansion(rows):
    """Determinant by the Leibniz sum over permutations."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        if inv % 2:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def bialternant_numerators(alphas, n_max):
    """det of the Vandermonde rows alpha^(r-1), ..., alpha, 1 of the r
    entries alphas with row 0 replaced by alpha^(n+r-1), for n = 1 ..
    n_max: one full ``det_cofactor`` (Berkowitz) per n, each power taken
    on its own."""
    from symident.exactalg import det_cofactor
    r = len(alphas)
    rest = [[a ** k for a in alphas] for k in range(r - 2, -1, -1)]
    return [det_cofactor([[a ** (n + r - 1) for a in alphas]] + rest)
            for n in range(1, n_max + 1)]


def genfun_denominator_binomials(r, order):
    """Coefficients u^0 .. u^order of sum_m (-1)^m binom(r-m, m) u^(2m) -
    sum_m (-1)^m binom(r-1-m, m) u^(2m+1), the reciprocal of the F
    generating function, written as two binomial sums."""
    coeffs = [0] * (order + 1)
    for m in range(r // 2 + 1):
        if 2 * m <= order:
            coeffs[2 * m] += (-1) ** m * math.comb(r - m, m)
    for m in range((r - 1) // 2 + 1):
        if 2 * m + 1 <= order:
            coeffs[2 * m + 1] -= (-1) ** m * math.comb(r - 1 - m, m)
    return coeffs


def genfun_numerator_L_binomials(r, order):
    """Coefficients u^0 .. u^order of the numerator of the L generating
    function over the denominator above, written as two binomial sums."""
    coeffs = [0] * (order + 1)
    for m in range((r - 1) // 2 + 1):
        if 2 * m <= order:
            coeffs[2 * m] += (-1) ** m * (2 * m + 1) * math.comb(r - 1 - m, m)
    for m in range(r // 2 + 1):
        if 1 <= 2 * m - 1 <= order:
            coeffs[2 * m - 1] -= (-1) ** m * 2 * m * math.comb(r - m, m)
    return coeffs


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod_monic(num, den):
    """Quotient and remainder of integer polynomials (ascending coefficient
    lists) by a monic divisor, by schoolbook long division."""
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 1)
    for top in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[top]
        if c:
            shift = top - len(den) + 1
            quot[shift] = c
            for j, d in enumerate(den):
                rem[shift + j] -= c * d
    return quot, rem[:len(den) - 1]


def brute_cyclotomic_poly(m):
    """Phi_m as x^m - 1 divided by Phi_d for every proper divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, brute_cyclotomic_poly(d))
            assert not any(rem)
    return num


def brute_cyclotomic_reduce(m, coeffs):
    """Coordinates in Z[x]/Phi_m of the polynomial with the given ascending
    coefficients, of any length: its remainder by Phi_m."""
    phi = brute_cyclotomic_poly(m)
    _, rem = _poly_divmod_monic(list(coeffs), phi)
    return rem + [0] * (len(phi) - 1 - len(rem))


def brute_cyclotomic_mul(m, a, b):
    """Coordinates of a * b in Z[x]/Phi_m: the full convolution, then its
    remainder by Phi_m."""
    return brute_cyclotomic_reduce(m, _poly_mul(list(a), list(b)))


def brute_cyclotomic_dot(m, xs, ys):
    """Coordinates of sum_i xs[i] * ys[i] in Z[x]/Phi_m, for coordinate
    lists of any length: the schoolbook convolutions added up, then their
    remainder by Phi_m."""
    total = [0]
    for a, b in zip(xs, ys):
        prod = _poly_mul(list(a), list(b))
        total += [0] * (len(prod) - len(total))
        for i, c in enumerate(prod):
            total[i] += c
    return brute_cyclotomic_reduce(m, total)


def brute_cyclotomic_prefixes(m, entries, nmax):
    """([e_0..e_nmax], [h_0..h_nmax], [p_1..p_nmax]) in Z[x]/Phi_m of the
    entries given as coefficient lists, as coordinate lists: the
    recurrences of the three families with every product a
    ``brute_cyclotomic_mul`` and every sum coordinate-wise."""
    one = brute_cyclotomic_reduce(m, [1])
    zero = [0] * len(one)
    zs = [brute_cyclotomic_reduce(m, z) for z in entries]

    def addmul(acc, a, b):
        return [p + q for p, q in zip(acc, brute_cyclotomic_mul(m, a, b))]

    e, h, p = [one] + [zero] * nmax, [one] + [zero] * nmax, [zero] * nmax
    for count, z in enumerate(zs, 1):
        for k in range(min(count, nmax), 0, -1):
            e[k] = addmul(e[k], z, e[k - 1])
        for k in range(1, nmax + 1):
            h[k] = addmul(h[k], z, h[k - 1])
        power = one
        for n in range(nmax):
            power = brute_cyclotomic_mul(m, power, z)
            p[n] = [a + b for a, b in zip(p[n], power)]
    return e, h, p


def two_step_prefixes(nmax, v):
    """[e_0..e_nmax] and [h_0..h_nmax] by the recurrences written with
    acc + z * x, the step every ring without a fused addmul takes."""
    one, zero = v.one, v.zero
    e, h = [one] + [zero] * nmax, [one] + [zero] * nmax
    for count, z in enumerate(v, 1):
        for k in range(min(count, nmax), 0, -1):
            e[k] = e[k] + z * e[k - 1]
        for k in range(1, nmax + 1):
            h[k] = h[k] + z * h[k - 1]
    return e, h


def brute_series_mul(a, b, order):
    """Coefficients 0..order of the product of two coefficient lists, by the
    schoolbook Fraction convolution."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


def brute_series_compose(outer, inner, order):
    """sum_j outer[j] * inner^j truncated at x^order, powers by repeated
    schoolbook multiplication."""
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for c in outer[: order + 1]:
        out = [o + Fraction(c) * p for o, p in zip(out, power)]
        power = brute_series_mul(power, inner, order)
    return out


def brute_laurent_mul(a, b):
    """Product of two Laurent polynomials given as dicts exponent tuple ->
    coefficient, term by term, adding the exponent tuples; zero
    coefficients dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def brute_ballot_coefficient(alpha, k):
    """(alpha)_(2k) / (k! (alpha+1)_k) from the three products themselves."""
    num = den = Fraction(1)
    for i in range(2 * k):
        num *= alpha + i
    for i in range(k):
        den *= (i + 1) * (alpha + 1 + i)
    return num / den


def _int_series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def _int_series_pow(a, e, order):
    """a^e truncated at order for an integer series with a[0] = 1; a negative
    e goes through the inverse, whose coefficients stay integers."""
    if e < 0:
        inv = [1] + [0] * order
        for k in range(1, order + 1):
            inv[k] = -sum(a[j] * inv[k - j] for j in range(1, min(k, len(a) - 1) + 1))
        a, e = inv, -e
    out = [1] + [0] * order
    for _ in range(e):
        out = _int_series_mul(out, a, order)
    return out


def _laurent_pow_shift(m):
    """(z + 1/z)^m as {exponent: coefficient}, by repeated multiplication."""
    out = {0: 1}
    for _ in range(m):
        nxt = {}
        for e, c in out.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
            nxt[e - 1] = nxt.get(e - 1, 0) + c
        out = nxt
    return out


def brute_transfer_coefficients(direction, family, r, n):
    """The transfer kernel read off the generating functions, as
    [(index, coefficient)] with zeros dropped, indices descending.

    With x = y/(1+y^2), E^(2r)(y) = (1+y^2)^r E^(r)(x) and
    H^(2r)(y) = (1+y^2)^-r H^(r)(x).  The second kind reads [y^n] of
    y^m (1+y^2)^(r-m) and y^m (1+y^2)^(-r-m); the first kind substitutes
    the reversion y = x(1+y^2), iterated to order n.  The p kernels expand
    z^n + z^-n in powers of z + 1/z and back, the first kind doubled.
    """
    ring = [1, 0, 1]  # 1 + y^2
    out = {}
    if family == "p" and direction == "second":
        target = {n: 1, -n: 1} if n else {0: 2}
        for m in range(n, -1, -1):
            c = target.get(m, 0)
            if c:
                out[m] = c
                for e, d in _laurent_pow_shift(m).items():
                    target[e] = target.get(e, 0) - c * d
        assert not any(target.values())
    elif family == "p":
        for e, c in _laurent_pow_shift(n).items():
            if e >= 0:
                out[e] = c if e == 0 else 2 * c
    elif direction == "second":
        top = min(n, r) if family == "e" else n
        for m in range(top + 1):
            e = r - m if family == "e" else -r - m
            out[m] = ([0] * m + _int_series_pow(ring, e, n))[n]
    else:
        y = [0] * (n + 1)
        for _ in range(n):
            square = _int_series_mul(y, y, n)
            square[0] += 1
            y = ([0] + square)[: n + 1]
        square = _int_series_mul(y, y, n)
        square[0] += 1
        weight = _int_series_pow(square, -r if family == "e" else r, n)
        top = min(n, 2 * r) if family == "e" else n
        ypow = [1] + [0] * n
        for j in range(top + 1):
            out[j] = _int_series_mul(ypow, weight, n)[n]
            ypow = _int_series_mul(ypow, y, n)
    return sorted(((i, c) for i, c in out.items() if c), reverse=True)


def brute_series_inverse(a, order):
    """Coefficients 0..order of 1/a by the Fraction recurrence
    inv_n = -(sum_j a_j inv_(n-j)) / a_0."""
    a = [Fraction(c) for c in a[: order + 1]]
    inv = [1 / a[0]]
    for n in range(1, order + 1):
        s = sum((a[j] * inv[n - j] for j in range(1, min(n, len(a) - 1) + 1)), Fraction(0))
        inv.append(-s / a[0])
    return inv


def _fraction_prefix(family, values, top):
    """[f_0, ..., f_top] of rational values for f = e, h or p, straight from
    the generating functions prod (1 + x y), prod 1/(1 - x y) and
    sum_x 1/(1 - x y); p_0 is the number of values."""
    if family == "p":
        return [Fraction(len(values))] + [sum(x ** k for x in values) for k in range(1, top + 1)]
    out = [Fraction(1)] + [Fraction(0)] * top
    for x in values:
        if family == "e":
            out = [out[0]] + [out[k] + x * out[k - 1] for k in range(1, top + 1)]
        else:
            for k in range(1, top + 1):
                out[k] += x * out[k - 1]
    return out


def fraction_sides(check, k, kernel, xs):
    """(lhs, rhs) of the expansion check `check` (first_kind_e ..
    second_kind_p) at index k, over Fractions at the points xs: the single
    value f_k of one vector against the kernel sum over the other, with the
    kernel unweighted, in the order the check reports them."""
    inv = [1 / x for x in xs]
    doubled = list(xs) + inv
    shifted = [x + y for x, y in zip(xs, inv)]
    direction, family = check.split("_")[0], check[-1]
    one, many = (shifted, doubled) if direction == "first" else (doubled, shifted)
    single = _fraction_prefix(family, one, k)[k]
    prefix = _fraction_prefix(family, many, k)
    expanded = sum((prefix[i] * c for i, c in kernel), Fraction(0))
    if check == "first_kind_p":
        return 2 * single, expanded
    return single, expanded


def random_rational_points(rng, count, bound=10 ** 6):
    """Pairwise distinct nonzero Fractions +-a/b with 1 <= a, b <= bound,
    drawn from rng as random mode draws them: a, b, then the sign, with a
    point equal to an earlier one skipped."""
    pts = []
    seen = set()
    while len(pts) < count:
        x = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        if rng.randint(0, 1):
            x = -x
        if x in seen:
            continue
        seen.add(x)
        pts.append(x)
    return pts


def fraction_vector_pairs(rng, r, trials):
    """[(doubled, shifted, scale)] for each trial, through Fractions: the
    points x, 1/x and x + 1/x as integer lists over the scale, the lcm of
    the denominators of all 3r values."""
    out = []
    for _ in range(trials):
        xs = random_rational_points(rng, r)
        values = xs + [1 / x for x in xs] + [x + 1 / x for x in xs]
        scale = math.lcm(*(v.denominator for v in values))
        ints = [v.numerator * (scale // v.denominator) for v in values]
        out.append((ints[:2 * r], ints[2 * r:], scale))
    return out


def laurent_values(direction, family, r, top):
    """(singles, manys) of an expansion identity up to top, as Laurent
    polynomials in z_1..z_r: the prefixes of the literal vectors
    (z_j, 1/z_j) and z_j + 1/z_j of symbolic_vectors, in the layout of
    identities._expansion_values (p_0 is the arity)."""
    from symident.symfun import complete_prefix, elementary_prefix, power_prefix, symbolic_vectors
    _, doubled, shifted = symbolic_vectors(r)
    one, many = (shifted, doubled) if direction == "first" else (doubled, shifted)
    if family == "p":
        return tuple([v.one * v.arity] + power_prefix(top, v) for v in (one, many))
    prefix = elementary_prefix if family == "e" else complete_prefix
    return prefix(top, one), prefix(top, many)


@lru_cache(maxsize=None)
def _e_image(r, exps):
    """The Laurent image of the E-monomial with these exponents: the image
    with one E_k fewer (k its first E) times e_k(z + z^-1), e_k by
    brute_elementary."""
    from symident.symfun import symbolic_vectors
    _, _, shifted = symbolic_vectors(r)
    k = next((k for k, a in enumerate(exps) if a), None)
    if k is None:
        return shifted.one
    less = exps[:k] + (exps[k] - 1,) + exps[k + 1:]
    return _e_image(r, less) * brute_elementary(k + 1, list(shifted), shifted.one)


def substituted(value, r):
    """The Laurent polynomial in z_1..z_r that a polynomial in E_1..E_r (a
    MultiLaurent with no negative exponent) maps to under E_k ->
    e_k(z_1 + 1/z_1, ..., z_r + 1/z_r)."""
    total = _e_image(r, (0,) * r) * 0
    for exps, c in value.coeffs.items():
        assert min(exps) >= 0, exps
        total = total.addmul(c, _e_image(r, exps))
    return total
