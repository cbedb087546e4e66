"""Random mode evaluates the expansion identities on integer points: the
drawn rationals times the lcm D of their denominators, with each kernel
term of index i weighted by D^(degree - i).  The points are drawn as ints.
Checked here against the Fraction draw and evaluation at the same points,
with the points themselves pinned."""

from fractions import Fraction

import pytest

from symident import identities
from symident.combinat import expansion_kernel

from oracles import fraction_sides, fraction_vector_pairs, random_rational_points

CHECKS = ("first_kind_e", "first_kind_h", "first_kind_p",
          "second_kind_e", "second_kind_h", "second_kind_p")


def _index_name(check):
    return "m" if check.startswith("first") else "n"


def _indices(check, r):
    if check == "second_kind_e":
        return range(2 * r + 1)
    return range(1 if check.endswith("p") else 0, 17)


def _sides_of(monkeypatch, check, r, k, mode):
    """What one check evaluates, trial by trial: the direction, family and
    index, the (doubled, shifted) vectors its values are built from, the
    weighted kernel, and the (lhs, rhs) that came back."""
    vectors, calls = [], []
    values_of, sides = identities._expansion_values, identities._expansion_sides

    def spy_values(direction, family, top, doubled, shifted):
        vectors.append((doubled, shifted))
        return values_of(direction, family, top, doubled, shifted)

    def spy_sides(direction, family, n, kernel, values):
        out = sides(direction, family, n, kernel, values)
        doubled, shifted = vectors[len(calls)]
        calls.append(((direction, family, n), doubled, shifted, kernel, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(identities, "_expansion_values", spy_values)
        m.setattr(identities, "_expansion_sides", spy_sides)
        getattr(identities, check)(r, k, mode)
    return calls


def _drawn(check, r, k, mode):
    """The rational points of each trial, drawn as random mode draws them."""
    rng = identities._rng_for(mode, check, {"r": r, _index_name(check): k})
    return [random_rational_points(rng, r) for _ in range(mode.trials)]


@pytest.mark.parametrize("check", CHECKS)
def test_scaled_sides_match_the_fraction_route(monkeypatch, check):
    direction, family = check.split("_")[0], check[-1]
    for seed in (3, 7, 11):
        mode = identities.VerifyMode("random", trials=1, seed=seed)
        for r in range(1, 7):
            for k in _indices(check, r):
                kernel = expansion_kernel(direction, family, r, k)
                calls = _sides_of(monkeypatch, check, r, k, mode)
                params = {"r": r, _index_name(check): k}
                pairs = list(identities._vector_pairs(r, mode, check, params))
                drawn = _drawn(check, r, k, mode)
                assert len(calls) == len(pairs) == len(drawn) == 1
                for call, (doubled, shifted, scale), xs in zip(calls, pairs, drawn):
                    at, seen_doubled, seen_shifted, weighted, (lhs, rhs) = call
                    assert at == (direction, family, k)
                    assert seen_doubled.entries == doubled.entries
                    assert seen_shifted.entries == shifted.entries
                    assert weighted == identities._weighted(kernel, scale, k)
                    inv = [1 / x for x in xs]
                    assert [Fraction(v, scale) for v in doubled] == xs + inv
                    assert [Fraction(v, scale) for v in shifted] == \
                        [x + y for x, y in zip(xs, inv)]
                    assert type(lhs) is int and type(rhs) is int
                    want = fraction_sides(check, k, kernel, xs)
                    assert (Fraction(lhs, scale ** k), Fraction(rhs, scale ** k)) == want, \
                        (check, seed, r, k)


@pytest.mark.parametrize("check", CHECKS)
def test_integer_draws_match_the_fraction_route(check):
    # the same stream gives the same (doubled, shifted, scale) as clearing
    # the Fraction points x, 1/x and x + 1/x, trial by trial
    for seed in (3, 7, 11):
        mode = identities.VerifyMode("random", trials=5, seed=seed)
        for r in range(1, 7):
            for k in _indices(check, r):
                params = {"r": r, _index_name(check): k}
                got = [(list(doubled), list(shifted), scale) for doubled, shifted, scale
                       in identities._vector_pairs(r, mode, check, params)]
                rng = identities._rng_for(mode, check, params)
                assert got == fraction_vector_pairs(rng, r, mode.trials), (seed, r, k)


class _Scripted:
    """A stand-in rng whose randint returns the given values in order."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, low, high):
        value = next(self.values)
        assert low <= value <= high
        return value


def test_a_reduced_duplicate_is_skipped(monkeypatch):
    # 1/2, then 2/4 (1/2 again after reduction, so skipped), then -2/4
    script = [1, 2, 0, 2, 4, 0, 2, 4, 1]
    rng = _Scripted(script)
    monkeypatch.setattr(identities, "_rng_for", lambda mode, check, params: rng)
    mode = identities.VerifyMode("random", trials=1, seed=0)
    (doubled, shifted, scale), = identities._vector_pairs(2, mode, "first_kind_h",
                                                         {"r": 2, "m": 3})
    assert next(rng.values, None) is None
    assert [Fraction(v, scale) for v in doubled] == [Fraction(1, 2), Fraction(-1, 2), 2, -2]
    assert [Fraction(v, scale) for v in shifted] == [Fraction(5, 2), Fraction(-5, 2)]
    assert [(list(doubled), list(shifted), scale)] == \
        fraction_vector_pairs(_Scripted(script), 2, 1)
    assert scale == 2


def test_symbolic_mode_is_unscaled(monkeypatch):
    # a symbolic check draws no points and applies the kernel unweighted
    kernel = expansion_kernel("first", "h", 3, 5)
    assert identities._weighted(kernel, 1, 5) is kernel
    seen = []
    sides = identities._expansion_sides

    def spy(direction, family, n, kernel, values):
        seen.append(kernel)
        return sides(direction, family, n, kernel, values)

    def drawn(*args):
        raise AssertionError("symbolic mode drew points")

    monkeypatch.setattr(identities, "_expansion_sides", spy)
    monkeypatch.setattr(identities, "_vector_pairs", drawn)
    assert identities.first_kind_h(3, 5, identities.VerifyMode("symbolic")).passed
    assert seen == [kernel]


# the first trial's points at seed 7, one check per family
PINNED = [
    ("first_kind_e", 4, 10,
     ["900883/365839", "453539/41993", "350524/27955", "191235/205999"]),
    ("second_kind_h", 5, 12,
     ["-567872/865255", "-173003/653391", "-18341/232346", "-5635/2784", "131125/100737"]),
    ("first_kind_p", 6, 9,
     ["584779/815454", "502010/888193", "-597587/455446", "116533/73111", "314123/453283",
      "6792/5597"]),
]


@pytest.mark.parametrize("check,r,k,points", PINNED)
def test_drawn_points_are_pinned(check, r, k, points):
    mode = identities.VerifyMode("random", trials=5, seed=7)
    xs = [Fraction(p) for p in points]
    assert _drawn(check, r, k, mode)[0] == xs
    params = {"r": r, _index_name(check): k}
    doubled, shifted, scale = next(identities._vector_pairs(r, mode, check, params))
    assert [Fraction(v, scale) for v in doubled] == xs + [1 / x for x in xs]


@pytest.mark.parametrize("check,r,k", [("first_kind_h", 4, 6), ("second_kind_p", 5, 7)])
def test_random_counterexample_reads_as_fractions(monkeypatch, check, r, k):
    # one kernel coefficient off by one, as in test_transfer_kernel
    def wrong(d, f, rr, n):
        (i, c), *rest = expansion_kernel(d, f, rr, n)
        return [(i, c + 1)] + rest

    monkeypatch.setattr(identities, "expansion_kernel", wrong)
    mode = identities.VerifyMode("random", trials=5, seed=7)
    rep = getattr(identities, check)(r, k, mode)
    assert rep.status == "fail"
    kernel = wrong(check.split("_")[0], check[-1], r, k)
    at = "%s=%d r=%d" % (_index_name(check), k, r)
    want = []
    for trial, xs in enumerate(_drawn(check, r, k, mode)):
        lhs, rhs = fraction_sides(check, k, kernel, xs)
        assert lhs != rhs
        want.append("%s point %d: lhs=%r rhs=%r" % (at, trial, lhs, rhs))
    assert rep.counterexample == "; ".join(want[:3])
    assert rep.counterexample.startswith("%s point 0: lhs=Fraction(" % at)


@pytest.mark.parametrize("check", CHECKS)
def test_lhs_is_the_single_side(monkeypatch, check):
    # with an empty kernel the expanded side is 0, and lhs is f_k itself
    monkeypatch.setattr(identities, "expansion_kernel", lambda d, f, rr, n: [])
    r, k = 2, 2
    mode = identities.VerifyMode("random", trials=1, seed=7)
    rep = getattr(identities, check)(r, k, mode)
    xs, = _drawn(check, r, k, mode)
    single, expanded = fraction_sides(check, k, [], xs)
    assert single != 0 and expanded == 0
    at = "%s=%d r=%d" % (_index_name(check), k, r)
    assert rep.counterexample == "%s point 0: lhs=%r rhs=%r" % (at, single, expanded)
