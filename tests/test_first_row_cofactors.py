"""The bialternant numerators from one row-0 cofactor vector: each is the
dot product of its top row with the cofactors of the Vandermonde rows below
it, built once from one characteristic polynomial.  Checked against the
Leibniz sum and the per-n Berkowitz route, and counted, so that a return to
one Berkowitz per n fails here."""

import random

import pytest

from symident import exactalg, sequences
from symident.cyclotomic import CycField, roots_vectors, vandermonde_rows
from symident.exactalg import det_cofactor, first_row_cofactors

from oracles import bialternant_numerators, det_permutation_expansion


def _by_cofactors(rows):
    return det_cofactor(rows, first_row_cofactors(rows[1:]))


@pytest.mark.parametrize("r", range(1, 9))
def test_bialternants_match_the_per_n_route(monkeypatch, r):
    # the values of the det_cofactor calls that take a cofactor vector
    seen = []
    det = sequences.det_cofactor

    def spy(rows, below=None):
        out = det(rows, below)
        if below is not None:
            seen.append(out)
        return out

    monkeypatch.setattr(sequences, "det_cofactor", spy)
    assert sequences.determinant_formulas_check(r, r + 2).passed
    assert seen == bialternant_numerators(roots_vectors(r)[1].entries, r + 2)


def _entry(rng, field):
    if field is None:
        return rng.choice((0, 1, -1, rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)))
    return rng.choice((0, 1, -3, field.from_int(0), field.element(
        [rng.randint(-2 ** 40, 2 ** 40) for _ in range(field.degree)])))


@pytest.mark.parametrize("m", (None, 19, 25, 21, 33))  # ints; prime, prime power, composite
def test_cofactor_route_against_permutation_expansion(m):
    rng = random.Random(14 if m is None else m)
    field = None if m is None else CycField(m)
    for n in range(1, 7):
        for _ in range(3):
            rows = [[_entry(rng, field) for _ in range(n)] for _ in range(n)]
            want = det_permutation_expansion(rows)
            assert _by_cofactors(rows) == want, (m, rows)
            # one cofactor vector serves every row 0
            rest, K = first_row_cofactors(rows[1:])
            top = [_entry(rng, field) for _ in range(n)]
            assert det_cofactor([top] + rows[1:], (rest, K)) == \
                det_permutation_expansion([top] + rows[1:]), (m, rows)
            if n > 1:  # a zero column below row 0
                for row in rows[1:]:
                    row[n - 1] = 0
                assert _by_cofactors(rows) == det_permutation_expansion(rows), (m, rows)
    if field is not None:
        z = field.zeta(1)
        assert _by_cofactors([[z]]) == z
        assert first_row_cofactors([]) == ([], [1])


def test_mismatched_rows_are_refused():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    below = first_row_cofactors(rows[1:])
    assert det_cofactor(rows, below) == det_permutation_expansion(rows) == -3
    for bad in ([[1, 2, 3], [4, 5, 6], [7, 8, 9]],   # an entry changed
                [[1, 2, 3], [7, 8, 10], [4, 5, 6]],  # rows swapped
                [[1, 2], [4, 5]]):                   # a smaller matrix
        with pytest.raises(ValueError):
            det_cofactor(bad, below)
    for rest in ([[1, 2, 3]], [[1, 2, 3], [4, 5]], [[1]]):  # not the rows below an n x n row 0
        with pytest.raises(ValueError):
            first_row_cofactors(rest)


@pytest.mark.parametrize("r", (2, 3, 5))
def test_one_vandermonde_and_one_cofactor_char_poly_per_r(monkeypatch, r):
    # counts, not times: the Vandermonde's Berkowitz and the one behind the
    # cofactor vector, whatever the window, and still one det_cofactor per
    # determinant
    char_polys, dets = [0], [0]
    char_poly, det = exactalg._char_poly, sequences.det_cofactor

    def counted_char_poly(rows):
        char_polys[0] += 1
        return char_poly(rows)

    def counted_det(rows, below=None):
        dets[0] += 1
        return det(rows, below)

    monkeypatch.setattr(exactalg, "_char_poly", counted_char_poly)
    monkeypatch.setattr(sequences, "det_cofactor", counted_det)
    for n_max in (1, 4, 9):
        char_polys[0] = dets[0] = 0
        assert sequences.determinant_formulas_check(r, n_max).passed
        assert (char_polys[0], dets[0]) == (2, n_max + 1), (r, n_max)


@pytest.mark.parametrize("r", (8, 12))
def test_the_horner_steps_pack_each_vector_once(monkeypatch, r):
    # counts, not times: the Horner steps apply one map of [B | C], which
    # packs its s x (s + 1) entries once per slot width (at most three
    # widths here) and each of the s - 1 vectors v + [c_i] once; a ring dot
    # per row packs v again for every row
    rows = vandermonde_rows(roots_vectors(r)[1].entries)[1:]
    packs, pack = [0], exactalg._pack

    def counted(coords, k):
        packs[0] += 1
        return pack(coords, k)

    monkeypatch.setattr(exactalg, "_pack", counted)
    first_row_cofactors(rows)
    total, packs[0] = packs[0], 0
    exactalg._char_poly([row[1:] for row in rows])
    s = r - 1
    assert total - packs[0] <= 3 * s * (s + 1) + (s - 1) * (s + 1), (r, total - packs[0])
