"""The mask-index tables of exterior against the loops over index tuples they replaced.

Every table must equal its loop reference in tests/oracles.py element for element and
in dtype: all bidegree combinations at n <= 5 and a seeded sample at n = 6.  A
derivation table spans the whole algebra; each source bidegree's slice of it is
compared with the loop's table of that bidegree.
"""

import itertools

import numpy as np
import pytest

from hermicone import exterior
from hermicone.errors import DegreeOutOfRange
from hermicone.exterior import Form, _basis

from .oracles import (loop_complement, loop_conj_table, loop_derivation_table, loop_merge,
                      loop_wedge_arrays)


def _mask(idx):
    return sum(1 << i for i in idx)


def _same(got, want):
    """Equal arrays of equal dtypes, position by position; None matches only None."""
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(
        np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)
        for a, b in zip(got, want))


def _two_forms(n):
    """(K, L) of every monomial theta_K ^ thetabar_L of total degree 2."""
    return [(K, L) for k in range(3) for K in itertools.combinations(range(n), k)
            for L in itertools.combinations(range(n), 2 - k)]


def _wedge_cases(n):
    return list(itertools.product(range(n + 1), repeat=4))


def _derivation_cases(n):
    return [(g, K, L) for g in range(2 * n) for K, L in _two_forms(n)]


def _sample(cases, size, seed):
    rng = np.random.default_rng(seed)
    return [cases[i] for i in sorted(rng.choice(len(cases), size, replace=False))]


def _check_wedge(n, cases):
    bad = [c for c in cases if not _same(exterior._wedge_arrays(n, *c), loop_wedge_arrays(n, *c))]
    assert not bad, f"n={n}: wedge tables differ at {bad[:5]}"


def _derivation_slice(n, table, p, q):
    """The entries of a whole-algebra derivation table on the sources of Lambda^{p,q},
    as the loop gives them: target bidegree, target and source indices within their
    blocks and signs, row-major; None if there are none, () if they span targets."""
    lay = exterior._layout(n)
    row, col, sign = table
    at = (col >= lay[p, q].start) & (col < lay[p, q].stop)
    if not at.any():
        return None
    row, col, sign = row[at], col[at], sign[at]
    tgt = next(key for key, sl in lay.items()
               if isinstance(key, tuple) and sl.start <= row[0] < sl.stop)
    if not np.all((row >= lay[tgt].start) & (row < lay[tgt].stop)):
        return ()
    order = np.lexsort((col, row))
    return np.array(tgt), row[order] - lay[tgt].start, col[order] - lay[p, q].start, sign[order]


def _check_derivation(n, cases):
    # a loop table's first element, the target bidegree, compares as an integer array
    bad = [(p, q, g, K, L) for g, K, L in cases
           for table in [exterior._derivation_table(n, g, _mask(K), _mask(L))]
           for p, q in itertools.product(range(n + 1), repeat=2)
           if not _same(_derivation_slice(n, table, p, q),
                        loop_derivation_table(n, p, q, g, K, L))]
    assert not bad, f"n={n}: derivation tables differ at {bad[:5]}"


def _check_blocks(n):
    """Masks, conjugation and the complement pairing on every bidegree."""
    I, J, _ = exterior._index(n)
    conj_perm, conj_sign = exterior._conj_perm(n)
    for p, q in itertools.product(range(n + 1), repeat=2):
        sl = exterior._slice(n, (p, q))
        assert np.array_equal(I[sl], [_mask(a) for a, _ in _basis(n, p, q)])
        assert np.array_equal(J[sl], [_mask(b) for _, b in _basis(n, p, q)])
        sign, perm = exterior._conj_table(n, p, q)
        want_sign, want_perm = loop_conj_table(n, p, q)
        assert sign == want_sign and perm.dtype == np.intp
        assert np.array_equal(perm, want_perm)
        assert np.array_equal(conj_perm[sl], exterior._slice(n, (q, p)).start + perm)
        assert conj_sign.dtype == float and np.all(conj_sign[sl] == want_sign)
        assert _same(exterior._complement(n, p, q), loop_complement(n, p, q)), (p, q)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_merge_sign_matches_the_loop_on_every_disjoint_pair(n):
    subsets = [c for p in range(n + 1) for c in itertools.combinations(range(n), p)]
    pairs = [(a, b) for a in subsets for b in subsets if not set(a) & set(b)]
    got = exterior._merge_sign(n, np.array([_mask(a) for a, _ in pairs]),
                               np.array([_mask(b) for _, b in pairs]))
    assert np.array_equal(got, [loop_merge(a, b)[0] for a, b in pairs])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tables_match_the_loops_on_every_combination(n):
    _check_blocks(n)
    _check_wedge(n, _wedge_cases(n))
    _check_derivation(n, _derivation_cases(n))


def test_tables_match_the_loops_on_a_seeded_sample_at_n6():
    _check_blocks(6)
    _check_wedge(6, _sample(_wedge_cases(6), 60, seed=6))
    _check_derivation(6, _sample(_derivation_cases(6), 20, seed=6))


@pytest.mark.parametrize("I, J", [((2, 1), ()), ((1, 1), ()), ((0,), (2, 2)), ((0,), (3,)),
                                  ((-1,), ()), ((0, 1, 2, 3), ())],
                         ids=["descending", "repeated", "repeated in J", "past n", "negative",
                              "too many"])
def test_a_monomial_from_outside_must_be_increasing_and_in_range(I, J):
    with pytest.raises(DegreeOutOfRange):
        Form.monomial(3, I, J)
    entry = {"I": [i + 1 for i in I], "J": [j + 1 for j in J], "re": 1.0}
    with pytest.raises(DegreeOutOfRange):
        Form.from_entries(3, [entry])


@pytest.mark.parametrize("p, q, I, J", [(2, 0, [1], []), (1, 0, [1], [2]), (0, 1, [], [1, 2])],
                         ids=["p too big", "q too small", "q too small in J"])
def test_an_entry_must_have_the_bidegree_of_its_indices(p, q, I, J):
    with pytest.raises(DegreeOutOfRange):
        Form.from_entries(2, [{"p": p, "q": q, "I": I, "J": J, "re": 1.0}])
