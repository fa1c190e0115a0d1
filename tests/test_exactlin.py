"""Exact linear algebra tests: the library's sparse rank and spans_equal,
and the dense rref and kernel_basis oracles of tests/ratmatrix.py.

Frozen expected values were derived by hand first (the eliminations are noted
inline); property tests compare against sympy's independent implementation.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from ratmatrix import RatMatrix, kernel_basis, rref
from toricsym.exactlin import rank, spans_equal

F = Fraction


def M(rows):
    return RatMatrix.from_rows(rows)


# Hand elimination for [[2,1],[1,1]]:
#   R1 <- R1/2          -> [1, 1/2]
#   R2 <- R2 - R1       -> [0, 1/2]
#   R2 <- 2*R2          -> [0, 1]
#   R1 <- R1 - R2/2     -> [1, 0]
# so rref is the identity with pivots (0, 1).
def test_rref_invertible_2x2():
    red, pivots = rref(M([[2, 1], [1, 1]]))
    assert red == RatMatrix.identity(2)
    assert pivots == (0, 1)


# Hand elimination for [[1,2,3],[2,4,6]]: R2 <- R2 - 2*R1 kills row 2, so the
# echelon form is [[1,2,3],[0,0,0]], pivot column 0, free columns 1 and 2.
def test_rref_rank_deficient():
    red, pivots = rref(M([[1, 2, 3], [2, 4, 6]]))
    assert pivots == (0,)
    assert red.row(0) == (F(1), F(2), F(3))
    assert red.row(1) == (F(0), F(0), F(0))
    # kernel vectors: free column gets 1, pivot column gets -R[0, free]
    assert kernel_basis(M([[1, 2, 3], [2, 4, 6]])) == (
        (F(-2), F(1), F(0)),
        (F(-3), F(0), F(1)),
    )


def test_pivot_rule_skips_zero_column():
    red, pivots = rref(M([[0, 2], [0, 1]]))
    assert pivots == (1,)
    assert red.row(0) == (F(0), F(1))


def test_matmul_and_identity():
    a = M([[1, 2], [3, 4]])
    assert a @ RatMatrix.identity(2) == a
    assert (a @ M([[0, 1], [1, 0]])).row_list() == [[2, 1], [4, 3]]


def test_spans_and_membership():
    a = M([[1, 0], [0, 1], [1, 1]])
    b = M([[1, 1], [1, -1], [2, 0]])
    assert spans_equal(a.row_list(), b.row_list())
    assert spans_equal(a.transpose().row_list(), b.transpose().row_list())
    assert not spans_equal([[1, 0]], [{1: 1}])


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@st.composite
def matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    rows = draw(st.lists(
        st.lists(small_fractions, min_size=m, max_size=m),
        min_size=n, max_size=n))
    return RatMatrix.from_rows(rows)


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rref_matches_sympy_oracle(a):
    red, pivots = rref(a)
    sred, spivots = sympy.Matrix(a.row_list()).rref()
    assert pivots == tuple(spivots)
    assert [[F(x.p, x.q) for x in row] for row in sred.tolist()] == red.row_list()


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_nullity_and_kernel_vectors(a):
    ker = kernel_basis(a)
    assert rank(a.row_list()) + len(ker) == a.cols
    zero = (F(0),) * a.rows
    for v in ker:
        assert a.mat_vec(v) == zero


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rref_idempotent(a):
    red, pivots = rref(a)
    again, pivots2 = rref(red)
    assert again == red and pivots2 == pivots


sparse_fractions = st.one_of(st.just(F(0)), small_fractions)


@st.composite
def structured_matrices(draw):
    """Rational matrices, tall or wide, whose rows are drawn rows, zero rows,
    repeats of earlier rows and sums of two earlier rows, in any order."""
    m = draw(st.integers(1, 7))
    rows: list[list[F]] = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("new", "zero", "repeat", "sum")))
        if kind == "zero":
            rows.append([F(0)] * m)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "sum" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(sparse_fractions, min_size=m,
                                      max_size=m)))
    return RatMatrix.from_rows(rows)


@settings(deadline=None, max_examples=150)
@given(structured_matrices())
def test_sparse_rank_matches_sympy_in_every_row_form(a):
    """rank takes dense rows or {column: value} rows alike, and agrees with
    sympy's Matrix.rank() on each; spans_equal finds that the rows span the
    row space of sympy's reduced echelon form."""
    smat = sympy.Matrix(a.row_list())
    want = smat.rank()
    dict_rows = [{j: x for j, x in enumerate(r) if x} for r in a.row_list()]
    assert rank(a.row_list()) == rank(dict_rows) == want
    assert rank(a.transpose().row_list()) == want
    echelon = [[F(x.p, x.q) for x in row] for row in smat.rref()[0].tolist()]
    assert spans_equal(dict_rows, echelon[:want])


def test_sparse_rank_degenerate_inputs():
    assert rank([]) == rank([{}]) == rank([[0, 0], {}]) == 0
    assert rank([{5: 1}, [0, 0, 0, 0, 0, 2]]) == 1
    # integer rows are promoted to Fraction: in floats, 10**20 + 1 and
    # 10**20 are equal and these rows would have rank 1
    assert rank([[1, 10**20 + 1], [1, 10**20]]) == 2
    assert rank([[2, 3], [4, 6]]) == 1
