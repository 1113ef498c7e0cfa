import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from regtri import linalg

from oracles import fraction_rref, naive_det


def random_matrix(rng, n, scale=20):
    return [
        [Fraction(rng.randint(-scale, scale), rng.randint(1, 5)) for _ in range(n)]
        for _ in range(n)
    ]


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(20):
            m = random_matrix(rng, n)
            assert linalg.det(m) == naive_det(m)


def test_det_sign():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, 4)
        d = naive_det(m)
        assert linalg.det_sign(m) == (d > 0) - (d < 0)


def test_det_singular():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.det(m) == 0
    assert linalg.det_sign(m) == 0


def test_solve_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        if naive_det(m) == 0:
            continue
        x = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        b = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert linalg.solve(m, b) == x


def test_solve_singular_returns_none():
    assert linalg.solve([[1, 1], [2, 2]], [1, 2]) is None


def test_rank():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 2, 3], [4, 5, 6], [5, 7, 9]]) == 2


def test_kernel_vector_nullity_one():
    # columns of a 2x3 rank-2 matrix: one-dimensional kernel
    cols = [[1, 0], [0, 1], [1, 1]]
    v = linalg.kernel_vector(cols)
    assert v is not None
    assert any(x != 0 for x in v)
    for i in range(2):
        assert sum(cols[j][i] * v[j] for j in range(3)) == 0


def test_kernel_vector_rejects_other_nullities():
    assert linalg.kernel_vector([[1, 0], [0, 1]]) is None  # trivial kernel
    assert linalg.kernel_vector([[1, 0], [2, 0], [3, 0], [0, 1]]) is None


def test_kernel_vector_random_dependences():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(2, 4)
        # d+2 random points homogenized: affine dependence is the kernel
        pts = [[Fraction(rng.randint(-9, 9)) for _ in range(d)] for _ in range(d + 2)]
        cols = [p + [Fraction(1)] for p in pts]
        v = linalg.kernel_vector(cols)
        if v is None:
            continue  # degenerate sample
        for i in range(d + 1):
            assert sum(cols[j][i] * v[j] for j in range(d + 2)) == 0


def largest_nonzero_minor(m):
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                if naive_det([[m[i][j] for j in c] for i in r]) != 0:
                    return k
    return 0


def test_rank_matches_largest_nonzero_minor_on_deficient_matrices():
    rng = random.Random(13)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        k = rng.randint(0, min(rows, cols) - 1)
        # a product through k dimensions has rank at most k
        left = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(rows)]
        right = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(k)]
        m = [[sum((a[t] * right[t][j] for t in range(k)), Fraction(0))
              for j in range(cols)] for a in left]
        assert linalg.rank(m) == largest_nonzero_minor(m) <= k


rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 7]))


@st.composite
def rational_matrices(draw, rows=st.integers(1, 5), cols=st.integers(1, 5)):
    """Rational matrices whose trailing rows are often combinations of
    the leading ones, so rank deficiency comes up often."""
    nrows, ncols = draw(rows), draw(cols)
    row = st.lists(rationals, min_size=ncols, max_size=ncols)
    free = draw(st.integers(1, nrows))
    m = draw(st.lists(row, min_size=free, max_size=free))
    while len(m) < nrows:
        coeffs = draw(st.lists(rationals, min_size=free, max_size=free))
        m.append([sum((a * r[j] for a, r in zip(coeffs, m)), Fraction(0))
                  for j in range(ncols)])
    return m


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rank_and_kernel_vector_equal_fraction_rref(m):
    assert linalg.rank(m) == len(fraction_rref(m)[1])
    # kernel_vector takes m's rows as the columns of its matrix
    ncols = len(m)
    kreduced, kpivots = fraction_rref([list(col) for col in zip(*m)])
    free = [c for c in range(ncols) if c not in kpivots]
    expected = None
    if len(free) == 1:
        expected = [Fraction(0)] * ncols
        expected[free[0]] = Fraction(1)
        for r, col in enumerate(kpivots):
            expected[col] = -kreduced[r][free[0]]
    assert linalg.kernel_vector(m) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(rational_matrices(st.just(n), st.just(n)),
                        st.lists(st.lists(rationals, min_size=n, max_size=n),
                                 min_size=1, max_size=3))))
def test_solve_equals_fraction_rref(system):
    a, bs = system
    n = len(a)
    xs = []
    for b in bs:
        reduced, pivots = fraction_rref([row + [bi] for row, bi in zip(a, b)])
        singular = pivots != list(range(n))
        xs.append(None if singular else [reduced[i][n] for i in range(n)])
        assert linalg.solve(a, b) == xs[-1]
    # all right-hand sides at once, as the columns of a matrix
    expected = None if xs[0] is None else [list(row) for row in zip(*xs)]
    assert linalg.solve(a, [list(row) for row in zip(*bs)]) == expected


sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(sparse_rationals, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_and_det_sign_equal_cofactor_expansion_on_sparse_matrices(m):
    # about half the entries zero: the elimination swaps rows, pivots on
    # negative entries and meets singular matrices
    d = naive_det(m)
    assert linalg.det(m) == d
    assert linalg.det_sign(m) == (d > 0) - (d < 0)
