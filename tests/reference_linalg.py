"""Reference exact linear algebra.

``solve_exact``: Gauss-Jordan elimination of one augmented system
[A | b] over Fractions, one right-hand side at a time, against which
``liealg.solve_many`` (all right-hand sides in one elimination) is
compared column by column.

``laplace_det``: the full Laplace expansion along the first row, which
builds the cofactor of every entry, zero or not, against which
``liealg.det`` (which skips the cofactors of zero entries) is compared.
"""

from fractions import Fraction

from walkerkit.expr import add, mul


def rref(m, ncol):
    nrow = len(m)
    pivots = []
    for col in range(ncol):
        r = len(pivots)
        if r == nrow:
            break
        piv = max(range(r, nrow), key=lambda i: abs(m[i][col]))
        if m[piv][col] == 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def solve_exact(rows, rhs):
    """x with A x = b, free columns 0; None if inconsistent."""
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    ncol = len(m[0]) - 1
    pivots = rref(m, ncol)
    if any(row[ncol] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncol
    for r, col in enumerate(pivots):
        x[col] = m[r][ncol]
    return x


def laplace_det(m):
    """Determinant of a square matrix of Exprs, every cofactor built."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        (p, q), (r, s) = m
        return add(mul(p, s), mul(-1, q, r))
    return add(*(mul(-1 if j % 2 else 1, m[0][j],
                     laplace_det([r[:j] + r[j + 1:] for r in m[1:]]))
                 for j in range(len(m))))
