"""Dense exact linear algebra over a scalar field.

Matrices in this package stay small (tens of rows), so plain Gaussian
elimination with exact scalar arithmetic is enough.  Rows are lists of
Scalars; there is no matrix class.
"""


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.  Column
    order is the caller's ordering, so putting the monomials the caller
    wants eliminated first makes them the pivots.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    red, pivots = rref(rows)
    in_pivots = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in in_pivots:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis
