"""The numeral kernels of ``FreeGroup.mul_packed`` and ``dist_packed``,
kept as the tests' independent reference for the bit-field kernels that
replaced them. They read only the (numeral, length) columns of packed rows
and peel one base-(2k+1) digit per numpy pass."""

import numpy as np


def numeral_mul_packed(g, A, B):
    """The (numeral, length) rows of the products a*b of F_k rows."""
    # The first c letters of b cancel the last c letters of a exactly when
    # the c lowest digits of a are the inverses of b's c leading digits
    # (past a's end its digits are 0, which is no letter), and then a*b
    # is a without them followed by b[c:]: numeral(a) // base^c *
    # base^(|b| - c) + numeral(b) mod base^(|b| - c), of length |a| + |b|
    # - 2c. Digits d and (d + k - 1) mod 2k + 1 are inverse letters.
    k, base = g.rank, 2 * g.rank + 1
    la, lb = A[..., 1].astype(np.int64), B[..., 1].astype(np.int64)
    most_a, most_b = int(la.max(initial=0)), int(lb.max(initial=0))
    dtype = object if object in (A.dtype, B.dtype) or most_a + most_b > g.pack_limit else np.uint64
    powers = np.array([base**t for t in range(max(most_a, most_b) + 1)], dtype=object).astype(dtype)
    na, nb = A[..., 0].astype(dtype, copy=False), B[..., 0].astype(dtype, copy=False)
    cancel = np.zeros(np.broadcast_shapes(na.shape, nb.shape), dtype=np.int64)
    matching = np.ones(cancel.shape, dtype=bool)
    rest = na
    for j in range(min(most_a, most_b)):
        high = rest // base
        low, rest = rest - high * base, high  # a's letter j from the end
        lead = nb // powers[np.maximum(lb - 1 - j, 0)]
        lead -= lead // base * base  # b's letter j
        matching &= (low == (lead + (k - 1)) % (2 * k) + 1) & (j < lb)  # its inverse
        if not matching.any():
            break
        cancel += matching
    kept = powers[lb - cancel]
    out = np.empty((*cancel.shape, 2), dtype=dtype)  # numpy reads 0-d object results as scalars
    out[..., 0] = na // powers[cancel] * kept + nb % kept
    out[..., 1] = la + lb - 2 * cancel
    return out


def numeral_dist_packed(g, A, B):
    """dist(a, b) of F_k rows, from their numerals and lengths."""
    # |a| + |b| - 2 (the length of the common suffix), which is the count of
    # equal low digits that are letters (not 0), until no pair still matches
    base = 2 * g.rank + 1  # Python ints meet machine ones as Python ints
    na, nb = A[..., 0], B[..., 0]
    common = np.zeros(np.broadcast_shapes(na.shape, nb.shape), dtype=np.int64)
    matching = np.ones(common.shape, dtype=bool)
    while matching.any():
        high_a, high_b = na // base, nb // base
        low = na - high_a * base
        matching &= (low == nb - high_b * base) & (low != 0)
        common += matching
        na, nb = high_a, high_b
    return A[..., 1].astype(np.int64) + B[..., 1].astype(np.int64) - 2 * common
