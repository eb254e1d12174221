"""A CSR matrix of P, the test-side reference for the solver's operator.

The solver applies P through the neighbour table only; the tests compare
its residuals and operators with sparse products of this matrix.
"""

import numpy as np
import scipy.sparse as sp


def csr_matrix(pattern, weights: np.ndarray) -> sp.csr_matrix:
    """P for one environment's (n, 2d) weights on a `RegionPattern`: row y
    steps to pattern.nbr[y, e] with weight weights[y, e].  The inside steps
    are sorted by row, then column (one lexsort), so each row's products sum
    in a fixed order."""
    n, nd = pattern.n, 2 * pattern.d
    inside = pattern.nbr.ravel() >= 0
    rows = np.repeat(np.arange(n, dtype=np.int64), nd)[inside]
    cols = pattern.nbr.ravel()[inside]
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(np.int32)
    data = weights.ravel()[inside][order]
    return sp.csr_matrix((data, cols[order].astype(np.int32), indptr), shape=(n, n))


def system_matrix(system) -> sp.csr_matrix:
    """P of a `QuenchedSystem`."""
    return csr_matrix(system.pattern, system.weights)
