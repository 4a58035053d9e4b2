"""Reference helpers that only the tests use, on the package's own elimination."""

import numpy as np

from ver4forms import linalg as la


def is_invertible(F, M: np.ndarray) -> bool:
    """Whether M is square of full rank."""
    n = M.shape[0]
    return M.shape[1] == n and la.rank(F, M) == n


def inverse(F, M: np.ndarray) -> np.ndarray:
    """M^-1, solved from [M | I]; ValueError for a non-square or singular M."""
    if not is_invertible(F, M):
        raise ValueError("matrix is not invertible")
    return la.solve(F, M, la.eye(len(M)))
