"""A ``GridValueFunction`` from a full-lattice array, for tests that write
their values node by node."""

import numpy as np

from mfrl import fd


def of_full_array(values, T):
    """The function of horizon ``T`` whose slices are ``values``, shape
    (n_t + 1, mesh, ..., mesh), gathered at the sorted cells; the entries
    at the other nodes are not read."""
    values = np.asarray(values, dtype=float)
    n_t, N, mesh = values.shape[0] - 1, values.ndim - 1, values.shape[-1]
    ranks = fd._rank_table(N, mesh)  # held here, the function below shares it
    return fd.GridValueFunction(N, mesh, n_t, T, values.reshape(n_t + 1, -1)[:, ranks.keys])
