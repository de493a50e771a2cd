"""The multisets of a lattice by an independent construction, and a
``GridValueFunction`` from a full-lattice array, for tests that write their
values node by node."""

import numpy as np

from mfrl import fd


def multisets_by_sorting(n, mesh):
    """The flat lattice index of each sorted cell, ascending, and the rank of
    the multiset of every flat lattice node: every index tuple sorted and
    ``np.unique``."""
    shape = (mesh,) * n
    index = np.sort(np.indices(shape).reshape(n, -1), axis=0)
    return np.unique(np.ravel_multi_index(tuple(index), shape), return_inverse=True)


def of_full_array(values, T):
    """The function of horizon ``T`` whose slices are ``values``, shape
    (n_t + 1, mesh, ..., mesh), gathered at the sorted cells; the entries
    at the other nodes are not read."""
    values = np.asarray(values, dtype=float)
    n_t, N, mesh = values.shape[0] - 1, values.ndim - 1, values.shape[-1]
    keys = multisets_by_sorting(N, mesh)[0]
    return fd.GridValueFunction(N, mesh, n_t, T, values.reshape(n_t + 1, -1)[:, keys])
