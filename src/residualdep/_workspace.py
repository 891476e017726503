"""One study's reusable arrays.

Every replicate of a study has the same n and the same grid, so the length-n arrays
that sampling, ranking and second-order estimation write, and the (rows, k_max)
arrays of the M_{a,b} kernel, can be made once per study.  At n = 20,000 each
length-n array is 160 KB, a size that glibc hands back to the kernel when it is
freed, so a fresh array per replicate is page-faulted in again on every replicate.

``sample_copula``, ``PseudoSample.from_sample``, ``estimate_second_order`` and
``m_ab_path`` take a ``Workspace`` as their keyword-only ``workspace``.  Given one, they
write each result and temporary of those sizes into its buffers through ``out=``, with
the same ufuncs in the same order as without one, so the values are the same to the
bit; without one, every ``out`` is None and numpy allocates as usual.  A result
computed in a workspace lives in its buffers: it holds until the workspace's next use.
"""
from __future__ import annotations

import numpy as np

# ``sample_copula`` writes u and v to float slots 0 and 1 and takes 2..5 as
# temporaries; ranking reads u and v and sorts a margin into slot 2; second-order
# estimation, which runs after ranking, takes all six.
FLOATS = 6


class Workspace:
    """Buffers for samples of size ``n``: six float64 and two int64 arrays of length
    n, a boolean one of length n - 1, the constants 1..n and i/k0, and the kernel's
    arrays for the study's grid."""

    def __init__(self, n: int):
        self.n = n
        self.floats = tuple(np.empty(n) for _ in range(FLOATS))
        self.ranks = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
        self.tied = np.empty(n - 1, dtype=bool)
        self.counts = np.arange(1, n + 1)
        self._fractions = (0, None)
        self._kernel = (None, None)

    def fractions(self, k0: int) -> np.ndarray:
        """i / k0 for i = 1..k0, kept for the last k0 asked for (a study has one)."""
        if self._fractions[0] != k0:
            self._fractions = (k0, self.counts[:k0] / k0)
        return self._fractions[1]

    def kernel(self, tails: int, rows: int, top: int, columns: int) -> tuple:
        """The kernel's float64 arrays for ``rows`` (a, b) rows over ``tails`` tails, at
        ``columns`` values of k up to ``top``: the stacked tails (tails, top + 1), which
        the kernel turns into logs in place, their excesses (tails, top), the terms
        (rows, top), and two (rows, columns) arrays for the values at each k; kept for
        the last shape asked for (a study has one grid)."""
        shape = (tails, rows, top, columns)
        if self._kernel[0] != shape:
            self._kernel = (shape, (np.empty((tails, top + 1)), np.empty((tails, top)),
                                    np.empty((rows, top)), np.empty((rows, columns)),
                                    np.empty((rows, columns))))
        return self._kernel[1]


def floats(workspace: Workspace | None, n: int, size: int | None = None) -> tuple:
    """The float64 buffers of ``workspace`` cut to ``size`` (n by default); without a
    workspace, as many Nones, so that each ``out=`` given one allocates."""
    if workspace is None:
        return (None,) * FLOATS
    if workspace.n != n:
        raise ValueError(f"workspace holds samples of n = {workspace.n}, not {n}")
    if size is None:
        return workspace.floats
    return tuple(buffer[:size] for buffer in workspace.floats)
