"""One study's reusable arrays, and the plan of which stage writes which of them.

Every replicate of a study has the same n and grid, so the length-n arrays of sampling,
ranking and second-order estimation, and the (rows, k_max) arrays of the M_{a,b} kernel,
can be made once per study.  At n = 20,000 a length-n array is 160 KB, a size glibc
hands back to the kernel when it is freed, so a fresh one is page-faulted in again.

Each stage takes a ``Workspace`` as its keyword-only ``workspace`` and asks its accessor
here, ``sampling``, ``ranking``, ``second_order`` or ``kernel``, for buffers to write its
results and temporaries into through ``out=``, with the same ufuncs in the same order as
without one, so the values are the same to the bit.  Without a workspace the accessor
gives Nones, so numpy allocates, and new arrays where the stage needs them.  A result
computed in a workspace holds until the workspace's next use.  As a replicate runs:

* sampling writes u and v to float buffers 0 and 1 and takes 2..5 as temporaries;
* ranking reads u and v and sorts each margin into float buffer 2; the ranks go to
  int buffers of their own, and min(rx, ry), which every later stage reads, over rx;
* second-order estimation, once u and v are spent, takes four float buffers: the
  tail, then its logs, in 0 and three temporaries in 1..3;
* the kernel's arrays are its own, sized for the grid; ``evaluate_cells`` fills the
  stacked tails, which the kernel turns into logs in place.
"""
from __future__ import annotations

import numpy as np


class Workspace:
    """Buffers for samples of size ``n``: six float64 and two int64 (rank) arrays of
    length n, a tie mask, 1..n, and i/k0 and the kernel's arrays for the last shape."""

    def __init__(self, n: int):
        self.n = n
        self.floats = tuple(np.empty(n) for _ in range(6))
        self.ranks = {margin: np.empty(n, dtype=np.int64) for margin in "xy"}
        self.tied = np.empty(n - 1, dtype=bool)
        self.counts = np.arange(1, n + 1)
        self.fractions = (0, None)
        self.kernel = (None, None)


def _sized(workspace: Workspace, n: int) -> Workspace:
    if workspace.n != n:
        raise ValueError(f"workspace holds samples of n = {workspace.n}, not {n}")
    return workspace


def sampling(workspace: Workspace | None, n: int) -> tuple:
    """u, v and four temporaries of length n."""
    return (None,) * 6 if workspace is None else _sized(workspace, n).floats


def ranking(workspace: Workspace | None, n: int, margin: str) -> tuple:
    """For margin "x" or "y": the sorted values, the tie mask, the ranks and 1..n."""
    if workspace is None:
        return None, None, np.empty(n, dtype=np.int64), np.arange(1, n + 1)
    workspace = _sized(workspace, n)
    return workspace.floats[2], workspace.tied, workspace.ranks[margin], workspace.counts


def second_order(workspace: Workspace | None, n: int, k0: int) -> tuple:
    """The k0 + 1 values of the tail, three temporaries of length k0, 1..k0 and i/k0."""
    if workspace is None:
        i = np.arange(1, k0 + 1)
        return None, None, None, None, i, i / k0
    workspace = _sized(workspace, n)
    if workspace.fractions[0] != k0:
        workspace.fractions = (k0, workspace.counts[:k0] / k0)
    tail, *temporaries = workspace.floats[:4]
    return (tail[:k0 + 1], *(buffer[:k0] for buffer in temporaries), workspace.counts[:k0],
            workspace.fractions[1])


def kernel(workspace: Workspace | None, tails: int, rows: int, top: int, columns: int) -> tuple:
    """For ``rows`` (a, b) rows on ``tails`` tails at ``columns`` values of k up to ``top``:
    the stacked tails (tails, top + 1), their excesses (tails, top), the terms (rows, top)
    and two (rows, columns) arrays of the values at each k."""
    if workspace is None:
        return np.empty((tails, top + 1)), None, None, None, None
    shape = (tails, rows, top, columns)
    if workspace.kernel[0] != shape:
        workspace.kernel = (shape, (np.empty((tails, top + 1)), np.empty((tails, top)),
                                    np.empty((rows, top)), np.empty((rows, columns)),
                                    np.empty((rows, columns))))
    return workspace.kernel[1]
