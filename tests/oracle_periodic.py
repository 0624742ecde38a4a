"""Independent oracle for periodic Jacobi matrices.

The two-sided p-periodic Jacobi matrix with off-diagonal a_n and diagonal b_n
has the spectrum where its discriminant Delta (the trace of the one-period
transfer matrix) lies in [-2, 2].  Delta = 2 at the eigenvalues of the p x p
matrix with the periodic corner a_p, and Delta = -2 at those of the matrix with
the antiperiodic corner -a_p; together they are the 2p band edges.  Each of the
p bands carries density-of-states mass 1/p, so the frequency of bands k..p-1 is
(p - k)/p and the integrated density of states is j/p on gap j.

Deliberately shares no code with the toolkit: the edges come from numpy's
eigvalsh alone.
"""

import numpy as np


def periodic_coefficients(p, amp, rng):
    """(a, b) of one period: a_n = 1 + amp U(-1, 1) and b_n = amp U(-1, 1)."""
    return 1.0 + amp * rng.uniform(-1.0, 1.0, p), amp * rng.uniform(-1.0, 1.0, p)


def band_edges(a, b):
    """The 2p band edges of the p-periodic matrix (p >= 3), ascending: band m is
    [e[2m], e[2m + 1]] and gap j is (e[2j - 1], e[2j])."""
    edges = []
    for corner in (1.0, -1.0):
        jac = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
        jac[0, -1] = jac[-1, 0] = corner * a[-1]
        edges.append(np.linalg.eigvalsh(jac))
    return np.sort(np.concatenate(edges))
