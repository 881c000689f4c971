"""Anderson acceleration for fixed-point iterations.

Type-II Anderson: given recent iterates x_j and their fixed-point images
g_j = G(x_j), minimize the norm of the affine combination of residuals
r_j = g_j - x_j subject to the weights summing to one, and return the
same combination of the images. Written through differences of
consecutive pairs, that is one unconstrained least-squares problem (Walker
& Ni 2011, SIAM J. Numer. Anal. 49(4)). Depth zero reproduces the plain
iteration exactly (identity passthrough).
"""

from collections import deque

import numpy as np


class AndersonWindow:
    """Sliding window of (iterate, image) pairs with constrained mixing.

    Parameters
    ----------
    depth : int
        Maximum number of stored pairs; 0 disables acceleration.
    """

    def __init__(self, depth):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.depth = depth
        self._pairs = deque(maxlen=depth)

    def update(self, x, gx):
        """Record the pair (x, G(x)) and return the next iterate.

        That is g_k - dG gamma, with gamma minimizing |r_k - dR gamma| and
        dR, dG the differences of consecutive residuals and images; with
        one pair, dR has no columns and this is g_k.
        """
        gx = np.asarray(gx, dtype=float)
        if self.depth == 0:
            return gx.copy()
        self._pairs.append((np.array(x, dtype=float), gx.copy()))
        X, G = (np.stack(cols, axis=1) for cols in zip(*self._pairs))  # (n, k)
        R = G - X
        gamma = np.linalg.lstsq(np.diff(R, axis=1), R[:, -1], rcond=None)[0]
        return G[:, -1] - np.diff(G, axis=1) @ gamma
