"""Anderson acceleration for fixed-point iterations.

Type-II Anderson: given recent iterates x_j and their fixed-point images
g_j = G(x_j), minimize the norm of the affine combination of residuals
r_j = g_j - x_j subject to the weights summing to one, and return the
same combination of the images. Depth zero reproduces the plain iteration
exactly (identity passthrough).
"""

from collections import deque

import numpy as np

# Relative Tikhonov term added to the normal-equation matrix of the
# constrained least-squares problem.
_REGULARIZATION = 1e-12


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
        self._pairs = deque(maxlen=max(depth, 1))

    def update(self, x, gx):
        """Record the pair (x, G(x)) and return the next iterate."""
        x = np.asarray(x, dtype=float)
        gx = np.asarray(gx, dtype=float)
        if self.depth == 0:
            return gx.copy()
        self._pairs.append((x.copy(), gx.copy()))
        return self._mix()

    def _mix(self):
        k = len(self._pairs)
        if k == 1:
            return self._pairs[0][1].copy()
        R = np.stack([g - x for x, g in self._pairs], axis=1)  # (n, k)
        G = np.stack([g for _, g in self._pairs], axis=1)
        # minimize |R a|^2 s.t. sum(a) = 1 via KKT on the normal equations
        H = R.T @ R
        scale = np.trace(H) / k if np.trace(H) > 0 else 1.0
        H = H + _REGULARIZATION * scale * np.eye(k)
        KKT = np.zeros((k + 1, k + 1))
        KKT[:k, :k] = H
        KKT[:k, k] = 1.0
        KKT[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(KKT, rhs)
            alpha = sol[:k]
        except np.linalg.LinAlgError:
            alpha = np.zeros(k)
            alpha[-1] = 1.0
        return G @ alpha
