"""Incomplete gamma and 1/Gamma from math and numpy.

The tempered stable tail and truncated mean are upper incomplete gammas
Gamma(s, z), the truncated variances and the occupation kernel lower ones
gamma(s, z), and the Mittag-Leffler asymptotics need 1/Gamma.  The split
follows Gautschi (1979, ACM TOMS 5): below z = 1.5 the power series of
gamma(s, z), above it Gamma(s, z) by a 64-node Gauss-Laguerre rule, one
rule for a Python float and for an array.  Each side takes the other
from Gamma(s); that subtraction costs most just below the split at small
s, about 6e-13 relative at s = 0.01.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SPLIT = 1.5
# 1.5**k/k! < 3e-25 at k = 28: the series is complete below the split
_SERIES_TERMS = 28
_LAGUERRE_NODES = 64


def _rgamma(x):
    """1/Gamma(x) of a float x > -171, exactly 0 at the poles 0, -1, -2, ...

    Above x = 171.6, where Gamma overflows, it is 0 too.
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


_POWERS = np.arange(_SERIES_TERMS + 1.0)


@functools.lru_cache(maxsize=16)
def _series_coeffs(s):
    # 1/(s (s+1) ... (s+k)), the coefficient of z**k in the series
    out = np.cumprod(1.0 / (s + _POWERS))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1)
def _laguerre():
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    # the Laguerre weight exp(-t), the weights the squared first components
    # of its eigenvectors.  The nodes of weight below 1e-22 are dropped:
    # even the quadratic integrand at s = 3 lifts none of them above 1e-19
    k = np.arange(1.0, _LAGUERRE_NODES)
    jacobi = np.diag(2.0 * np.arange(_LAGUERRE_NODES) + 1.0) + np.diag(k, 1) + np.diag(k, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    keep = weights > 1e-22
    return nodes[keep], weights[keep]


def _lower_series(s, z):
    # gamma(s, z) = z**s exp(-z) sum_k z**k / (s (s+1) ... (s+k)); z a float or 1-d array
    return z**s * np.exp(-z) * (np.power.outer(z, _POWERS) @ _series_coeffs(s))


def _upper_laguerre(s, z):
    # Gamma(s, z) = z**(s-1) exp(-z) integral_0^inf exp(-t) (1 + t/z)**(s-1) dt
    nodes, weights = _laguerre()
    integral = np.power(1.0 + nodes / np.expand_dims(z, -1), s - 1.0) @ weights
    return z ** (s - 1.0) * np.exp(-z) * integral


def _incomplete_gamma(s, z):
    """(gamma(s, z), Gamma(s, z)) for a float s > 0 and z >= 0.

    z may be a float or a numpy array; a scalar z gives Python floats.
    Gamma(s, z) underflows to 0 well before z = 1000 at s <= 3, so z is
    clipped there, which keeps z = inf from giving 0*inf.
    """
    full = math.gamma(s)
    if np.ndim(z) == 0:
        z = min(float(z), 1e3)
        low = z < _SPLIT
        direct = float(_lower_series(s, z) if low else _upper_laguerre(s, z))
        return (direct, full - direct) if low else (full - direct, direct)
    z = np.minimum(z, 1e3)
    low = z < _SPLIT
    # gamma(s, z) below the split, Gamma(s, z) above it
    direct = np.empty(z.shape)
    direct[low] = _lower_series(s, z[low])
    direct[~low] = _upper_laguerre(s, z[~low])
    other = full - direct
    return np.where(low, direct, other), np.where(low, other, direct)
