"""Truncated Taylor ("jet") arithmetic on batches of points.

A jet is an array of shape (P, m+1) whose column a holds the Taylor
coefficient f^{(a)}(s_p)/a! of an expansion in h around each point s_p.
Storing coefficients rather than raw derivatives keeps products as plain
polynomial convolutions. Orders here are small (m <= 13), so the O(m^2)
convolution loops run over numpy vectors of points.

The reductions are elementwise or per-column, never BLAS matmuls, so each
point's result depends only on that point: batches can be split arbitrarily
without changing a single bit of output.
"""

from __future__ import annotations

import numpy as np


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two jets of equal order."""
    p, m1 = a.shape
    out = np.zeros_like(a)
    for k in range(m1):
        for i in range(k + 1):
            out[:, k] += a[:, i] * b[:, k - i]
    return out


def jet_mul_linear(a: np.ndarray, lin0: np.ndarray) -> np.ndarray:
    """Product of a jet with the linear jet (lin0 + h), in place of a full
    convolution. lin0 has shape (P,)."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 0] * lin0
    for k in range(1, a.shape[1]):
        out[:, k] = a[:, k] * lin0 + a[:, k - 1]
    return out


def jet_inv(a: np.ndarray) -> np.ndarray:
    """Reciprocal jet 1/a; requires a[:, 0] != 0."""
    out = np.zeros_like(a)
    out[:, 0] = 1.0 / a[:, 0]
    for k in range(1, a.shape[1]):
        acc = np.zeros_like(a[:, 0])
        for i in range(1, k + 1):
            acc = acc + a[:, i] * out[:, k - i]
        out[:, k] = -acc / a[:, 0]
    return out


def jet_exp_of_scalar(base: np.ndarray, rate: complex | np.ndarray, m: int) -> np.ndarray:
    """Jet of base * exp(rate*h): coefficients base * rate^a / a!.

    base has shape (P,); rate is scalar or (P,)."""
    p = base.shape[0]
    out = np.empty((p, m + 1), dtype=base.dtype)
    out[:, 0] = base
    for a in range(1, m + 1):
        out[:, a] = out[:, a - 1] * rate / a
    return out


def derivatives_from_jet(a: np.ndarray) -> np.ndarray:
    """Convert Taylor coefficients to derivative values (multiply by a!)."""
    out = a.copy()
    fact = 1.0
    for k in range(1, a.shape[1]):
        fact *= k
        out[:, k] *= fact
    return out
