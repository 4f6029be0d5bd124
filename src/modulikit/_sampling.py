"""Seeded random matrix draws shared by the property suite, the centralizer
sampler and the tests.

Every function draws from an explicit numpy Generator.  The order of the
draws is fixed: selftest reports and sampled centralizer elements are
byte-identical for a fixed seed.
"""

from __future__ import annotations

import numpy as np


def cnormal(rng, n, m=None):
    """Complex standard normal n x m matrix (square by default), unit entry variance."""
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def unitary(rng, n):
    """Random unitary from a QR factorization with phase fixing."""
    q, r = np.linalg.qr(cnormal(rng, n))
    diag = np.diag(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * phases


def well_conditioned(rng, n):
    """Random invertible matrix with singular values in [1/e, e]."""
    core = np.exp(rng.uniform(-1.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return unitary(rng, n) @ np.diag(core) @ unitary(rng, n)


def unit_disk(rng, shape):
    """Entries uniform on the unit disk: sqrt(u) radius, uniform angle."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, shape))
    angle = rng.uniform(0.0, 2.0 * np.pi, shape)
    return radius * np.exp(1j * angle)
