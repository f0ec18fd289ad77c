"""Helpers shared by the grid and interval spectrum tests: the
extended-precision Rayleigh quotient that stands in for a dense solve
where the dense solve's own rounding shows, and a recorder of the
eigensolver calls a solve makes."""

import numpy as np


def rayleigh_quotients(H, V):
    """v^T H v / v^T v for each column v of V, summed in extended precision."""
    H, V = H.astype(np.longdouble), V.astype(np.longdouble)
    return (np.einsum("ij,ij->j", V, H @ V) / np.einsum("ij,ij->j", V, V)).astype(float)


def record_solvers(monkeypatch) -> list:
    """(name, side) of every later eigh and eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=solver, _n=name, **kw: (
            calls.append((_n, a.shape[-1])), _f(a, *args, **kw))[1])
    return calls
