"""Helpers shared by the grid and interval spectrum tests: the
extended-precision Rayleigh quotient that stands in for a dense solve
where the dense solve's own rounding shows, the dense Fourier sector
K + T gathered entry by entry, and recorders of the eigensolver calls
and of the sectors a solve makes."""

import numpy as np

from ccrlab import schrodinger


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


def fourier_sector(column, symbol, sector):
    """The dense parity sector K + T that `schrodinger.sector_levels` solves,
    gathered by `_reflection_entries` rather than built from strided views:
    sector = (first, size, sign, fixed), K = diag(symbol) on its modes."""
    first, size, sign, fixed = sector
    modes = np.arange(first, first + size)
    return schrodinger._reflection_entries(column, modes, modes, sign, fixed) + np.diag(symbol[modes])


def record_sectors(monkeypatch) -> list:
    """(column, symbol, sector) of every later sector solve, in the order
    `schrodinger.sector_levels` solves them."""
    sectors = []
    find = schrodinger._schur_levels

    def recorded(column, symbol, sector, tau, count):
        sectors.append((column, symbol, sector))
        return find(column, symbol, sector, tau, count)

    monkeypatch.setattr(schrodinger, "_schur_levels", recorded)
    return sectors
