"""Helpers shared by the grid and interval spectrum tests: the
extended-precision Rayleigh quotient that stands in for a dense solve
where the dense solve's own rounding shows, the dense Fourier sector
K + T gathered entry by entry, the block search on one sector, and
recorders of the eigensolver calls and of the sectors a solve makes."""

import functools

import numpy as np

from ccrlab import interval, schrodinger


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


def search_sector(column, symbol, sector, tau, count):
    """`schrodinger._schur_levels` on one parity sector (first, size, sign,
    fixed), with the gather and the acceptance bound, 4 u sigma_count, that
    `schrodinger.sector_levels` gives it."""
    first, size, sign, fixed = sector
    return schrodinger._schur_levels(
        functools.partial(schrodinger._reflection_entries, column, sign=sign, fixed=fixed), symbol,
        np.arange(first, first + size, dtype=np.int32), tau, count,
        lambda sigma: schrodinger._CERTIFY_ULPS * schrodinger._UNIT_ROUNDOFF * sigma[-1])


def record_sectors(monkeypatch) -> list:
    """(column, symbol, sector) of every later sector solve, in the order
    `schrodinger.sector_levels` solves them."""
    sectors = []
    solve = schrodinger.sector_levels

    def recorded(column, symbol, parts, *args):
        sectors.extend((column, symbol, sector) for sector in parts)
        return solve(column, symbol, parts, *args)

    monkeypatch.setattr(schrodinger, "sector_levels", recorded)
    monkeypatch.setattr(interval, "sector_levels", recorded)
    return sectors
