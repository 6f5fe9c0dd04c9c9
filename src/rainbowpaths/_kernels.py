"""Finite-field kernels behind the algebraic representative backend.

Two hot loops live here: evaluating batches of maximal minors of a
Vandermonde-style matrix (one wedge coordinate per row subset) and picking a
greedy row basis by Gaussian elimination, both over the prime field
Z/(2^31 - 1). Both are written in numpy.
"""

from __future__ import annotations

import numpy as np

MODULUS = np.int64(2**31 - 1)  # prime; products of two residues fit in int64


def _pow_mod_vec(base: np.ndarray, exp: int) -> np.ndarray:
    result = np.ones_like(base)
    b = base % MODULUS
    e = exp
    while e:
        if e & 1:
            result = result * b % MODULUS
        b = b * b % MODULUS
        e >>= 1
    return result


def _batch_det_mod(mats: np.ndarray) -> np.ndarray:
    """Determinants mod MODULUS of a (B, p, p) batch, by shared elimination."""
    m = mats % MODULUS
    batch, p, _ = m.shape
    det = np.ones(batch, dtype=np.int64)
    for col in range(p):
        block = m[:, col:, col]
        piv_off = np.argmax(block != 0, axis=1)
        has = np.take_along_axis(block != 0, piv_off[:, None], axis=1)[:, 0]
        det[~has] = 0
        swap = np.nonzero((piv_off > 0) & has)[0]
        if swap.size:
            rows = col + piv_off[swap]
            tmp = m[swap, col, :].copy()
            m[swap, col, :] = m[swap, rows, :]
            m[swap, rows, :] = tmp
            det[swap] = (-det[swap]) % MODULUS
        piv = m[:, col, col].copy()
        det = det * piv % MODULUS
        if col + 1 < p:
            inv = _pow_mod_vec(piv, int(MODULUS) - 2)
            factors = m[:, col + 1 :, col] * inv[:, None] % MODULUS
            m[:, col + 1 :, :] = (
                m[:, col + 1 :, :] - factors[:, :, None] * m[:, col : col + 1, :]
            ) % MODULUS
    return det


def batch_minors(
    vander: np.ndarray, set_cols: np.ndarray, coord_rows: np.ndarray
) -> np.ndarray:
    """Minor matrix: entry (i, c) is det(vander[coord_rows[c]][:, set_cols[i]]) mod MODULUS."""
    n_sets, p = set_cols.shape
    n_coords = coord_rows.shape[0]
    out = np.empty((n_sets, n_coords), dtype=np.int64)
    if p == 0:
        out[:] = 1
        return out
    sub = vander[:, set_cols]  # (rank, n_sets, p)
    for ci in range(n_coords):
        mats = np.ascontiguousarray(np.swapaxes(sub[coord_rows[ci]], 0, 1))
        out[:, ci] = _batch_det_mod(mats)
    return out


def greedy_row_basis(mat: np.ndarray) -> np.ndarray:
    """Keep-mask of a greedy row basis, rows considered in the given order."""
    n_rows, width = mat.shape
    keep = np.zeros(n_rows, dtype=np.uint8)
    cap = min(n_rows, width)
    red = np.empty((cap, width), dtype=np.int64)
    pivcol = np.empty(cap, dtype=np.int64)
    pivinv = np.empty(cap, dtype=np.int64)
    nred = 0
    for ri in range(n_rows):
        cur = mat[ri] % MODULUS
        for bi in range(nred):
            x = cur[pivcol[bi]]
            if x:
                f = x * pivinv[bi] % MODULUS
                cur = (cur - f * red[bi]) % MODULUS
        nz = np.nonzero(cur)[0]
        if nz.size:
            keep[ri] = 1
            lead = int(nz[0])
            red[nred] = cur
            pivcol[nred] = lead
            pivinv[nred] = pow(int(cur[lead]), int(MODULUS) - 2, int(MODULUS))
            nred += 1
            if nred == width:
                break  # the kept rows span every coordinate, so the rest are dependent
    return keep
