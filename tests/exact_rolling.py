"""Test helper: the exact rolling of one family of controls on every model.

Take Z in h and U in p with p-coordinates c0, and the control
u(t) = Ad_{exp(tZ)} U, whose coordinates are c(t) = expm(t ad_Z|p) c0.
[h, p] is in p on every reductive model, so the horizontal lift is
q(t) = exp(t(Z+U)) exp(-tZ) and alpha(t) = rho(exp(t(Z+U))) obar.  The
rolling correction is S(t) = rho(exp(tZ)) expm(tB), with
B = Omega(U) - d_e_rho(Z) and Omega(U) = sum_i c0_i ``omega_basis[i]``, by
the Ad_H-equivariance of ``omega_basis`` (S = I on a symmetric space, where
Omega = 0).  R is the J-inverse of rho(q) S = rho(exp(t(Z+U))) expm(tB), so
R alpha' = expm(-tB) F0 c0, and the development
alpha_hat = obar + int_0^t expm(-sB) ds F0 c0 is the top-right block of one
exponential of [[-tB, t F0 c0], [0, 0]] (Van Loan, "Computing integrals
involving the matrix exponential", IEEE TAC 23, 1978).

Nothing here integrates, interpolates or differentiates: every value is a
matrix exponential, by ``linalg.expm`` or, for the oracle's own rounding
floor, by another route such as ``scipy.linalg.expm``.
"""

import numpy as np

from semiroll.linalg import expm


def oracle_case(model, seed=3):
    """(Z, c0): the h-coefficients of Z and the p-coefficients c0, each 0.8 N(0, 1)."""
    rng = np.random.default_rng(seed)
    z = 0.8 * rng.standard_normal(len(model.h_indices))
    c0 = 0.8 * rng.standard_normal(model.p_dim)
    return np.tensordot(z, model.basis[list(model.h_indices)], axes=(0, 0)), c0


def ad_on_p(model, Z):
    """The (k, k) matrix of ad_Z on p in p-coordinates: column j is [Z, p_j]."""
    p_basis = model.basis[list(model.p_indices)]
    coeffs, _ = model.algebra_coords(Z @ p_basis - p_basis @ Z)
    return coeffs[:, list(model.p_indices)].T


def exact_rolling(model, Z, c0, ts, exp=expm):
    """The control function c(t) and R, s, alpha, alpha_hat at the times ``ts``.

    ``exp`` is the matrix exponential of every step: ``linalg.expm`` or another
    route, whose gap to it is the oracle's floor.
    """
    ad = ad_on_p(model, Z)
    U = model.p_element(c0)
    F0c = model.frame0 @ c0
    B = np.tensordot(c0, model.omega_basis, axes=(0, 0)) - np.asarray(model.d_e_rho(Z))
    signs = model.form.signs
    n = model.ambient_dim
    R, alpha, alpha_hat = [], [], []
    for t in ts:
        outer = np.asarray(model.rho(exp(t * (Z + U))))
        moving = outer @ exp(t * B)
        R.append(signs[:, None] * moving.T * signs)
        alpha.append(outer @ model.obar)
        block = np.zeros((n + 1, n + 1))
        block[:n, :n] = -t * B
        block[:n, n] = t * F0c
        alpha_hat.append(model.obar + exp(block)[:n, n])
    R, alpha, alpha_hat = np.array(R), np.array(alpha), np.array(alpha_hat)
    s = alpha_hat - np.einsum("kij,kj->ki", R, alpha)

    def control(t):
        return exp(t * ad) @ c0

    return control, R, s, alpha, alpha_hat
