"""Independent oracles shared by the test suite.

These deliberately avoid the library code paths they are used to check:
finite differences for gradients, explicit inverses for the Cayley VJP,
cyclic Jacobi iteration for the symmetric-eigenvalue route to singular
values, and random spec generators.
"""

import numpy as np

from gsmat import GSClassSpec, GSMatrix
from gsmat.blockdiag import BlockDiagonal
from gsmat.perm import Permutation, identity_perm


def central_diff(f, a, h=1e-5):
    """Entrywise central finite differences of a scalar function of a matrix."""
    a = np.asarray(a, dtype=np.float64)
    grad = np.zeros_like(a)
    it = np.nditer(a, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        ap, am = a.copy(), a.copy()
        ap[idx] += h
        am[idx] -= h
        grad[idx] = (f(ap) - f(am)) / (2 * h)
    return grad


def cayley_vjp_inverse(a, g):
    """grad_A of <G, cayley(A - A^T)> as 2 S^-T G S^-T - (its transpose), S = I - K, one inverse per block.

    a and g are matching (..., b, b) stacks; the library reads S^-1 off Q instead.
    """
    a, g = np.asarray(a, dtype=np.float64), np.asarray(g, dtype=np.float64)
    out = np.empty_like(a)
    for idx in np.ndindex(a.shape[:-2]):
        k = a[idx] - a[idx].T
        s_inv_t = np.linalg.inv(np.eye(k.shape[0]) - k).T
        grad_k = 2.0 * s_inv_t @ g[idx] @ s_inv_t
        out[idx] = grad_k - grad_k.T
    return out


def jacobi_eigvals(s, sweeps=50, tol=1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.linalg.norm(a)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, sn = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = sn
                rot[q, p] = -sn
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def random_perm(n, rng):
    return Permutation(rng.permutation(n))


def random_square_spec(rng, sizes=(8, 16, 24), outer="random"):
    """Square spec with square blocks, suitable for orthogonal parametrization."""
    n = int(rng.choice(sizes))
    divs = [d for d in range(1, n + 1) if n % d == 0]
    b_l = int(rng.choice(divs))
    b_r = int(rng.choice(divs))
    k_l, k_r = n // b_l, n // b_r
    if outer == "random":
        p_l, p_r = random_perm(n, rng), random_perm(n, rng)
    else:
        p_l, p_r = identity_perm(n), identity_perm(n)
    return GSClassSpec(k_l, b_l, b_l, k_r, b_r, b_r, p_l, random_perm(n, rng), p_r)


def random_spec(rng, s_choices=(8, 12, 16, 24), outer="random"):
    """General rectangular spec with a random interior permutation."""
    s = int(rng.choice(s_choices))
    divs = [d for d in range(1, s + 1) if s % d == 0]
    k_l = int(rng.choice(divs))
    k_r = int(rng.choice(divs))
    b_l1 = int(rng.integers(1, 6))
    b_r2 = int(rng.integers(1, 6))
    m, n = b_l1 * k_l, b_r2 * k_r
    p_l = random_perm(m, rng) if outer == "random" else identity_perm(m)
    p_r = random_perm(n, rng) if outer == "random" else identity_perm(n)
    return GSClassSpec(k_l, b_l1, s // k_l, k_r, s // k_r, b_r2, p_l, random_perm(s, rng), p_r)


def random_member(spec, rng):
    l = BlockDiagonal(tuple(rng.standard_normal((spec.b_L1, spec.b_L2)) for _ in range(spec.k_L)))
    r = BlockDiagonal(tuple(rng.standard_normal((spec.b_R1, spec.b_R2)) for _ in range(spec.k_R)))
    return GSMatrix(spec, l, r)
