"""Brute-force verification oracles.

Small systems are cheap to solve exactly, so the lambda bounds and arithmetic
schedules backing the cost models are checked against direct computation:
dense Fock-space diagonalization for the encoded-spectrum bounds, and a
bit-level carry-save simulation for the contiguous-register arithmetic.
"""

from __future__ import annotations

import numpy as np

from .tensors import IntegralData, compute_T

MAX_SPIN_ORBITALS = 8
LAMBDA_BOUND_ATOL = 1e-9


def _popcounts(dim: int) -> np.ndarray:
    return np.array([bin(v).count("1") for v in range(dim)], dtype=np.int64)


def _transfer_matrix(jp: int, jq: int, dim: int, pops: np.ndarray) -> np.ndarray:
    """Dense matrix of a^dag_jp a_jq with fermionic signs."""
    x = np.arange(dim)
    out = np.zeros((dim, dim))
    if jp == jq:
        occ = (x >> jq) & 1
        out[x, x] = occ
        return out
    ok = (((x >> jq) & 1) == 1) & (((x >> jp) & 1) == 0)
    xs = x[ok]
    y = xs - (1 << jq)
    z = y + (1 << jp)
    sign_q = 1 - 2 * (pops[xs & ((1 << jq) - 1)] & 1)
    sign_p = 1 - 2 * (pops[y & ((1 << jp) - 1)] & 1)
    out[z, xs] = (sign_q * sign_p).astype(float)
    return out


def build_exact_hamiltonian(
    Tprime: np.ndarray, twobody: np.ndarray, n_spin: int
) -> np.ndarray:
    """Assemble F1(Tprime) + F2(twobody) on the full 2^n_spin Fock space.

    F1(A) = sum_sigma sum_pq A_pq a^dag_p,sigma a_q,sigma (no 1/2) and
    F2(W) = (1/2) sum_alpha,beta sum_pqrs W_pqrs a^dag_p,alpha a_q,alpha
    a^dag_r,beta a_s,beta in chemist ordering.  The caller supplies whatever
    effective one-body matrix its encoding realizes; nothing is halved or
    corrected here.

    Basis state k occupies spin-orbital j iff bit j of k is set, with
    spin-orbital j = sigma * n + p for spin sigma and spatial orbital p;
    each ladder operator carries the sign of the occupied spin-orbitals
    below it.  The dense matrix returned is real symmetric and
    block-diagonal in particle number.
    """
    n_spin = int(n_spin)
    if n_spin > MAX_SPIN_ORBITALS:
        raise ValueError(
            f"refusing {n_spin} spin-orbitals; dense oracle capped at "
            f"{MAX_SPIN_ORBITALS}"
        )
    Tprime = np.asarray(Tprime, dtype=float)
    twobody = np.asarray(twobody, dtype=float)
    n = Tprime.shape[0]
    if n_spin != 2 * n:
        raise ValueError(f"n_spin={n_spin} inconsistent with {n} spatial orbitals")
    dim = 1 << n_spin
    pops = _popcounts(dim)

    # Spin-summed one-body transfer operators P_pq = sum_sigma a^dag a.
    P = np.zeros((n * n, dim, dim))
    for p in range(n):
        for q in range(n):
            P[p * n + q] = _transfer_matrix(p, q, dim, pops) + _transfer_matrix(
                n + p, n + q, dim, pops
            )

    H = np.tensordot(Tprime.reshape(n * n), P, axes=([0], [0]))
    C = np.tensordot(twobody.reshape(n * n, n * n), P, axes=([1], [0]))
    for a in range(n * n):
        H += 0.5 * (P[a] @ C[a])
    # The algebra guarantees symmetry; averaging removes addition-order noise.
    H = (H + H.T) / 2.0
    return H


def lambda_bounds_spectrum(rep, data: IntegralData) -> dict:
    """Check that the encoded spectrum fits inside the claimed lambda.

    Reconstructs the effective Hamiltonian the representation's block
    encoding realizes, including the identity shift the encoding discards,
    diagonalizes it exactly, and compares the extreme shifted eigenvalue
    against the representation's lambda.
    """
    n = data.n_spatial
    if 2 * n > MAX_SPIN_ORBITALS:
        raise ValueError(f"spectrum oracle needs 2*n_spatial <= {MAX_SPIN_ORBITALS}")
    Tprime = compute_T(data).Tprime
    terms = rep.encoded_terms(Tprime)
    lam = rep.lambda_report(Tprime)
    H = build_exact_hamiltonian(terms.one_body, terms.two_body, 2 * n)
    eigs = np.linalg.eigvalsh(H)
    max_abs_shifted = float(np.max(np.abs(eigs - terms.shift)))
    return {
        "method": lam.method,
        "lambda": lam.total,
        "lambda_one": lam.lambda_one,
        "lambda_two": lam.lambda_two,
        "shift": terms.shift,
        "max_abs_shifted": max_abs_shifted,
        "margin": lam.total + LAMBDA_BOUND_ATOL - max_abs_shifted,
        "ok": bool(max_abs_shifted <= lam.total + LAMBDA_BOUND_ATOL),
    }


def _schedule_addends(n: int, nu_bits: list, mu_bits: list):
    """Weight-indexed addend bits for nu(nu+1)/2 + mu, plus product count.

    Writing nu = sum_i nu_i 2^i, the triangular part expands with positive
    coefficients only: nu(nu+1)/2 = nu_0 + sum_{i>=1} nu_i (2^{i-1} + 2^{2i-1})
    + sum_{i>j} nu_i nu_j 2^{i+j}.  Each partial product costs one Toffoli.
    """
    levels: dict[int, list] = {}

    def put(w, bit):
        levels.setdefault(w, []).append(bit)

    for w in range(n):
        put(w, mu_bits[w])
    put(0, nu_bits[0])
    for i in range(1, n):
        put(i - 1, nu_bits[i])
        put(2 * i - 1, nu_bits[i])
    products = 0
    for i in range(1, n):
        for j in range(i):
            put(i + j, nu_bits[i] & nu_bits[j])
            products += 1
    return levels, products


def simulate_contiguous_schedule(n_bits: int):
    """Bit-level carry-save simulation of the contiguous-index computation.

    Simulates the addition network that maps an n-bit pair register (nu, mu)
    to the contiguous index nu(nu+1)/2 + mu, counting one Toffoli per partial
    product and one per 3-bit (or final 2-bit) addition.  Every (nu, mu) pair
    is simulated simultaneously as vectorized bit planes and the result is
    compared bit-exactly.

    Returns:
        (toffoli_count, correct): the total Toffoli count and whether the
        computed index matched nu(nu+1)/2 + mu for every input pair.
    """
    n = int(n_bits)
    if n < 1:
        raise ValueError("need at least one bit")
    size = 1 << n
    nu = np.repeat(np.arange(size, dtype=np.int64), size)
    mu = np.tile(np.arange(size, dtype=np.int64), size)
    nu_bits = [((nu >> i) & 1).astype(bool) for i in range(n)]
    mu_bits = [((mu >> i) & 1).astype(bool) for i in range(n)]

    levels, toffolis = _schedule_addends(n, nu_bits, mu_bits)
    result = np.zeros(nu.shape, dtype=np.int64)
    w = 0
    while w in levels:
        bits = levels[w]
        while len(bits) >= 2:
            if len(bits) >= 3:
                a, b, c = bits.pop(), bits.pop(), bits.pop()
                s = a ^ b ^ c
                carry = (a & b) | (a & c) | (b & c)
            else:
                a, b = bits.pop(), bits.pop()
                s = a ^ b
                carry = a & b
            bits.append(s)
            levels.setdefault(w + 1, []).append(carry)
            toffolis += 1
        if bits:
            result += bits[0].astype(np.int64) << w
        w += 1
    correct = bool(np.array_equal(result, nu * (nu + 1) // 2 + mu))
    return toffolis, correct
