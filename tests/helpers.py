"""Shared brute-force oracles for the test suite.

Everything here recomputes physics through dense linear algebra (explicit
ladder-operator matrices and matrix exponentials), deliberately avoiding the
sparse engine's code paths so the two can check each other.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm, schur

from feqc import fock
from feqc.circuit import BeamSplitter, Circuit, Measure, PolarizingBeamSplitter, PrepSpin
from feqc.fock import FockState


def pos_of(mode, num_arms: int) -> int:
    arm, spin = mode
    assert 1 <= arm <= num_arms
    return 2 * (arm - 1) + int(spin)


def dense_creation(pos: int, num_modes: int) -> np.ndarray:
    dim = 1 << num_modes
    mat = np.zeros((dim, dim), dtype=complex)
    for key in range(dim):
        if key >> pos & 1:
            continue
        below = bin(key & ((1 << pos) - 1)).count("1")
        mat[key | (1 << pos), key] = -1.0 if below % 2 else 1.0
    return mat


def dense_vector(state: FockState) -> np.ndarray:
    vec = np.zeros(1 << state.num_modes, dtype=complex)
    for key, amp in state.amplitudes.items():
        vec[key] = amp
    return vec


def from_dense(vec: np.ndarray, num_arms: int, tol: float = 1e-12) -> FockState:
    amps = {k: complex(a) for k, a in enumerate(vec) if abs(a) > tol}
    return FockState(num_arms, amps)


def dense_bilinear_unitary(num_arms: int, modes, u: np.ndarray) -> np.ndarray:
    """Fock-space matrix of a one-particle unitary via expm of the quadratic
    generator: U = exp(i sum_jk h[j,k] adag_j a_k) with h = -i log u."""
    u = np.asarray(u, dtype=complex)
    t, q = schur(u, output="complex")
    theta = np.angle(np.diag(t))
    h_small = q @ np.diag(theta) @ q.conj().T
    num_modes = 2 * num_arms
    positions = [pos_of(mode, num_arms) for mode in modes]
    a_dag = {p: dense_creation(p, num_modes) for p in positions}
    h_fock = np.zeros((1 << num_modes, 1 << num_modes), dtype=complex)
    for j, pj in enumerate(positions):
        for k, pk in enumerate(positions):
            if h_small[j, k] != 0:
                h_fock += h_small[j, k] * (a_dag[pj] @ a_dag[pk].conj().T)
    return expm(1j * h_fock)


def reference_two_mode(amplitudes: dict[int, complex], p: int, q: int, u) -> dict[int, complex]:
    """The two-mode kernel loop as it was before it checked what it wrote:
    every key computed with the kernel's arithmetic and order, nothing
    checked or pruned."""
    (u_pp, u_pq), (u_qp, u_qq) = u if type(u) is tuple else fock._kernel_entries(u)
    bit_p = 1 << p
    flip = bit_p | 1 << q
    between = (1 << max(p, q)) - (2 << min(p, q))
    a, b, c, d = (u_qq, u_pp, u_pq, u_qp) if p < q else (u_pp, u_qq, u_qp, u_pq)
    out: dict[int, complex] = {}
    for key, amp in amplitudes.items():
        occupied = key & flip
        if not occupied:
            out[key] = 0j + amp
        elif occupied == flip:
            out[key] = 0j + ((amp * a) * b - (amp * c) * d)
        else:
            moved = key ^ flip
            odd = (key & between).bit_count() & 1
            if occupied == bit_p:
                if u_pp:
                    out[key] = out.get(key, 0j) + amp * u_pp
                if u_qp:
                    val = amp * u_qp
                    out[moved] = out.get(moved, 0j) + (-val if odd else val)
            else:
                if u_pq:
                    val = amp * u_pq
                    out[moved] = out.get(moved, 0j) + (-val if odd else val)
                if u_qq:
                    out[key] = out.get(key, 0j) + amp * u_qq
    return out


def always_pruned_unitary(state: FockState, modes, matrix) -> FockState:
    """apply_single_particle_unitary in two passes, the reference for its
    shortcuts: every step computed by ``reference_two_mode``, then the
    output rebuilt by the prune comprehension, whatever it holds."""
    positions = [fock.mode_position(mode, state.num_arms) for mode in modes]
    u = fock.step_unitary(matrix, len(modes))
    rotations, phases = ([(0, 1, u)], []) if len(modes) == 2 else fock._givens(u)
    amplitudes = state.amplitudes
    for p, phase in zip(positions, phases):
        amplitudes = {k: a * phase if k >> p & 1 else a for k, a in amplitudes.items()}
    for i, j, g in rotations:
        amplitudes = reference_two_mode(amplitudes, positions[i], positions[j], g)
    return FockState(state.num_arms, {k: a for k, a in amplitudes.items()
                                      if abs(a) >= fock.PRUNE_THRESHOLD})


def amplitude_bits(state: FockState) -> list[tuple[int, str, str]]:
    """A state's keys in order with the exact bits of each amplitude (signed zeros included)."""
    return [(k, a.real.hex(), a.imag.hex()) for k, a in state.amplitudes.items()]


def dense_two_point(state: FockState) -> np.ndarray:
    """Correlation matrix <adag_mu a_nu> computed with dense operators."""
    n = state.num_modes
    vec = dense_vector(state)
    a_dag = [dense_creation(p, n) for p in range(n)]
    m = np.zeros((n, n), dtype=complex)
    for mu in range(n):
        for nu in range(n):
            m[mu, nu] = vec.conj() @ a_dag[mu] @ a_dag[nu].conj().T @ vec
    return m


def dense_measure(vec: np.ndarray, predicate) -> list[tuple[int, float, np.ndarray]]:
    """Partition a dense vector by an outcome function of the basis key."""
    groups: dict[int, np.ndarray] = {}
    for key, amp in enumerate(vec):
        if abs(amp) < 1e-14:
            continue
        out = predicate(key)
        groups.setdefault(out, np.zeros_like(vec))[key] = amp
    branches = []
    for out in sorted(groups):
        p = float(np.vdot(groups[out], groups[out]).real)
        branches.append((out, p, groups[out] / np.sqrt(p)))
    return branches


def mode_branches(state: FockState, mode) -> list[tuple[int, float, FockState]]:
    """A projective readout of one (arm, spin) mode's occupation: (outcome,
    probability, post-state) for each outcome above probability 1e-12, in
    outcome order, through the dense vector."""
    pos = pos_of(mode, state.num_arms)
    return [(out, p, from_dense(vec, state.num_arms))
            for out, p, vec in dense_measure(dense_vector(state), lambda key: key >> pos & 1)
            if p > 1e-12]


def charge1_probability(state: FockState, arm: int) -> float:
    """Probability that the arm holds exactly one electron."""
    up, down = (pos_of((arm, spin), state.num_arms) for spin in (0, 1))
    return float(sum(abs(a) ** 2 for k, a in state.amplitudes.items()
                     if (k >> up & 1) + (k >> down & 1) == 1))


def mode_occupation(M, mode) -> float:
    """<n> of one (arm, spin) mode of a CorrelationMatrix: its diagonal
    entry, clipped to [0, 1] as corr clips it."""
    pos = pos_of(mode, M.num_arms)
    return float(min(max(M.matrix[pos, pos].real, 0.0), 1.0))


def principal_minor(M, modes) -> float:
    """<prod n> over distinct modes of a CorrelationMatrix: by Wick's theorem,
    the determinant of its submatrix on those modes."""
    positions = sorted({pos_of(mode, M.num_arms) for mode in modes})
    return float(np.linalg.det(M.matrix[np.ix_(positions, positions)]).real)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, num_arms: int, particles: int | None = None) -> FockState:
    """Random normalized sparse state; optionally restricted to a fixed
    particle number (bilinear elements preserve it per key)."""
    num_modes = 2 * num_arms
    keys = [
        k for k in range(1 << num_modes)
        if particles is None or bin(k).count("1") == particles
    ]
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return FockState(num_arms, {k: complex(a) for k, a in zip(keys, amps) if abs(a) > 1e-12})


def random_spinor(rng: np.random.Generator) -> tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def haar_two_qubit(rng: np.random.Generator) -> np.ndarray:
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return c / np.linalg.norm(c)


def merge_branches(entries: list[dict]) -> list[dict]:
    """One entry per outcome assignment, probabilities summed in leaf order,
    in order of first appearance (corr splits a charge readout into
    spin-resolved leaves): the reference for the report's merged branches."""
    merged: dict[tuple, dict] = {}
    for entry in entries:
        key = tuple(entry["outcomes"].values())
        first = merged.get(key)
        if first is None:
            merged[key] = dict(entry)
        else:
            first["probability"] += entry["probability"]
    return list(merged.values())


def merged_probabilities(records) -> dict[tuple, float]:
    """Branch probabilities summed per outcome assignment; corr splits each
    charge readout into spin-resolved leaves with equal outcomes."""
    probs: dict[tuple, float] = {}
    for rec in records:
        key = tuple(rec.outcomes.items())
        probs[key] = probs.get(key, 0.0) + rec.probability
    return probs


def random_correlation_matrix(rng: np.random.Generator, num_arms: int) -> np.ndarray:
    """Two-point functions U diag(n) U^dag of a random pure Gaussian state:
    a Haar unitary over all modes and random 0/1 occupations, symmetrized so
    the matrix is exactly Hermitian."""
    u = random_unitary(rng, 2 * num_arms)
    m = (u * rng.integers(0, 2, size=2 * num_arms)) @ u.conj().T
    return (m + m.conj().T) / 2


def dense_evolve(m: np.ndarray, positions, u: np.ndarray) -> np.ndarray:
    """conj(V) M V^T for the embedding V of u on the listed mode positions."""
    v = np.eye(len(m), dtype=complex)
    v[np.ix_(positions, positions)] = u
    return v.conj() @ m @ v.T


def dense_project(m: np.ndarray, pos: int, outcome: int) -> tuple[float, np.ndarray]:
    """Outcome probability and conditioned matrix by the rank-one formulas:
      outcome 1: M' = M - M[:,p] M[p,:] / M[p,p] + e_p e_p^T
      outcome 0: M' = M - e_p e_p^T + w w^dag / (1 - M[p,p]),  w = e_p - M[:,p]"""
    e = np.zeros(len(m), dtype=complex)
    e[pos] = 1.0
    occ = m[pos, pos].real
    if outcome == 1:
        return occ, m - np.outer(m[:, pos], m[pos, :]) / occ + np.outer(e, e)
    w = e - m[:, pos]
    return 1.0 - occ, m - np.outer(e, e) + np.outer(w, w.conj()) / (1.0 - occ)


def product_monomials(arms, num_arms: int) -> list[tuple[float, tuple[int, ...]]]:
    """prod_i (n_up + n_down - 2 n_up n_down) over the arms, one
    (coefficient, mode positions) term per itertools.product combination."""
    per_arm = []
    for arm in sorted(set(arms)):
        up = 2 * (arm - 1)
        per_arm.append(((1.0, (up,)), (1.0, (up + 1,)), (-2.0, (up, up + 1))))
    monomials = []
    for combo in itertools.product(*per_arm):
        coef = 1.0
        positions: tuple[int, ...] = ()
        for c, pos in combo:
            coef *= c
            positions += pos
        monomials.append((coef, positions))
    return monomials


def dense_single_occupancy(m: np.ndarray, arms) -> float:
    """The joint charge-1 probability as one determinant per monomial."""
    total = 0.0
    for coef, positions in product_monomials(arms, len(m) // 2):
        total += coef * float(np.linalg.det(m[np.ix_(positions, positions)]).real)
    return total


def deep_terminal_circuit(seed=11, num_arms=12, readouts=8) -> Circuit:
    """A random circuit of corr-scale's deep shape: 8 electrons, 12 two-arm
    elements, then charge readouts of 8 distinct arms."""
    rng = np.random.default_rng(seed)
    arms = [int(a) for a in rng.permutation(np.arange(1, num_arms + 1))]
    instructions = []
    for arm in arms[:readouts]:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        instructions.append(PrepSpin(arm, complex(v[0]), complex(v[1])))
    for _ in range(12):
        i, j = (int(a) for a in rng.choice(np.arange(1, num_arms + 1), size=2, replace=False))
        instructions.append((BeamSplitter, PolarizingBeamSplitter)[int(rng.integers(2))](i, j))
    read = rng.choice(np.arange(1, num_arms + 1), size=readouts, replace=False)
    instructions += [Measure(f"q{a}", "charge", int(a)) for a in read]
    return Circuit(num_arms, instructions)
