"""Sparse Fock-space engine for spinful fermions on spatial arms.

A system of N arms has 2N modes, one per (arm, spin) pair.  Modes are
totally ordered as (1,up) < (1,down) < (2,up) < ... and a basis key is a
bitmask over that order (bit set = mode occupied).  The basis state for a
key is the product of creation operators in ascending mode order applied
to the vacuum, so every ladder operator picks up the usual (-1)^(number of
occupied modes preceding it) sign.

All operations are pure: they take a state and return a new one.  Unitary
operations preserve the norm and the particle number of every key; the
preparation helpers normalize their output and right-multiply their creation
operators, so a sequence of preparations builds the canonical ascending
product with overall phase +1.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import FeqcError, PreconditionError

if TYPE_CHECKING:
    import numpy as np

PRUNE_THRESHOLD = 1e-12
UNITARY_ATOL = 1e-10
# Keys a state may hold after a preparation or a kernel step: every key of 9
# arms, about 360 times the largest benchmark state.
MAX_KEYS = 1 << 18
# Arms a circuit may declare, on either backend: a fock key is then an integer
# of up to 2048 bits, and a corr matrix 2048 x 2048 complex, 64 MB.
MAX_ARMS = 1024


class Spin(IntEnum):
    UP = 0
    DOWN = 1


class ModeIndex(NamedTuple):
    """One fermionic mode: a spatial arm (1-based) and a spin."""

    arm: int
    spin: Spin


@dataclass(frozen=True)
class FockState:
    """Sparse complex amplitudes over occupation keys of ``2 * num_arms`` modes."""

    num_arms: int
    amplitudes: dict[int, complex]

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    @property
    def num_modes(self) -> int:
        return 2 * self.num_arms


def mode_position(mode: ModeIndex | tuple[int, Spin], num_arms: int) -> int:
    """Index of a mode in the global order; validates the arm range."""
    arm, spin = mode
    if not 1 <= arm <= num_arms:
        raise ValueError(f"arm {arm} out of range 1..{num_arms}")
    if spin not in (Spin.UP, Spin.DOWN):
        raise ValueError(f"invalid spin {spin!r}")
    return 2 * (arm - 1) + int(spin)


def format_key(key: int, num_arms: int) -> str:
    """Render a key as a bitstring, leftmost character = mode (1, up)."""
    return "".join("1" if key >> p & 1 else "0" for p in range(2 * num_arms))


def arm_charge(key: int, arm: int) -> int:
    """Occupation 0, 1 or 2 of an arm in a basis key."""
    base = 2 * (arm - 1)
    return (key >> base & 1) + (key >> (base + 1) & 1)


def _jw_sign(key: int, pos: int) -> int:
    """Sign from commuting a ladder operator past the occupied modes below pos."""
    return -1 if (key & ((1 << pos) - 1)).bit_count() & 1 else 1


def pruned(amplitudes: dict[int, complex]) -> dict[int, complex]:
    """The amplitudes at or above PRUNE_THRESHOLD.  The caller builds
    ``amplitudes`` fresh: it is returned as it is when none falls below."""
    if not amplitudes or min(map(abs, amplitudes.values())) >= PRUNE_THRESHOLD:
        return amplitudes
    return {k: a for k, a in amplitudes.items() if abs(a) >= PRUNE_THRESHOLD}


def _admit_keys(count: int) -> None:
    """Refuse a step's output of more than MAX_KEYS keys."""
    if count > MAX_KEYS:
        raise FeqcError(f"fock backend: a state of {count} keys exceeds the limit "
                        f"MAX_KEYS = {MAX_KEYS}")


def normalize(state: FockState) -> FockState:
    n = state.norm()
    if n < PRUNE_THRESHOLD:
        raise ValueError("cannot normalize a zero state")
    return FockState(state.num_arms, pruned({k: a / n for k, a in state.amplitudes.items()}))


def vacuum(num_arms: int) -> FockState:
    """Empty state on ``num_arms`` arms."""
    if num_arms < 1:
        raise ValueError("num_arms must be >= 1")
    if num_arms > MAX_ARMS:
        raise FeqcError(f"fock backend: {num_arms} arms exceed the limit MAX_ARMS = {MAX_ARMS}")
    return FockState(num_arms, {0: 1.0 + 0.0j})


def create(state: FockState, mode: ModeIndex | tuple[int, Spin]) -> FockState:
    """Apply a raw creation operator (not normalized; Pauli-blocked keys drop out)."""
    pos = mode_position(mode, state.num_arms)
    out: dict[int, complex] = {}
    for key, amp in state.amplitudes.items():
        if key >> pos & 1:
            continue
        out[key | (1 << pos)] = amp * _jw_sign(key, pos)
    return FockState(state.num_arms, out)


def _append_mode(amplitudes: dict[int, complex], pos: int) -> dict[int, complex]:
    """Right-multiply by the creation operator of mode ``pos``, empty in every
    key: the sign counts occupied modes above the insertion point, so
    preparing arms one after another yields the canonical ascending product
    with phase +1."""
    out: dict[int, complex] = {}
    for key, amp in amplitudes.items():
        sign = -1 if (key >> (pos + 1)).bit_count() & 1 else 1
        out[key | (1 << pos)] = amp * sign
    return out


def _require_arm_empty(state: FockState, arm: int, op: str) -> int:
    """Check the arm's range and that no key occupies it; return the position
    of its spin-up mode."""
    up = mode_position((arm, Spin.UP), state.num_arms)
    for key in state.amplitudes:
        if key >> up & 3:
            raise PreconditionError(f"{op}: arm {arm} is already occupied")
    return up


def require_single_occupancy(state: FockState, arm: int, op: str) -> None:
    """Every key must hold exactly one electron in the arm."""
    mode_position((arm, Spin.UP), state.num_arms)
    for key in state.amplitudes:
        if arm_charge(key, arm) != 1:
            raise PreconditionError(f"{op}: arm {arm} must carry exactly one electron")


def check_spinor(alpha: complex, beta: complex) -> None:
    """Reject a spinor whose components are both zero, or whose squared norm
    is NaN or overflows a float.  A squared norm that underflows to 0 is not
    a zero spinor: the backends scale a spinor before they normalize it."""
    alpha, beta = complex(alpha), complex(beta)
    if alpha == 0 and beta == 0:
        raise ValueError("spinor must be nonzero")
    norm2 = sum(x * x for z in (alpha, beta) for x in (z.real, z.imag))
    if not math.isfinite(norm2):
        raise ValueError("spinor must be finite, with a squared norm below 1.8e308")


def unit_scaled(*values: complex) -> list[complex]:
    """The complex ``values`` times the power of two that brings the largest
    magnitude into [0.5, 1).  The scaling is exact: normalized afterwards,
    values whose squared norm is a normal float give the same bits as
    before, and values in the normal range whose squared norm is subnormal
    or below the prune threshold lose none."""
    _, exp = math.frexp(max(map(abs, values)))
    return [complex(math.ldexp(z.real, -exp), math.ldexp(z.imag, -exp))
            for z in map(complex, values)]


# The spin patterns of one and of two electrons, in product order, up before down.
_SPIN_PATTERNS = {n: tuple(itertools.product(Spin, repeat=n)) for n in (1, 2)}


def _prepare(state: FockState, arms: tuple[int, ...], coefs: list[complex], op: str) -> FockState:
    """Add one electron to each of the empty ``arms`` with joint spin
    amplitudes ``coefs``, one per spin pattern; output normalized.

    Each nonzero amplitude puts the electrons into every key of the empty
    arms, a key of its own: the output's size is known, and refused above
    MAX_KEYS, before it is built.
    """
    ups = [_require_arm_empty(state, arm, op) for arm in arms]
    parts = [(spins, coef) for spins, coef in zip(_SPIN_PATTERNS[len(arms)], coefs) if coef]
    _admit_keys(len(parts) * len(state.amplitudes))
    combined: dict[int, complex] = {}
    for spins, coef in parts:
        amplitudes = state.amplitudes
        for up, spin in zip(ups, spins):
            amplitudes = _append_mode(amplitudes, up + spin)
        for key, amp in amplitudes.items():
            combined[key] = 0j + coef * amp  # each key is new; `0j +` turns -0.0 into 0.0
    return normalize(FockState(state.num_arms, combined))


def prepare_spin(state: FockState, arm: int, alpha: complex, beta: complex) -> FockState:
    """Add one electron in ``arm`` with (normalized) spinor alpha|up> + beta|down>."""
    check_spinor(alpha, beta)
    return _prepare(state, (arm,), unit_scaled(alpha, beta), "prepare_spin")


def prepare_two_spin(state: FockState, arm_a: int, arm_b: int, coeffs) -> FockState:
    """Add two electrons across two empty arms with joint spin amplitudes
    coeffs[spin_a][spin_b] (2x2 nested sequence or array, finite, any nonzero
    norm); output normalized."""
    if arm_a == arm_b:
        raise ValueError("two-spin preparation needs two distinct arms")
    try:
        (c_uu, c_ud), (c_du, c_dd) = coeffs
        c = [complex(z) for z in (c_uu, c_ud, c_du, c_dd)]
    except (TypeError, ValueError):
        raise ValueError("coeffs must be a 2x2 array over (spin_a, spin_b)") from None
    if not any(c):
        raise ValueError("coeffs must be nonzero")
    if not all(map(cmath.isfinite, c)):
        raise ValueError("coeffs must be finite")
    return _prepare(state, (arm_a, arm_b), unit_scaled(*c), "prepare_two_spin")


Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

# Joint spin amplitudes of the four maximally entangled pair states:
# index 0 = (up,down)-(down,up) singlet; 1 = (up,down)+(down,up);
# 2 = (up,up)+(down,down); 3 = (up,up)-(down,down).
BELL_COEFFS: dict[int, Matrix2] = {
    0: ((0j, 1 + 0j), (-1 + 0j, 0j)),
    1: ((0j, 1 + 0j), (1 + 0j, 0j)),
    2: ((1 + 0j, 0j), (0j, 1 + 0j)),
    3: ((1 + 0j, 0j), (0j, -1 + 0j)),
}


def prepare_bell(state: FockState, k: int, arm_a: int, arm_b: int) -> FockState:
    """Add the k-th two-electron entangled pair across (arm_a, arm_b)."""
    if k not in BELL_COEFFS:
        raise ValueError(f"bell index {k} not in 0..3")
    return prepare_two_spin(state, arm_a, arm_b, BELL_COEFFS[k])


def check_unitary(matrix, dim: int) -> np.ndarray:
    """The matrix as a complex array, refused unless it is a dim x dim unitary."""
    import numpy as np

    u = np.asarray(matrix, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {u.shape}")
    # np.allclose's rule (rtol 1e-5 against the identity), without its
    # overhead; NaN compares False, so it counts as non-unitary.
    eye = np.eye(dim)
    if not (abs(u @ u.conj().T - eye) <= UNITARY_ATOL + 1e-5 * eye).all():
        raise ValueError("matrix is not unitary")
    return u


def step_unitary(matrix, dim: int):
    """The matrix of a dim-mode step as a checked unitary.  An element-table
    matrix passes as it is, a tuple checked by the tests; any other matrix,
    an equal copy of a table matrix too, is checked and returned as an array."""
    return matrix if dim == 2 and id(matrix) in _TABLE_IDS else check_unitary(matrix, dim)


def _kernel_entries(u: np.ndarray) -> Matrix2:
    """The entries ((u_pp, u_pq), (u_qp, u_qq)) of a 2x2 step matrix as Python
    complex numbers, those at or below PRUNE_THRESHOLD set to zero."""
    import numpy as np

    (u_pp, u_pq), (u_qp, u_qq) = np.where(abs(u) > PRUNE_THRESHOLD, u, 0).tolist()
    return (u_pp, u_pq), (u_qp, u_qq)


def _two_mode(
    amplitudes: dict[int, complex], p: int, q: int, u: Matrix2 | np.ndarray, prune: bool = True
) -> dict[int, complex]:
    """Closed-form action of a 2x2 unitary on modes p (row/column 0) and q,
    as described in apply_single_particle_unitary: an element-table tuple,
    read as it is, or an array.  Entries at or below PRUNE_THRESHOLD
    contribute nothing.  Only the amplitudes it computes are checked: with
    ``prune``, the output goes through ``pruned`` if one of them fell below
    PRUNE_THRESHOLD, and is returned as built otherwise; a key with neither
    mode occupied is copied unchecked."""
    # Report bytes depend on the last bit of every amplitude and on the key
    # order: keep these product orders, the term landing on p first, and the
    # `0j +` that turns -0.0 into 0.0.
    (u_pp, u_pq), (u_qp, u_qq) = u if type(u) is tuple else _kernel_entries(u)  # u_xy: y -> x
    bit_p = 1 << p
    flip = bit_p | 1 << q
    between = (1 << max(p, q)) - (2 << min(p, q))
    # det U as (amp * u_hh) * u_ll - (amp * u_lh) * u_hl, h = the higher mode
    a, b, c, d = (u_qq, u_pp, u_pq, u_qp) if p < q else (u_pp, u_qq, u_qp, u_pq)
    low = False  # whether a computed amplitude fell below the threshold
    out: dict[int, complex] = {}
    for key, amp in amplitudes.items():
        occupied = key & flip
        if not occupied:
            out[key] = 0j + amp
        elif occupied == flip:
            out[key] = val = 0j + ((amp * a) * b - (amp * c) * d)
            if abs(val) < PRUNE_THRESHOLD:
                low = True
        else:
            # A lone electron on p stays (u_pp) and moves to q (u_qp); one on q
            # moves to p (u_pq) and stays (u_qq).  A move takes the sign of the
            # occupied modes in between; zero entries add no term.  A key that
            # takes two terms is checked after each: its final value is the
            # last one.
            moved = key ^ flip
            odd = (key & between).bit_count() & 1
            if occupied == bit_p:
                if u_pp:
                    out[key] = val = out.get(key, 0j) + amp * u_pp
                    if abs(val) < PRUNE_THRESHOLD:
                        low = True
                if u_qp:
                    val = amp * u_qp
                    out[moved] = val = out.get(moved, 0j) + (-val if odd else val)
                    if abs(val) < PRUNE_THRESHOLD:
                        low = True
            else:
                if u_pq:
                    val = amp * u_pq
                    out[moved] = val = out.get(moved, 0j) + (-val if odd else val)
                    if abs(val) < PRUNE_THRESHOLD:
                        low = True
                if u_qq:
                    out[key] = val = out.get(key, 0j) + amp * u_qq
                    if abs(val) < PRUNE_THRESHOLD:
                        low = True
    return pruned(out) if low and prune else out


def _givens(u: np.ndarray) -> tuple[list[tuple[int, int, np.ndarray]], list[complex]]:
    """Factor a unitary as G_1^H ... G_K^H D with two-row rotations G_k.

    Returns the rotations as (row i, row j, 2x2 G_k^H) in the order they act
    on a state, and the diagonal of D, which acts first.
    """
    import numpy as np

    w = u.copy()
    rotations = []
    for col in range(len(w) - 1):
        for row in range(col + 1, len(w)):
            x, y = w[col, col], w[row, col]
            if y == 0:
                continue
            g = np.array([[x.conjugate(), y.conjugate()], [-y, x]]) / np.hypot(abs(x), abs(y))
            w[[col, row]] = g @ w[[col, row]]
            rotations.append((col, row, g.conj().T))
    return rotations[::-1], np.diag(w).tolist()


KernelStep = tuple[int, int, Matrix2]


def kernel_step(modes: Sequence[ModeIndex | tuple[int, Spin]], matrix, num_arms: int) -> KernelStep:
    """A two-mode step resolved for the kernel on ``num_arms`` arms: the
    positions (p, q) of its two modes, their arms' range and distinctness
    checked, and the entries of its matrix, a checked unitary (an
    element-table matrix passes as it is), at or below PRUNE_THRESHOLD set
    to zero."""
    first, second = modes
    p, q = mode_position(first, num_arms), mode_position(second, num_arms)
    if p == q:
        raise ValueError("modes must be distinct")
    u = step_unitary(matrix, 2)
    return p, q, u if type(u) is tuple else _kernel_entries(u)


def apply_kernel_steps(state: FockState, steps: Sequence[KernelStep]) -> FockState:
    """The two-mode steps of ``kernel_step``, applied in order by the
    closed-form kernel (see apply_single_particle_unitary); each step's
    output is refused above MAX_KEYS.  The element step of the branch
    walker and of apply_single_particle_unitary's two-mode case."""
    amplitudes = state.amplitudes
    for p, q, entries in steps:
        amplitudes = _two_mode(amplitudes, p, q, entries)
        _admit_keys(len(amplitudes))
    return FockState(state.num_arms, amplitudes)


def apply_single_particle_unitary(
    state: FockState,
    modes: Sequence[ModeIndex | tuple[int, Spin]],
    matrix,
) -> FockState:
    """Heisenberg action of a one-particle unitary on the listed modes.

    Each creation operator on mode j is replaced by sum_i U[i, j] * (creation
    on mode i).  A two-mode unitary (every element step) acts on each key in
    closed form (``kernel_step`` and ``apply_kernel_steps``): keys with
    neither mode occupied are unchanged, keys with both pick up det U, and a
    lone electron stays or moves to the other mode with the sign
    (-1)^(occupied modes strictly between the two).  Any other mode count is
    factored into two-mode Givens rotations after diagonal phases, each
    applied the same way.  Norm and per-key particle number are preserved.

    Every FockState this module builds holds only amplitudes at or above
    PRUNE_THRESHOLD, and a two-mode step relies on it: the step checks only
    the amplitudes it computes, and prunes the whole output only if one of
    them fell below the threshold.  On such an input it gives the keys, key
    order and bits of the step followed by ``pruned``, and an output that
    holds the invariant.  An input built by hand with a smaller amplitude on
    a key that has neither mode occupied keeps that amplitude, unless a
    computed amplitude of the same step falls below the threshold; then it
    is dropped with it.  Any other mode count prunes only its final product,
    every key of it.
    """
    m = len(modes)
    if m == 2:
        return apply_kernel_steps(state, [kernel_step(modes, matrix, state.num_arms)])
    positions = [mode_position(mode, state.num_arms) for mode in modes]
    if len(set(positions)) != m:
        raise ValueError("modes must be distinct")
    rotations, phases = _givens(step_unitary(matrix, m))
    # m = 0 applies nothing: copy, never share the input's dict
    amplitudes = state.amplitudes if m else dict(state.amplitudes)
    for p, phase in zip(positions, phases):
        amplitudes = {k: a * phase if k >> p & 1 else a for k, a in amplitudes.items()}
    for i, j, g in rotations:
        amplitudes = _two_mode(amplitudes, positions[i], positions[j], g, prune=False)
    amplitudes = pruned(amplitudes)
    _admit_keys(len(amplitudes))
    return FockState(state.num_arms, amplitudes)


# The element table: each 2x2 matrix as Python complex numbers, the entries
# the kernel reads.  A test checks that each is unitary and equals the
# kernel entries of its array.
_R = 1 / math.sqrt(2)

# 50/50 splitter, real symmetric convention; its own inverse.
BEAM_SPLITTER_MATRIX: Matrix2 = ((complex(_R), complex(_R)), (complex(_R), complex(-_R)))

PAULI_X: Matrix2 = ((0j, 1 + 0j), (1 + 0j, 0j))
PAULI_Y: Matrix2 = ((0j, -1j), (1j, 0j))  # -1j is (-0.0, -1.0)
PAULI_Z: Matrix2 = ((1 + 0j, 0j), (0j, -1 + 0j))
HADAMARD: Matrix2 = ((complex(_R), complex(_R)), (complex(_R), complex(-_R)))

ROTATIONS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z, "h": HADAMARD}

_SWAP2 = PAULI_X  # the exchange of two modes

# Every optical element is a short list of two-mode unitaries; this table
# defines the two-arm ones for both backends.  Each applies its 2x2 matrix to
# the mode pair ((arm_i, spin), (arm_j, spin)) for each listed spin, in order.
TWO_ARM_ELEMENTS: dict[str, tuple[tuple[Spin, ...], Matrix2]] = {
    "bs": ((Spin.UP, Spin.DOWN), BEAM_SPLITTER_MATRIX),  # 50/50 on both spins
    "pbs": ((Spin.DOWN,), _SWAP2),  # transmit up, reflect down (phase +1)
    "swap": ((Spin.UP, Spin.DOWN), _SWAP2),  # exchange arm contents (phase +1)
}

# The table's matrices, by identity: step_unitary passes them unchecked.
_TABLE_IDS = frozenset(map(id, (BEAM_SPLITTER_MATRIX, _SWAP2, *ROTATIONS.values())))

Step = tuple[list[tuple[int, Spin]], Matrix2]


def two_arm_steps(keyword: str, arm_i: int, arm_j: int) -> list[Step]:
    """The (mode pair, 2x2 unitary) steps of a 'bs', 'pbs' or 'swap' element."""
    if arm_i == arm_j:
        raise ValueError(f"{keyword} needs two distinct arms")
    spins, matrix = TWO_ARM_ELEMENTS[keyword]
    return [([(arm_i, s), (arm_j, s)], matrix) for s in spins]


def rotation_steps(arm: int, matrix: Matrix2) -> list[Step]:
    """A spin rotation: one 2x2 unitary on the (up, down) modes of an arm."""
    return [([(arm, Spin.UP), (arm, Spin.DOWN)], matrix)]


def inner_product(state_a: FockState, state_b: FockState) -> complex:
    if state_a.num_arms != state_b.num_arms:
        raise ValueError("states live on different numbers of arms")
    small, large = state_a.amplitudes, state_b.amplitudes
    if len(small) > len(large):
        return inner_product(state_b, state_a).conjugate()
    return complex(sum(a.conjugate() * large[k] for k, a in small.items() if k in large))


def fidelity(state_a: FockState, state_b: FockState) -> float:
    """|<a|b>|^2; invariant under global phases of either state."""
    return float(min(abs(inner_product(state_a, state_b)) ** 2, 1.0))


def arm_qubit_density(state: FockState, arm: int) -> np.ndarray:
    """2x2 reduced density matrix of the spin carried by a singly occupied arm.

    Keys are grouped by the configuration of all other modes.  The fermionic
    reordering sign between the arm's operator and its environment block is
    the same for both spins (an arm's two modes are adjacent in the order)
    and squares away inside each group, so the trace over the environment is
    a plain sum of spinor outer products.
    """
    import numpy as np

    up_pos = mode_position((arm, Spin.UP), state.num_arms)
    down_pos = up_pos + 1
    arm_mask = (1 << up_pos) | (1 << down_pos)
    groups: dict[int, np.ndarray] = {}
    for key, amp in state.amplitudes.items():
        u = key >> up_pos & 1
        d = key >> down_pos & 1
        if u + d != 1:
            raise PreconditionError(f"arm {arm} is not singly occupied in every key")
        env = key & ~arm_mask
        spinor = groups.setdefault(env, np.zeros(2, dtype=complex))
        spinor[0 if u else 1] += amp
    rho = np.zeros((2, 2), dtype=complex)
    for spinor in groups.values():
        rho += np.outer(spinor, spinor.conj())
    return rho


def spinor_fidelity(rho: np.ndarray, alpha: complex, beta: complex) -> float:
    """Overlap <psi|rho|psi> of a density matrix with a (normalized) spinor."""
    import numpy as np

    v = np.array(unit_scaled(alpha, beta), dtype=complex)
    v /= np.linalg.norm(v)
    val = float(np.real(v.conj() @ rho @ v))
    return min(max(val, 0.0), 1.0)
