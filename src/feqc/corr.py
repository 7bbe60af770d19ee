"""Polynomial-cost backend for free-fermion circuits via two-point functions.

A Gaussian state of 2N modes is fully described by the Hermitian matrix
M[mu][nu] = <adag_mu a_nu> over the global mode order.  One-particle
unitaries act by conjugation, a mode's occupation readout conditions the
matrix with a rank-one update and an arm's with a rank-two one, and any
product of mode occupations is a principal-minor determinant (Wick's
theorem).

An arm-level charge readout that keeps the coherence of its singly occupied
branch is not a Gaussian operation, and neither are parity meters or
entangled-pair preparations; those raise NonGaussianOperationError.  What
this backend can do instead is answer "is every arm in S singly occupied?"
by expanding the product of one-per-arm projectors into 3^|S| occupation
monomials, each a principal-minor determinant.  The determinants are formed
as products of Schur-complement pivots, all 3^|S| of them as the leaves of
one breadth-first frontier over the 2|S| x 2|S| block of the arms in S.
That exponential term count is deliberately surfaced to callers.

A circuit's trailing run of charge readouts is expanded breadth first, as one
frontier: the live branches' blocks over the arms still to be read are
stacked, and each readout conditions every block on the read arm's 2 x 2
block at once, its four (n_up, n_down) children each one batched rank-two
update; an arm read for the last time leaves the block in that update.
That block is exact because a projection on a mode of a set reads only
entries in the set.  Both frontiers stack (n, n, branches), so every
elementwise step runs along the branch axis in long contiguous loops, and a
step is the same fixed handful of numpy calls for any number of branches.

A circuit runs on the backward light cone of its readouts, the rule fock's
runs share (``circuit.light_cone``): the walk takes the circuit's own
instructions, and its matrix holds only the arms they act on, the k-th
smallest of them as arm k.  The cost follows the cone, not the declared arm
count; the limits, the joint query's pricing and every reported arm number
are still decided on the circuit as written.  Every state that
reaches a readout must hold the electrons the cone added on its path: its
trace, the particle number, is checked, never renormalized; nor is an
occupation it reads, the joint probability, or an eigenvalue of the block a
terminal frontier starts from, more than EIGENVALUE_SLACK outside [0, 1],
and that block must be Hermitian.  Each drift is weighted by the probability
of its branch, whose matrix carries the rounding of the divisions that
conditioned it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import (Circuit, Conditional, Measure, PrepBell, PrepSpin, instruction_arms,
                      light_cone, readout_of, unitary_steps, validate_circuit)
from . import fock
from .errors import FeqcError, NonGaussianOperationError, PreconditionError
from .fock import MAX_ARMS, Spin, mode_position
from .measurement import (NORM_TOLERANCE, BranchRecord, FrontierNode, admit_depth, leaf_table,
                          leaves, trailing_measures, walk)

HERMITIAN_ATOL = 1e-10
EIGENVALUE_SLACK = 1e-9
PROBABILITY_FLOOR = 1e-12
# A Schur pivot of the joint query at or below this is rounding noise: its
# child weighs 0 and divides by 1.  Above it a pivot is a real, if tiny,
# probability, and dividing by it is safe: the blocks are positive
# semidefinite, so no rank-one update it makes exceeds 1 in magnitude.
PIVOT_FLOOR = 1e-15
MAX_JOINT_TERMS = 3 ** 12  # 12 arms take ~55 ms and ~38 MiB; each further arm triples both
# Bytes one branch tree may take, counted as one complex matrix of the walk
# per leaf: 16 * (2 * arms of the readouts' light cone) ** 2 bytes, so 7281
# leaves when the cone holds 48 arms.  A terminal block's frontier keeps a
# smaller matrix per live branch and never more branches than leaves, so this
# bounds it too.
MAX_TREE_BYTES = 1 << 30


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point functions <adag_mu a_nu> of a fermionic Gaussian state."""

    num_arms: int
    matrix: np.ndarray

    @property
    def num_modes(self) -> int:
        return 2 * self.num_arms


def _admit_arms(num_arms: int) -> None:
    if num_arms > MAX_ARMS:
        raise FeqcError(f"corr backend: {num_arms} arms exceed the limit MAX_ARMS = {MAX_ARMS}")


def init_from_occupations(occupied, num_arms: int) -> CorrelationMatrix:
    """Diagonal 0/1 matrix with ones at the given (arm, spin) modes."""
    _admit_arms(num_arms)
    m = np.zeros((2 * num_arms, 2 * num_arms), dtype=complex)
    for mode in occupied:
        pos = mode_position(mode, num_arms)
        m[pos, pos] = 1.0
    return CorrelationMatrix(num_arms, m)


def add_electron(M: CorrelationMatrix, arm: int, alpha: complex, beta: complex,
                 name: int | None = None) -> CorrelationMatrix:
    """Occupy one fresh orbital of an empty arm with the given spinor; a
    refusal calls the arm ``name`` (by default ``arm``)."""
    up = mode_position((arm, Spin.UP), M.num_arms)
    if math.hypot(*map(abs, M.matrix[up:up + 2, up:up + 2].ravel().tolist())) > 1e-9:
        arm = arm if name is None else name
        raise PreconditionError(f"add_electron: arm {arm} is already occupied")
    fock.check_spinor(alpha, beta)
    alpha, beta = fock.unit_scaled(alpha, beta)
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    v = np.array([alpha / norm, beta / norm])
    m = M.matrix.copy()
    m[up:up + 2, up:up + 2] += v.conj()[:, None] * v
    return CorrelationMatrix(M.num_arms, m)


def evolve(M: CorrelationMatrix, modes, matrix: np.ndarray) -> CorrelationMatrix:
    """Conjugate by a one-particle unitary on the listed modes.

    The index convention (adag_mu -> sum_nu U[nu][mu] adag_nu, hence
    M -> conj(V) M V^T for the embedded matrix V) is pinned by the
    Fock-backend oracle tests, not by fiat.  Only the listed rows, then
    columns, mix: they are read and written through one strided view, the
    evenly spaced positions from the lowest listed one to the highest, on
    which V is the unitary embedded in the identity (``_embedding``).
    """
    positions = [mode_position(mode, M.num_arms) for mode in modes]
    if len(set(positions)) != len(positions):
        raise ValueError("modes must be distinct")
    u = fock.step_unitary(matrix, len(positions))
    low = min(positions, default=0)
    step = math.gcd(*(p - low for p in positions)) or 1
    at = tuple((p - low) // step for p in positions)  # each mode's row of the view
    span = slice(low, low + step * (max(at, default=-1) + 1), step)
    v_conj, v_t = _embedding(u if type(u) is tuple else tuple(map(tuple, u.tolist())), at)
    m = M.matrix.copy()
    m[span] = v_conj @ m[span]
    m[:, span] = m[:, span] @ v_t
    return CorrelationMatrix(M.num_arms, m)


@functools.lru_cache(maxsize=256)
def _embedding(u: tuple, at: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """conj(V) and V^T, read-only, for the unitary u (a tuple of rows) embedded
    in the identity at rows and columns ``at``; the element table's matrices
    are made once for each place they act."""
    v = np.eye(max(at, default=-1) + 1, dtype=complex)
    v[np.ix_(at, at)] = u
    v.setflags(write=False)
    v_conj = v.conj()
    v_conj.setflags(write=False)
    return v_conj, v.T


def _check_unit(name: str, values, weights=1.0) -> None:
    """Refuse a probability further than EIGENVALUE_SLACK outside [0, 1],
    its distance weighted by ``weights``, the probabilities of the branches
    it was read on.  A conditioned matrix divides by its outcome's
    probability, and so does its rounding error; the weighted distance is
    what a clip moves a leaf's probability by.  O(B)."""
    weighted = (np.abs(values - 0.5) - 0.5) * weights  # each value's distance outside [0, 1]
    worst = weighted.argmax()
    if weighted.flat[worst] > EIGENVALUE_SLACK:
        value = float(np.asarray(values).flat[worst])
        raise FeqcError(f"correlation matrix drifted: {name} {value!r} outside [0, 1] "
                        f"(drift {value - min(max(value, 0.0), 1.0)!r})")


def occupation_probabilities(stack: np.ndarray, pos: int) -> np.ndarray:
    """<n> of mode position ``pos`` in each matrix of an (n, n, B) stack,
    clipped to [0, 1]."""
    return np.minimum(np.maximum(stack[pos, pos].real, 0.0), 1.0)


def project_occupation(M: CorrelationMatrix, mode, outcome: int) -> tuple[float, CorrelationMatrix]:
    """Condition the Gaussian state on one mode reading empty or occupied.

    Rank-one updates (Wick contractions of n M n and (1-n) M (1-n)) off mode p,
      outcome 1: M' = M + M[:,p] M[p,:] / (-M[p,p])
      outcome 0: M' = M + M[:,p] M[:,p]^dag / (1 - M[p,p]),
    and row and column p those of the definite outcome.  A projection on a
    mode of a set S reads only entries in S."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    pos = mode_position(mode, M.num_arms)
    m = M.matrix
    occ = m[pos, pos].real
    prob = occ if outcome == 1 else 1.0 - occ
    if prob <= PROBABILITY_FLOOR:
        raise ValueError(f"outcome {outcome} on mode {tuple(mode)} has zero probability")
    col = m[:, pos]
    updated = col[:, None] * (m[pos] if outcome else col.conj())
    updated *= 1.0 / ((1 - outcome) - occ)  # bit for bit / d: see _floored
    updated += m
    updated[pos] = updated[:, pos] = 0.0
    updated[pos, pos] = outcome
    return float(min(prob, 1.0)), CorrelationMatrix(M.num_arms, updated)


def _joint_ups(arms, num_arms: int) -> list[int]:
    """The up-mode positions of the joint query's arms, in ascending arm
    order (an arm's down mode follows its up mode); a query of more than
    MAX_JOINT_TERMS terms is refused."""
    ups = [mode_position((arm, Spin.UP), num_arms) for arm in sorted(set(arms))]
    m = len(ups)
    if 3 ** m > MAX_JOINT_TERMS:
        raise FeqcError(f"corr backend: the joint query over {m} arms has 3^{m} terms, "
                        f"more than the limit MAX_JOINT_TERMS = {MAX_JOINT_TERMS}")
    return ups


def _floored(pivots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real pivots as (weight factor, reciprocal divisor): a pivot at or
    below PIVOT_FLOOR weighs 0 and divides by 1.  numpy divides a complex
    number by a real one as a product with its reciprocal, so multiplying
    by 1 / d gives the bits of dividing by d, in a faster loop."""
    kept = pivots > PIVOT_FLOOR
    return np.where(kept, pivots, 0.0), 1.0 / np.where(kept, pivots, 1.0)


def _grow(weights: np.ndarray, pivots: np.ndarray, both) -> np.ndarray:
    """The weights of every entry's up, down and both children, child-major:
    every entry's up child, then every down child, then every both child;
    ``pivots`` holds the up and down children's pivots, (2, entries)."""
    grown = np.empty((3, len(weights)))
    np.multiply(weights, pivots, out=grown[:2])
    np.multiply(grown[0], -2.0 * both, out=grown[2])
    return grown.reshape(-1)


def single_occupancy_terms(M: CorrelationMatrix, arms) -> np.ndarray:
    """The joint query's 3^|S| terms (-2)^k det(M_T), one per monomial of
    prod_i (n_up + n_down - 2 n_up n_down) over the arms of S before any
    collection, as the leaves of one breadth-first frontier.  Each arm picks
    its up mode, its down mode or both, in ``itertools.product`` order over
    the arms in ascending order, and k counts the arms that picked both.
    The length of this array is the query's advertised cost.

    Every live entry, a weight w and a block S over the modes of the arms
    still to pick, branches into its up, down and both children, with
    weights w S00, w S11 and -2 w S00 (S11 - S10 S01 / S00).  A child's
    block is the Schur complement of the modes it picked, the arm's rows and
    columns dropped, so every determinant is a product of pivots.  Each is
    one Schur step that eliminates a mode: the up child's eliminates the up
    mode of S and the down child's the down mode of S without its up mode,
    both in one batched step, and the both child's eliminates the down mode
    of the up child's step before that mode is dropped; at the last arm only
    the pivots are computed.  A pivot at or below PIVOT_FLOOR zeros its
    child's weight and divides by 1 instead: the subtree it drops is a
    conditional probability, worth at most |w| PIVOT_FLOOR.

    The entries' blocks are stacked (n, n, entries) and each arm's children
    laid out child-major; one permutation puts the leaves in product order.
    """
    ups = _joint_ups(arms, M.num_arms)
    if not ups:
        return np.ones(1)  # the empty product
    modes = [pos for up in ups for pos in (up, up + 1)]
    block = M.matrix.take(modes, 0).take(modes, 1)[..., None]
    weights = np.ones(1)
    while True:
        n, count = len(block) - 2, block.shape[2]
        pivots, scales = _floored(block.diagonal()[:, :2].T.real)
        if n == 0:  # the last arm: its pivots alone
            both = block[1, 1] - block[1, 0] * (block[0, 1] * scales[0])
            terms = _grow(weights, pivots, _floored(both.real)[0])
            return terms.reshape((3,) * len(ups)).transpose().reshape(-1)
        # The up and down children's Schur steps at once, [row, column, step,
        # entry] over the modes after the up mode: the up step's still holds
        # the arm's down mode, first; the down step's row and column of it
        # are never read.
        rows = block[:2, 1:] * scales[:, None]
        steps = block[1:, None, :2] * rows.transpose(1, 0, 2)[None]
        np.subtract(block[1:, 1:, None], steps, out=steps)
        del block  # the previous arm's children, freed before this arm's are made
        up = steps[:, :, 0]
        both, scale = _floored(up[0, 0].real)
        children = np.empty((n, n, 3, count), complex)  # [row, column, child, entry]
        children[:, :, :2] = steps[1:, 1:]
        both_child = children[:, :, 2]  # the up step's Schur complement of its down mode
        np.multiply(up[1:, :1], up[:1, 1:] * scale, out=both_child)
        np.subtract(up[1:, 1:], both_child, out=both_child)
        weights = _grow(weights, pivots, both)
        block = children.reshape(n, n, 3 * count)
        del children, both_child, steps, up  # so the block is the children's only reference


def single_occupancy_probability(M: CorrelationMatrix, arms) -> float:
    """Probability that every arm in the set holds exactly one electron; a
    total further than EIGENVALUE_SLACK outside [0, 1] is refused."""
    total = float(np.cumsum(single_occupancy_terms(M, arms))[-1])  # term by term, in order
    _check_unit("joint charge-1 probability", total)
    return min(max(total, 0.0), 1.0)


@dataclass
class CorrRunStats:
    terms: int = 0
    wall_ms: float = 0.0
    measured_arms: list[int] = field(default_factory=list)
    joint_charge1: float | None = None


def _reject_non_gaussian(circuit: Circuit) -> None:
    # Conditionals on parity/spin labels are rejected transitively: the
    # offending measurement always precedes them.  A charge readout dephases
    # the read arm's spins, which only elements on that arm can reveal.
    read: dict[int, str] = {}  # arm -> label of its first charge readout
    for ins in circuit.instructions:
        if isinstance(ins, Conditional) and readout_of(ins) is not None:
            raise FeqcError(f"corr backend: readout {readout_of(ins).label!r} under a "
                            "conditional is not supported")
        if isinstance(ins, PrepBell):
            raise NonGaussianOperationError(
                "non-Gaussian operation: entangled-pair preparation has no "
                "correlation-matrix representation"
            )
        if isinstance(ins, Measure) and ins.kind in ("parity", "spin"):
            raise NonGaussianOperationError(
                f"non-Gaussian operation: {ins.kind} measurement {ins.label!r} "
                "cannot be tracked by the correlation backend"
            )
        if isinstance(ins, Measure):
            read.setdefault(ins.arm, ins.label)
        elif not isinstance(ins, PrepSpin):  # an element, plain or conditional
            for arm in [a for a in instruction_arms(ins) if a in read]:
                raise NonGaussianOperationError(
                    f"non-Gaussian operation: element on arm {arm} after charge measurement "
                    f"{read[arm]!r} of that arm cannot be tracked by the correlation backend"
                )


# The children of an arm readout in (n_up, n_down) order: the modes each one
# reads empty, its charge, and the sign that turns its probability into
# det(S_AA - diag(empty)), the pivot its rank-two update divides by.
_EMPTY_UP, _EMPTY_DOWN = np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, 1.0, 0.0])
_CHARGES = np.array([0, 1, 1, 2])
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _charge_readout(stack: np.ndarray, up: int, weights, admit, last: bool = False,
                    drop: bool = False):
    """One spin-resolved charge readout of every matrix in an (n, n, B) stack,
    conditioned on the arm's 2 x 2 block S_AA of modes up and up + 1 at once.
    ``weights`` are the matrices' branch probabilities, which weigh the drift
    of the arm's two occupations a and d in every matrix (``_check_unit``).

    Every matrix has four children, (n_up, n_down) = (0, 0), (0, 1), (1, 0),
    (1, 1), of probabilities 1 - a - d + det S_AA, d - det S_AA, a - det S_AA
    and det S_AA, formed from the clipped occupations; those at or below
    PROBABILITY_FLOOR are dropped, and the kept ones of each matrix must sum
    to 1 within NORM_TOLERANCE: the four sum to 1 by construction, so this
    catches the negative child of a drifted block, which is dropped.  A kept
    child's matrix over the other modes R is one rank-two update,
    S_RR - S_RA K^-1 S_AR with K = S_AA - diag(1 - n_up, 1 - n_down), whose
    determinant is the child's probability up to sign.  With ``drop`` the
    read arm is the stack's first and leaves it; otherwise it stays as
    diag(n_up, n_down).  The update is elementwise along the stack, so a
    matrix gets the same bits in any stack.

    Returns the children's parent indices, charges and probabilities as
    arrays in (parent, n_up, n_down) order, and the stack of their matrices
    in that order, which is None when ``last``.  The two single-occupancy
    outcomes (up vs down) stay distinct children even though both report
    charge 1; a Gaussian state cannot keep their coherence, which is exactly
    the information an electrometer would not reveal.  ``admit(n)`` is told
    that the tree grows by n leaves before the children's matrices are made.
    """
    arm = stack[up:up + 2, up:up + 2]  # S_AA of every matrix, (2, 2, B)
    _check_unit("occupation", arm.diagonal().T.real, weights)
    # occupation_probabilities may be swapped for any callable giving a sequence of floats
    a = np.asarray(occupation_probabilities(stack, up))
    d = np.asarray(occupation_probabilities(stack, up + 1))
    outcomes = np.empty((len(a), 4))  # each matrix's children's probabilities
    np.subtract(a * d, (arm[0, 1] * arm[1, 0]).real, out=outcomes[:, 3])
    np.subtract(a, outcomes[:, 3], out=outcomes[:, 2])
    np.subtract(d, outcomes[:, 3], out=outcomes[:, 1])
    np.subtract(1 - a, outcomes[:, 1], out=outcomes[:, 0])
    kept = outcomes > PROBABILITY_FLOOR
    parents, child = kept.nonzero()
    p = outcomes[kept]
    totals = np.bincount(parents, weights=p, minlength=len(a))  # each parent's, in order
    drifted = np.abs(totals - 1) > NORM_TOLERANCE
    if np.count_nonzero(drifted):
        total = float(totals[drifted][0]) or 0  # a parent without children sums to 0
        raise FeqcError(f"correlation matrix drifted: outcome probabilities sum to {total!r}")
    admit(len(p) - len(a))
    if last:
        return parents, _CHARGES[child], p, None
    # Each child's copy of S_RR is taken only for the last subtraction, so at
    # most two child-sized stacks are held at once.
    rows = stack[up:up + 2].take(parents, 2)  # S_A: of each child's parent
    cols = stack[:, up:up + 2].take(parents, 2)  # S_:A
    rest = slice(2, None) if drop else slice(None)  # the rows and columns R
    scale = _SIGNS[child] / p  # 1 / det K
    r, s = rows[0, rest], rows[1, rest]  # S_AR
    # K^-1 S_AR as its rows x and y, K^-1 = [[K11, -K01], [-K10, K00]] / det K
    x = ((rows[1, up + 1].real - _EMPTY_DOWN[child]) * r - rows[0, up + 1] * s) * scale
    y = ((rows[0, up].real - _EMPTY_UP[child]) * s - rows[1, up] * r) * scale
    updated = cols[rest, 0][:, None] * x
    updated += cols[rest, 1][:, None] * y
    np.subtract(stack[rest, rest].take(parents, 2), updated, out=updated)
    if not drop:
        updated[up:up + 2] = updated[:, up:up + 2] = 0.0
        updated[up, up], updated[up + 1, up + 1] = 1 - _EMPTY_UP[child], 1 - _EMPTY_DOWN[child]
    return parents, _CHARGES[child], p, updated


def _check_particle_number(M: CorrelationMatrix, electrons: int, weight: float) -> None:
    """Refuse a matrix whose trace, its particle number, is not the number of
    electrons added on its path: elements and projections both conserve it.
    The drift is weighted by ``weight``, the branch's probability, as in
    ``_check_unit``.  O(N)."""
    number = float(M.matrix.trace().real)
    if abs(number - electrons) * weight > NORM_TOLERANCE:
        raise FeqcError(f"correlation matrix drifted: particle number {number!r} where "
                        f"{electrons} electrons were added (drift {number - electrons!r})")


def _check_spectrum(block: np.ndarray, weight: float) -> None:
    """Refuse a principal block of M that is not Hermitian, or whose
    eigenvalues leave [0, 1] by more than EIGENVALUE_SLACK, each drift
    weighted by ``weight``, the branch's probability, as in ``_check_unit``.
    By Cauchy interlacing a block's eigenvalues lie within M's, so a block
    eigenvalue outside [0, 1] proves one of M's is too.  O(n^3)."""
    skew = float(np.abs(block - block.conj().T).max())
    if skew * weight > HERMITIAN_ATOL:
        raise FeqcError(f"correlation matrix drifted: not Hermitian (|M - M^dag| reaches {skew!r})")
    _check_unit("eigenvalue", np.linalg.eigvalsh(block), weight)


def _apply(M: CorrelationMatrix, ins, local: dict[int, int]) -> CorrelationMatrix:
    """Apply an electron or element of the circuit to M, whose arm
    ``local[a]`` is the circuit's arm a; a refusal names the circuit's arm."""
    if isinstance(ins, PrepSpin):
        return add_electron(M, local[ins.arm], ins.alpha, ins.beta, ins.arm)
    for modes, matrix in unitary_steps(ins):
        M = evolve(M, [(local[arm], spin) for arm, spin in modes], matrix)
    return M


def charge_branch_tree(circuit: Circuit):
    """Expand a Gaussian circuit into a branch tree over charge readouts.

    Charge is read out spin-resolved, the realization a correlation matrix
    can track; parity and spin meters, readouts under conditionals, and
    elements on an arm after its charge readout, are refused.  Every readout
    is one ``_charge_readout`` step, which conditions on the arm's 2 x 2
    block once and makes each (n_up, n_down) child by one rank-two update.
    A readout followed by other instructions branches one matrix at a time,
    the arm kept as diag(n_up, n_down).  The circuit's trailing run of
    readouts is expanded breadth first: every live branch's 2m x 2m block
    over the m read arms is stacked, each readout is one batched step over
    the stack, and an arm read for the last time leaves it.  The
    run is one FrontierNode: its leaves are kept as arrays of outcomes and
    probabilities, and keep no matrix; their records (``post_state`` None)
    are built when they or the node's children are first read.
    When every charge readout is terminal, the joint all-arms-singly-occupied
    probability is also evaluated, on the state the block starts from,
    through the exponential monomial expansion and its 3^m term count
    reported in the stats; a joint probability that differs from the summed
    all-charge-1 leaves by more than NORM_TOLERANCE is an error, never
    renormalized.  A tree whose leaves would take more than MAX_TREE_BYTES
    as matrices of the walk is refused while it is expanded, and a state
    that reaches a readout with a trace other than the electrons added on
    its path is refused (``_check_particle_number``), as is a block that is
    not Hermitian or has an eigenvalue outside [0, 1] (``_check_spectrum``).

    The walk runs the circuit's own instructions on the readouts' light cone
    (``circuit.light_cone``), over a matrix of the arms they act on: the k-th
    smallest is its arm k (``_apply``).  A leaf is charged the bytes of that
    matrix, 16 * (2 * arms of the cone) ** 2.  MAX_ARMS, which readouts are
    terminal and which form the trailing run, and the arms the stats and
    messages name are taken from the circuit as written, so the tree, the
    stats and every other refusal are the ones the full circuit gives.
    """
    validate_circuit(circuit)
    _reject_non_gaussian(circuit)
    _admit_arms(circuit.arm_count)
    stats = CorrRunStats()
    start = time.perf_counter()
    instructions = circuit.instructions
    measures = [ins for ins in instructions if isinstance(ins, Measure)]
    stats.measured_arms = sorted({ins.arm for ins in measures})
    trailing = trailing_measures(instructions)  # the readouts the circuit as written ends with
    admit_depth(len(measures) - trailing)  # the terminal block is a loop: only the rest nest
    terminal = bool(measures) and trailing == len(measures)
    leaf_count = 1  # the leaves the tree will have once every path made so far ends

    def admit(grown: int) -> None:
        # Refuse a tree whose leaves, one matrix of the walk each, outgrow the
        # budget while it is being expanded; a terminal block's stack is never larger.
        nonlocal leaf_count
        leaf_count += grown
        if leaf_count * leaf_bytes > MAX_TREE_BYTES:
            raise FeqcError(f"corr backend: {leaf_count} leaves of {leaf_bytes} bytes "
                            f"each exceed the limit MAX_TREE_BYTES = {MAX_TREE_BYTES}")

    def branches(M: CorrelationMatrix, ins: Measure, prob: float):
        _check_particle_number(M, electrons[ins.label], prob)
        up = mode_position((local[ins.arm], Spin.UP), M.num_arms)
        _, charges, probs, post = _charge_readout(M.matrix[..., None], up, prob, admit)
        return [(n, p, CorrelationMatrix(M.num_arms, m))
                for n, p, m in zip(charges.tolist(), probs.tolist(), post.transpose(2, 0, 1))]

    def block(M: CorrelationMatrix, readouts, outcomes, prob, count):
        _check_particle_number(M, electrons[readouts[0].label], prob)
        count(1)
        # The complexity demonstration: price the joint charge-1 query on the
        # state the terminal block starts from.
        if terminal:
            stats.joint_charge1 = single_occupancy_probability(
                M, [local[ins.arm] for ins in readouts])
            stats.terms = 3 ** len(stats.measured_arms)
        # The block holds the arms still to be read, the next to leave first:
        # an arm's modes leave the front as it is read for the last time.
        final = {ins.arm: i for i, ins in enumerate(readouts)}
        arms = sorted(final, key=final.get)
        modes = [mode_position((local[arm], spin), M.num_arms) for arm in arms for spin in Spin]
        start = M.matrix.take(modes, 0).take(modes, 1)
        stack = start[..., None]

        def grow(n: int) -> None:
            admit(n)
            count(n)

        levels = []  # (label, parents, charges, probabilities) of each readout's children
        paths = np.array([prob])  # each live branch's probability
        for i, ins in enumerate(readouts):
            leaving = final[ins.arm] == i
            parents, charges, probs, stack = _charge_readout(
                stack, 2 * arms.index(ins.arm), paths, grow, i == len(readouts) - 1, leaving)
            if leaving:
                arms.remove(ins.arm)
            levels.append((ins.label, parents, charges, probs))
            paths = paths[parents] * probs
        # After the readouts, whose occupation checks name a drifted entry first.
        _check_spectrum(start, prob)
        node = FrontierNode(outcomes, levels, paths)
        if terminal:  # the block is the whole tree: check the joint query against it
            summed = sum(paths[np.logical_and.reduce(node.rows == 1, axis=1)].tolist())
            if abs(summed - stats.joint_charge1) > NORM_TOLERANCE:
                raise FeqcError(f"corr backend: joint charge-1 probability "
                                f"{stats.joint_charge1!r} but the all-charge-1 branches "
                                f"sum to {summed!r}")
        return node

    cone = light_cone(instructions)
    # The k-th smallest arm the cone acts on is arm k of the walk's matrix:
    # mode positions keep their order, so every kept entry of the matrix, and
    # with it every probability, is computed as in the full circuit.
    local = {arm: k for k, arm in enumerate(
        sorted({arm for ins in cone for arm in instruction_arms(ins)}), start=1)}
    leaf_bytes = 16 * (2 * len(local)) ** 2  # one complex matrix of the walk
    electrons: dict[str, int] = {}  # readout label -> electrons the cone adds before it
    added = 0
    for ins in cone:
        if isinstance(ins, PrepSpin):
            added += 1
        elif isinstance(ins, Measure):
            electrons[ins.label] = added
    # The block takes only the circuit's own trailing run: a readout the cone
    # moved up next to it branches one matrix at a time, as written.
    root = walk(cone, init_from_occupations([], len(local)),
                functools.partial(_apply, local=local), branches,
                (len(cone) - trailing, block))
    stats.wall_ms = (time.perf_counter() - start) * 1000.0
    return root, stats


def enumerate_charge_branches(
    circuit: Circuit,
) -> tuple[list[BranchRecord], CorrRunStats]:
    """Flattened charge_branch_tree: every outcome assignment with its
    probability, and its conditional Gaussian state where a later
    instruction needed one (None after a terminal block of readouts), over
    the arms of the readouts' light cone: a post-state's arm k is the k-th
    smallest circuit arm that the cone acts on."""
    root, stats = charge_branch_tree(circuit)
    return leaves(root), stats


def merged_branches(root) -> list[dict]:
    """A charge_branch_tree's branches as report entries, one per outcome
    assignment, in order of first appearance, each probability its leaves'
    summed in leaf order (a charge readout splits into spin-resolved
    leaves)."""
    # corr refuses a conditional readout, so every chunk reads the same labels.
    chunks = leaf_table(root)
    labels = chunks[0][0]
    rows = np.concatenate([rows for _, rows, _ in chunks])
    probs = np.concatenate([probs for *_, probs in chunks])
    if not labels:  # a circuit without readouts has one leaf
        return [{"outcomes": {}, "probability": float(probs[0])}]
    order = np.lexsort(rows.T)  # stable: equal rows side by side, each run in leaf order
    ordered = rows[order]
    starts = np.empty(len(rows), bool)  # where a run of equal rows starts
    starts[0] = True
    (ordered[1:] != ordered[:-1]).any(1, out=starts[1:])
    summed = np.bincount(starts.cumsum() - 1, weights=probs[order])  # each run's, in leaf order
    first = order[starts]  # each run's first leaf
    by_first = first.argsort()
    return [{"outcomes": dict(zip(labels, row)), "probability": p}
            for row, p in zip(rows[first[by_first]].tolist(), summed[by_first].tolist())]
