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
as products of Schur-complement pivots, at most 3^|S| of them as the leaves
of one breadth-first frontier over the 2|S| x 2|S| block of the arms in S:
a pivot at or below PIVOT_FLOOR ends its subtree, whose terms are 0.  That
exponential term count, 3^|S| whatever is dropped, is deliberately surfaced
to callers, and MAX_JOINT_TERMS limits it before anything is built.

A circuit's charge readouts are expanded breadth first, in one loop over its
instructions that holds every live branch's matrix in one (n, n, branches)
stack; a readout's four (n_up, n_down) children are each one batched
rank-two update.  From the trailing run of readouts on, the stack holds the
block of the arms still to be read, exact because a projection on a mode of
a set reads only entries in the set, and an arm read for the last time
leaves it.  Every step runs along the branch axis in long contiguous loops,
the same fixed handful of numpy calls for any number of branches.

A circuit runs on the backward light cone of its readouts, the rule fock's
runs share (``circuit.light_cone``): the walk takes the circuit's own
instructions, and its matrices hold only the arms they act on, the k-th
smallest of them as arm k.  The cost follows the cone, not the declared arm
count; the limits, the joint query's pricing and every reported arm number
are still decided on the circuit as written.  Every state that
reaches a readout must hold the electrons the cone added before it: its
trace, the particle number, is checked, never renormalized; nor is an
occupation it reads, the joint probability, or an eigenvalue of the block
the trailing run starts from, more than EIGENVALUE_SLACK outside [0, 1],
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
                      light_cone, readout_of, unitary_steps, unwrap, validate_circuit)
from . import fock, measurement
from .errors import FeqcError, NonGaussianOperationError, PreconditionError
from .fock import MAX_ARMS, Spin, mode_position
from .measurement import NORM_TOLERANCE, BranchRecord, FrontierNode, leaves, trailing_measures

HERMITIAN_ATOL = 1e-10
EIGENVALUE_SLACK = 1e-9
PROBABILITY_FLOOR = 1e-12
# A Schur pivot of the joint query at or below this is rounding noise: its
# child weighs 0 and divides by 1.  Above it a pivot is a real, if tiny,
# probability, and dividing by it is safe: the blocks are positive
# semidefinite, so no rank-one update it makes exceeds 1 in magnitude.
PIVOT_FLOOR = 1e-15
# The joint query's 3^m terms, counted before anything is built.  At most
# that many monomials are expanded: a floored pivot ends its subtree.  Twelve
# arms whose pivots never floor take ~55 ms on a process's first query
# (~30 ms after) and ~38 MiB; each further arm triples both.
MAX_JOINT_TERMS = 3 ** 12
# Bytes one branch tree may take, counted as one complex matrix of the walk
# per leaf: 16 * (2 * arms of the readouts' light cone) ** 2 bytes, so 7281
# leaves when the cone holds 48 arms.  That is the stack's own size until the
# trailing run of readouts, whose stack holds smaller matrices.
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


def add_electron(M: CorrelationMatrix, arm: int, alpha: complex,
                 beta: complex) -> CorrelationMatrix:
    """Occupy one fresh orbital of an empty arm with the given spinor."""
    m = M.matrix.copy()[..., None]
    _occupy(m, mode_position((arm, Spin.UP), M.num_arms), alpha, beta, arm)
    return CorrelationMatrix(M.num_arms, m[..., 0])


def _occupy(stack: np.ndarray, up: int, alpha: complex, beta: complex, arm: int) -> None:
    """add_electron on every matrix of an (n, n, B) stack in place, at rows
    up and up + 1; a refusal names the circuit's ``arm``."""
    block = stack[up:up + 2, up:up + 2]
    if (np.square(np.abs(block)).sum((0, 1)) > 1e-18).any():  # |S_AA| > 1e-9 in any matrix
        raise PreconditionError(f"add_electron: arm {arm} is already occupied")
    fock.check_spinor(alpha, beta)
    alpha, beta = fock.unit_scaled(alpha, beta)
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    v = np.array([alpha / norm, beta / norm])
    block += (v.conj()[:, None] * v)[..., None]


def evolve(M: CorrelationMatrix, modes, matrix: np.ndarray) -> CorrelationMatrix:
    """Conjugate by a one-particle unitary on the listed modes.

    The index convention (adag_mu -> sum_nu U[nu][mu] adag_nu, hence
    M -> conj(V) M V^T for the embedded matrix V) is pinned by the
    Fock-backend oracle tests, not by fiat.  See ``_conjugate``.
    """
    positions = [mode_position(mode, M.num_arms) for mode in modes]
    if len(set(positions)) != len(positions):
        raise ValueError("modes must be distinct")
    m = M.matrix.copy()[..., None]
    _conjugate(m, positions, matrix)
    return CorrelationMatrix(M.num_arms, m[..., 0])


def _conjugate(stack: np.ndarray, positions, matrix) -> None:
    """``evolve`` on every matrix of an (n, n, B) stack in place, at the
    distinct rows ``positions``.  Only those rows, then columns, mix, through
    one strided view of the evenly spaced rows from the lowest listed one to
    the highest, on which V is the unitary embedded in the identity
    (``_embedding``): one (k, n B) product, then one (B, n, k) product with
    V^T.  By an element table matrix, each entry real or imaginary, every
    matrix gets the bits ``evolve`` gives it alone (the tests check this)."""
    u = fock.step_unitary(matrix, len(positions))
    low = min(positions, default=0)
    step = math.gcd(*(p - low for p in positions)) or 1
    at = tuple((p - low) // step for p in positions)  # each mode's row of the view
    span = slice(low, low + step * (max(at, default=-1) + 1), step)
    v_conj, v_t = _embedding(u if type(u) is tuple else tuple(map(tuple, u.tolist())), at)
    rows = stack[span]
    rows[...] = (v_conj @ rows.reshape(len(v_t), stack[0].size)).reshape(rows.shape)
    cols = stack[:, span]
    cols[...] = (cols.transpose(2, 0, 1) @ v_t).transpose(1, 2, 0)


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
    The length of this array is the query's advertised cost, and at most
    that many monomials are expanded.

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
    An entry of weight exactly 0 has only terms of 0 below it, so once at
    least half of the entries a level holds weigh 0 they leave the frontier:
    the survivors' blocks and weights are gathered, with each one's place
    among the level's 3^k entries, and their subtrees' terms are scattered
    to those places at the end, every dropped term 0.0.  A gather copies
    every live block, so it waits until it at least halves them.  A query
    ends at a level with no live entry.  Each live term comes from the same
    elementwise steps on the same operands as in the full frontier, so it
    has the same bits.
    """
    ups = _joint_ups(arms, M.num_arms)
    if not ups:
        return np.ones(1)  # the empty product
    modes = [pos for up in ups for pos in (up, up + 1)]
    block = M.matrix.take(modes, 0).take(modes, 1)[..., None]
    weights = np.ones(1)
    places = None  # each entry's place among its level's, once a level was gathered
    size = 1  # the level's entries, 3^k, the dropped ones counted
    while True:
        n, count = len(block) - 2, block.shape[2]
        pivots, scales = _floored(block.diagonal()[:, :2].T.real)
        if places is not None:  # the children's places, child-major like their weights
            places = (places + size * np.arange(3)[:, None]).reshape(-1)
        size *= 3
        if n == 0:  # the last arm: its pivots alone
            both = block[1, 1] - block[1, 0] * (block[0, 1] * scales[0])
            terms = _grow(weights, pivots, _floored(both.real)[0])
            if places is not None:
                full = np.zeros(size)  # every dropped term is 0.0
                full[places] = terms
                terms = full
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
        live = np.count_nonzero(weights)
        if 2 * live <= len(weights):  # at least half weigh 0: drop them
            if not live:
                return np.zeros(3 ** len(ups))
            kept = weights.nonzero()[0]
            places = kept if places is None else places[kept]
            block, weights = block.take(kept, 2), weights[kept]


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


def _check_particle_number(stack: np.ndarray, electrons: int, weights: np.ndarray) -> None:
    """Refuse a stack of whole-cone matrices in which a trace, the particle
    number, is not the electrons added: elements and projections conserve
    it.  Each drift is weighted by its branch's probability (``_check_unit``)."""
    numbers = stack.trace().real
    weighted = np.abs(numbers - electrons) * weights
    worst = weighted.argmax()
    if weighted[worst] > NORM_TOLERANCE:
        number = float(numbers[worst])
        raise FeqcError(f"correlation matrix drifted: particle number {number!r} where "
                        f"{electrons} electrons were added (drift {number - electrons!r})")


def _check_spectrum(blocks: np.ndarray, weights: np.ndarray) -> None:
    """Refuse a principal block of M, in an (n, n, B) stack, that is not
    Hermitian, or whose eigenvalues leave [0, 1] by more than
    EIGENVALUE_SLACK, each drift weighted by its block's branch probability
    in ``weights``, as in ``_check_unit``.  By Cauchy interlacing a block's
    eigenvalues lie within M's, so a block eigenvalue outside [0, 1] proves
    one of M's is too.  O(n^3 B)."""
    blocks = blocks.transpose(2, 0, 1)
    skews = np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max((1, 2))
    worst = (skews * weights).argmax()
    if skews[worst] * weights[worst] > HERMITIAN_ATOL:
        skew = float(skews[worst])
        raise FeqcError(f"correlation matrix drifted: not Hermitian (|M - M^dag| reaches {skew!r})")
    _check_unit("eigenvalue", np.linalg.eigvalsh(blocks), weights[:, None])


def charge_branch_tree(circuit: Circuit):
    """Expand a Gaussian circuit into a branch tree over charge readouts.

    Charge is read out spin-resolved, the realization a correlation matrix
    can track; parity and spin meters, readouts under conditionals, and
    elements on an arm after its charge readout, are refused.  The tree is
    expanded breadth first, in one loop over the instructions that holds
    every live branch's matrix in one (n, n, B) stack and its probability in
    ``paths``.  An electron or element acts on every entry (``_occupy``,
    ``_conjugate``); an element under conditionals acts on the entries that
    read each of their labels' values.  A readout is one ``_charge_readout``
    step over the stack, the arm kept as diag(n_up, n_down).  The circuit's
    trailing run of readouts starts from the stacked blocks of the arms it
    reads, and an arm read for the last time leaves them.  The tree is one
    FrontierNode, whose leaf records (``post_state`` None) are built when
    first read; a circuit without readouts gives ``BranchRecord({}, 1.0, None)``.

    When every charge readout is terminal, the joint all-arms-singly-occupied
    probability is also evaluated, on the state the trailing run starts
    from, through the exponential monomial expansion and its 3^m term count
    reported in the stats; a joint probability that differs from the summed
    all-charge-1 leaves by more than NORM_TOLERANCE is an error, never
    renormalized.  A tree of more leaves than MAX_TREE_BYTES holds matrices
    of the walk, or than measurement.MAX_LEAVES, is refused as it grows,
    before the children's matrices are made; so is a stack whose trace at a
    readout or at the trailing run is not the electrons added before it
    (``_check_particle_number``), and a block the trailing run starts from
    that is not Hermitian or has an eigenvalue outside [0, 1]
    (``_check_spectrum``).

    The loop runs the circuit's own instructions on the readouts' light cone
    (``circuit.light_cone``), over matrices of the arms they act on: the
    k-th smallest is arm k, and a leaf is charged that matrix's bytes.
    MAX_ARMS, which readouts are terminal and which form the trailing run,
    and the arms the stats and messages name are taken from the circuit as
    written, so the tree, the stats and every other refusal are the ones the
    full circuit gives.
    """
    validate_circuit(circuit)
    _reject_non_gaussian(circuit)
    _admit_arms(circuit.arm_count)
    stats = CorrRunStats()
    start = time.perf_counter()
    measures = [ins for ins in circuit.instructions if isinstance(ins, Measure)]
    stats.measured_arms = sorted({ins.arm for ins in measures})
    trailing = trailing_measures(circuit.instructions)  # readouts the circuit as written ends with
    terminal = bool(measures) and trailing == len(measures)
    cone = light_cone(circuit.instructions)
    tail = len(cone) - trailing  # a readout the cone moved up next to the run is not in it
    # The k-th smallest arm the cone acts on is arm k of the walk's matrices:
    # mode positions keep their order, so every kept entry of a matrix, and
    # with it every probability, is computed as in the full circuit.
    local = {arm: k for k, arm in enumerate(
        sorted({arm for ins in cone for arm in instruction_arms(ins)}), start=1)}
    n = len(local)
    leaf_bytes = 16 * (2 * n) ** 2  # one complex matrix of the walk
    leaf_count = 1

    def admit(grown: int) -> None:
        nonlocal leaf_count
        leaf_count += grown
        if leaf_count * leaf_bytes > MAX_TREE_BYTES:
            raise FeqcError(f"corr backend: {leaf_count} leaves of {leaf_bytes} bytes "
                            f"each exceed the limit MAX_TREE_BYTES = {MAX_TREE_BYTES}")
        if leaf_count > measurement.MAX_LEAVES:
            raise FeqcError(f"branch tree: more leaves than the limit "
                            f"MAX_LEAVES = {measurement.MAX_LEAVES}")

    def position(arm: int, spin: Spin) -> int:
        return mode_position((local[arm], spin), n)

    stack = np.zeros((2 * n, 2 * n, 1), complex)
    paths = np.ones(1)  # each live branch's probability
    levels = []  # (label, parents, charges, probabilities) of each readout's children
    tested = {cond.label for ins in cone for cond in unwrap(ins)[0]}
    read: dict[str, np.ndarray] = {}  # a tested label -> each live branch's outcome
    electrons = 0  # added so far; a conditional prepares nothing, so every branch holds them
    for i, ins in enumerate(cone):
        conditions, op = unwrap(ins)
        if i == tail:  # the trailing run: every instruction from here on is a readout
            _check_particle_number(stack, electrons, paths)
            # The complexity demonstration, priced on the run's one starting state.
            if terminal:
                stats.joint_charge1 = single_occupancy_probability(
                    CorrelationMatrix(n, stack[..., 0]), [local[ins.arm] for ins in cone[i:]])
                stats.terms = 3 ** len(stats.measured_arms)
            # The block holds the arms still to be read, the next to leave
            # first: an arm's modes leave the front as it is read for the last time.
            final = {ins.arm: j for j, ins in enumerate(cone[i:], start=i)}
            arms = sorted(final, key=final.get)
            kept = [position(arm, spin) for arm in arms for spin in Spin]
            stack = block = stack.take(kept, 0).take(kept, 1)
            weights = paths
        if isinstance(op, Measure):
            if i < tail:
                _check_particle_number(stack, electrons, paths)
                up, leaving = position(op.arm, Spin.UP), False
            else:
                up, leaving = 2 * arms.index(op.arm), final[op.arm] == i
            parents, charges, probs, stack = _charge_readout(
                stack, up, paths, admit, i == len(cone) - 1, leaving)
            if leaving:
                arms.remove(op.arm)
            levels.append((op.label, parents, charges, probs))
            paths = paths[parents] * probs
            read = {label: outcomes[parents] for label, outcomes in read.items()}
            if op.label in tested:
                read[op.label] = charges
        elif isinstance(op, PrepSpin):
            _occupy(stack, position(op.arm, Spin.UP), op.alpha, op.beta, op.arm)
            electrons += 1
        else:  # an element
            entries = stack
            if conditions:
                matches = np.ones(len(paths), bool)
                for cond in conditions:  # an entry that did not read the label matches no value
                    matches &= read[cond.label] == cond.value if cond.label in read else False
                entries = stack[..., matches]
            for modes, matrix in unitary_steps(op):
                _conjugate(entries, [position(arm, spin) for arm, spin in modes], matrix)
            if conditions:
                stack[..., matches] = entries
    root = FrontierNode(levels, paths) if levels else BranchRecord({}, 1.0, None)
    if tail < len(cone):
        # After the readouts, whose occupation checks name a drifted entry first.
        _check_spectrum(block, weights)
    if terminal:  # the trailing run is the whole tree: check the joint query against it
        summed = sum(paths[np.logical_and.reduce(root.rows == 1, axis=1)].tolist())
        if abs(summed - stats.joint_charge1) > NORM_TOLERANCE:
            raise FeqcError(f"corr backend: joint charge-1 probability "
                            f"{stats.joint_charge1!r} but the all-charge-1 branches "
                            f"sum to {summed!r}")
    stats.wall_ms = (time.perf_counter() - start) * 1000.0
    return root, stats


def enumerate_charge_branches(
    circuit: Circuit,
) -> tuple[list[BranchRecord], CorrRunStats]:
    """Flattened charge_branch_tree: every spin-resolved outcome assignment
    with its probability; a leaf keeps no post-state (None)."""
    root, stats = charge_branch_tree(circuit)
    return leaves(root), stats


def merged_branches(root) -> list[dict]:
    """A charge_branch_tree's branches as report entries, one per outcome
    assignment, in order of first appearance, each probability its leaves'
    summed in leaf order (a charge readout splits into spin-resolved
    leaves)."""
    if isinstance(root, BranchRecord):  # a circuit without readouts has one leaf
        return [{"outcomes": {}, "probability": root.probability}]
    labels, rows, probs = root.labels, root.rows, root.probabilities
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
