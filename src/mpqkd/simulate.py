"""Ground-truth engines: Monte Carlo round sampling, an exact density-matrix
oracle for small N, a sampling-without-replacement tail-bound experiment,
and a desk-scale one-way error-correction protocol.

All randomness flows through a counter-based Philox generator seeded from a
single integer; sub-experiments draw from spawned child streams, so a report
is reproducible bit-for-bit from (seed, parameters) and tallies merged from
batches are order-independent integer sums.  Tallies are taken one Bob
column at a time on scratch buffers filled in place; ``random(out=...)``
consumes a stream exactly as ``random(size)`` does, so the counts equal
those of whole-array reductions over freshly drawn chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .finite_key import Protocol, ProtocolConfig, derive_counts
from .noise import MarginalProbabilities, NoiseModel, NoiseScenario, ObservedStats
from .numerics import LogEps, xi_correction

__all__ = [
    "SimulationReport",
    "SamplingLemmaReport",
    "ECToyReport",
    "simulate_rounds",
    "exact_marginals",
    "sampling_lemma_experiment",
    "ec_toy_run",
]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class SimulationReport:
    """Empirical PE frequencies as integer counts over integer denominators."""

    ab_errors: Tuple[int, ...]
    ab_rounds: int
    x_errors: int
    x_rounds: int
    z_errors: Optional[int]
    z_rounds: Optional[int]
    key_rounds: int
    seed: int

    @property
    def q_ab(self) -> List[float]:
        return [e / self.ab_rounds for e in self.ab_errors]

    @property
    def q_x(self) -> float:
        return self.x_errors / self.x_rounds

    @property
    def q_z(self) -> Optional[float]:
        if self.z_errors is None:
            return None
        return self.z_errors / self.z_rounds

    def to_observed_stats(self) -> ObservedStats:
        return ObservedStats(
            q_ab=self.q_ab,
            q_x=self.q_x,
            q_z=self.q_z,
            m=self.ab_rounds,
            m_prime=self.x_rounds,
        )


def _philox(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _chunks(total: int, size: int) -> Iterator[int]:
    """Batch sizes that cover ``total`` items, ``size`` at a time."""
    for start in range(0, total, size):
        yield min(size, total - start)


def simulate_rounds(
    scenario: NoiseScenario, config: ProtocolConfig, seed: int
) -> SimulationReport:
    """Sample the parameter-estimation statistics of one protocol run.

    Per round the noise realization is drawn classically, which is exact for
    the measured observables:

    * global model: with probability 1-nu the ideal GHZ correlations (all
      Z outcomes equal; X parity +1), otherwise a uniform outcome string in
      the measured basis, so each Bob's Z disagreement is an independent
      fair coin and the X parity is a fair coin;
    * local model: each Bob's qubit passes a Pauli twirl (I, X, Y, Z with
      probabilities 1-3nu/4, nu/4, nu/4, nu/4); X or Y flips his Z outcome,
      Z or Y flips his X sign.

    Q_AB and (for the six-state protocol) Q_Z are tallied over the m
    first-type PE rounds, Q_X over the m second-type rounds -- restricted to
    m' of them for the six-state protocol, standing in for the rounds where
    an even number of parties chose the Y basis.
    """
    counts = derive_counts(config)
    n_bobs = scenario.parties - 1
    if scenario.parties != config.parties:
        raise ValueError("scenario and config disagree on the party count")
    z_stream, x_stream = [_philox(s) for s in np.random.SeedSequence(seed).spawn(2)]
    nu = scenario.nu
    is_global = scenario.model is NoiseModel.GLOBAL_DEPOLARIZING
    six = config.kind is Protocol.N_SIX_STATE
    x_rounds = counts.m_prime if six else counts.m

    # scratch for the longer (first-type) pass, reused by every chunk; the
    # flags are column-major so that each Bob's column is contiguous
    rows = min(_CHUNK, counts.m)
    uniforms = np.empty(rows if is_global else (rows, n_bobs))
    flags = np.empty(uniforms.shape, dtype=bool, order="F")

    def below(stream: np.random.Generator, rounds: int, threshold: float) -> np.ndarray:
        return np.less(stream.random(out=uniforms[:rounds]), threshold, out=flags[:rounds])

    ab_errors = np.zeros(n_bobs, dtype=np.int64)
    z_errors = 0
    for rounds in _chunks(counts.m, _CHUNK):
        if is_global:
            noisy = below(z_stream, rounds, nu)
            bits = z_stream.integers(0, 2, size=(rounds, n_bobs), dtype=np.uint8)
            discord = bits.view(bool)[noisy]  # noiseless rounds never disagree
        else:
            discord = below(z_stream, rounds, nu / 2.0)
        any_bob = np.zeros(len(discord), dtype=bool)
        for bob in range(n_bobs):
            ab_errors[bob] += np.count_nonzero(discord[:, bob])
            any_bob |= discord[:, bob]
        z_errors += int(np.count_nonzero(any_bob))

    x_errors = 0
    for rounds in _chunks(x_rounds, _CHUNK):
        if is_global:
            noisy = below(x_stream, rounds, nu)
            bits = x_stream.integers(0, 2, size=rounds, dtype=np.uint8)
            x_errors += int(np.count_nonzero(bits[noisy]))
        else:
            flips = below(x_stream, rounds, nu / 2.0)
            parity = np.zeros(rounds, dtype=bool)
            for bob in range(n_bobs):
                parity ^= flips[:, bob]
            x_errors += int(np.count_nonzero(parity))

    return SimulationReport(
        ab_errors=tuple(int(e) for e in ab_errors),
        ab_rounds=counts.m,
        x_errors=x_errors,
        x_rounds=x_rounds,
        z_errors=z_errors if six else None,
        z_rounds=counts.m if six else None,
        key_rounds=counts.n,
        seed=seed,
    )


def _ghz_density(parties: int) -> np.ndarray:
    dim = 2**parties
    vec = np.zeros(dim)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec)


def _single_qubit_op(op: np.ndarray, qubit: int, parties: int) -> np.ndarray:
    full = np.array([[1.0]], dtype=complex)
    for q in range(parties):
        full = np.kron(full, op if q == qubit else np.eye(2))
    return full


def exact_marginals(scenario: NoiseScenario) -> MarginalProbabilities:
    """Density-matrix oracle for the closed-form probabilities, N <= 5.

    Builds the full 2^N x 2^N state (qubit 0 is Alice, most significant
    bit), measures Z on every qubit for p_ab and p_z, and X on every qubit
    (via a Hadamard rotation) for the parity error p_x.
    """
    parties = scenario.parties
    if parties > 5:
        raise ValueError(f"dense oracle supports N <= 5, got {parties}")
    nu = scenario.nu
    dim = 2**parties
    rho = _ghz_density(parties).astype(complex)
    if scenario.model is NoiseModel.GLOBAL_DEPOLARIZING:
        rho = (1.0 - nu) * rho + nu * np.eye(dim) / dim
    else:
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for bob_qubit in range(1, parties):
            kraus = [_single_qubit_op(p, bob_qubit, parties) for p in paulis]
            rho = (1.0 - 0.75 * nu) * rho + (nu / 4.0) * sum(
                k @ rho @ k.conj().T for k in kraus
            )

    z_probs = np.real(np.diag(rho))
    idx = np.arange(dim)
    alice = (idx >> (parties - 1)) & 1
    p_ab_list = []
    any_discord = np.zeros(dim, dtype=bool)
    for bob in range(1, parties):
        discord = alice != ((idx >> (parties - 1 - bob)) & 1)
        p_ab_list.append(float(z_probs[discord].sum()))
        any_discord |= discord
    p_z = float(z_probs[any_discord].sum())
    spread = max(p_ab_list) - min(p_ab_list)
    if spread > 1e-9:
        raise RuntimeError(f"per-Bob asymmetry {spread} in a symmetric model")

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rot = np.array([[1.0]])
    for _ in range(parties):
        rot = np.kron(rot, hadamard)
    x_probs = np.real(np.diag(rot @ rho @ rot.T))
    odd_parity = np.array([bin(j).count("1") % 2 == 1 for j in range(dim)])
    p_x = float(x_probs[odd_parity].sum())

    return MarginalProbabilities(p_ab=p_ab_list[0], p_x=p_x, p_z=p_z)


@dataclass(frozen=True)
class SamplingLemmaReport:
    """Empirical violation counts for the three tail inequalities.

    ``two_sided``: 0.5 |Lambda_n - Lambda_m| > xi(eps, n, m), bound 2 eps;
    ``upper``:     Lambda_n > Lambda_m + 2 xi(eps, n, m),     bound eps;
    ``lower``:     Lambda_m > Lambda_n + 2 xi(eps, m, n),     bound eps.
    """

    two_sided: int
    upper: int
    lower: int
    trials: int
    bound_two_sided: float
    bound_one_sided: float
    seed: int

    @property
    def freq_two_sided(self) -> float:
        return self.two_sided / self.trials

    @property
    def freq_upper(self) -> float:
        return self.upper / self.trials

    @property
    def freq_lower(self) -> float:
        return self.lower / self.trials


def sampling_lemma_experiment(
    big_m: int, m: int, weight: int, trials: int, eps: LogEps, seed: int
) -> SamplingLemmaReport:
    """Monte Carlo check of the sampling-without-replacement deviation bounds.

    Each trial fixes a binary string of ``big_m`` bits with the given
    Hamming weight and samples m entries without replacement; the number of
    ones seen is exactly hypergeometric, which is how it is drawn here.
    Lambda_m and Lambda_n are the relative weights of the sampled and
    remaining parts.
    """
    if not 1 <= m < big_m:
        raise ValueError(f"need 1 <= m < M, got m={m}, M={big_m}")
    if not 0 <= weight <= big_m:
        raise ValueError(f"weight must be in [0, M], got {weight}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n = big_m - m
    rng = _philox(np.random.SeedSequence(seed))
    xi_nm = xi_correction(eps, n, m)
    xi_mn = xi_correction(eps, m, n)

    two_sided = upper = lower = 0
    for batch in _chunks(trials, _CHUNK):
        ones = rng.hypergeometric(weight, big_m - weight, m, size=batch)
        lam_m = ones / m
        lam_n = (weight - ones) / n
        two_sided += int(np.sum(0.5 * np.abs(lam_n - lam_m) > xi_nm))
        upper += int(np.sum(lam_n > lam_m + 2.0 * xi_nm))
        lower += int(np.sum(lam_m > lam_n + 2.0 * xi_mn))

    return SamplingLemmaReport(
        two_sided=two_sided,
        upper=upper,
        lower=lower,
        trials=trials,
        bound_two_sided=2.0 * eps.eps,
        bound_one_sided=eps.eps,
        seed=seed,
    )


@dataclass(frozen=True)
class ECToyReport:
    """Outcome tallies of the toy one-way error-correction protocol."""

    failures: int
    aborts: int
    trials: int
    leakage_bits: int
    degenerate: bool
    seed: int

    @property
    def failure_freq(self) -> float:
        return self.failures / self.trials

    @property
    def abort_freq(self) -> float:
        return self.aborts / self.trials


def _ball_positions(key_bits: int, radius: int) -> np.ndarray:
    """1-bit positions of each offset of weight <= radius, padded with key_bits."""
    rows = [
        positions + (key_bits,) * (radius - wt)
        for wt in range(radius + 1)
        for positions in itertools.combinations(range(key_bits), wt)
    ]
    return np.array(rows, dtype=np.intp).reshape(len(rows), radius)


def ec_toy_run(
    parties: int,
    key_bits: int,
    q: float,
    eps_ec: LogEps,
    radius: int,
    trials: int,
    seed: int,
) -> ECToyReport:
    """Desk-scale run of the hash-then-guess one-way EC protocol.

    Alice's key x is uniform on {0,1}^key_bits; each Bob holds x corrupted
    by a binary symmetric channel of flip rate q.  Each Bob's candidate set
    is the Hamming ball of the given radius around his key -- a truncated
    stand-in for the support of his conditional key distribution, chosen so
    abort events stay observable at desk scale.  Alice hashes with a fresh
    uniformly random binary matrix of

        z_EC = ceil(log2 |ball| + log2(N-1) + log2(1/eps_EC))

    rows (a two-universal family) and sends the matrix and hash; each Bob
    guesses uniformly among his ball members matching the hash, or aborts
    if none match.  Failure counts trials where no Bob aborted yet some Bob
    guessed wrong; the design guarantees that frequency is at most eps_EC.
    """
    if key_bits > 20:
        raise ValueError(f"exhaustive enumeration capped at 20 bits, got {key_bits}")
    if not 0 <= radius <= key_bits:
        raise ValueError(f"radius must be in [0, key_bits], got {radius}")
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"q must be in [0, 1/2], got {q}")
    if parties < 2:
        raise ValueError(f"parties must be >= 2, got {parties}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")

    positions = _ball_positions(key_bits, radius)
    ball = len(positions)
    z_ec = math.ceil(math.log2(ball) + math.log2(parties - 1) + eps_ec.neg_log2)
    z_ec = max(z_ec, 1)
    if z_ec > 62:
        raise ValueError(f"hash length z_EC = {z_ec} exceeds the 62-bit packing limit")
    degenerate = z_ec >= key_bits  # the hash reveals at least the whole key

    n_bobs = parties - 1
    rng = _philox(np.random.SeedSequence(seed))

    failures = aborts = 0
    chunk_size = max(1, min(trials, (1 << 21) // max(ball, 1)))
    for batch in _chunks(trials, chunk_size):
        # x itself never needs sampling: everything below depends only on the
        # Bob-noise difference vectors, and the hash is linear
        flips = rng.random((batch, n_bobs, key_bits)) < q
        noise_wt = flips.sum(axis=2)

        # hash matrix per trial, stored column-wise: f(v) = XOR of columns at v's 1-bits
        cols = rng.integers(0, 1 << z_ec, size=(batch, key_bits), dtype=np.uint64)
        f_noise = np.bitwise_xor.reduce(np.where(flips, cols[:, None, :], np.uint64(0)), axis=2)
        # one row of hashes per ball offset, the XOR of the ``radius`` hash
        # columns its position-table row names; padding slots name the
        # appended zero column, so every offset takes the same ``radius`` passes
        hash_cols = np.concatenate([cols.T, np.zeros((1, batch), dtype=np.uint64)])
        f_offsets = np.zeros((ball, batch), dtype=np.uint64)
        for slot in positions.T:
            f_offsets ^= hash_cols[slot]

        # candidate x^v with v = noise ^ offset survives iff F v = 0,
        # i.e. f(offset) == f(noise)
        n_hits = (f_offsets == f_noise.T[:, None, :]).sum(axis=1).T
        x_in_ball = noise_wt <= radius
        n_wrong = n_hits - x_in_ball.astype(np.int64)

        abort_bob = n_hits == 0
        abort_trial = abort_bob.any(axis=1)
        guess_wrong = (~abort_bob) & (
            rng.random((batch, n_bobs)) < n_wrong / np.maximum(n_hits, 1)
        )
        failure_trial = (~abort_trial) & guess_wrong.any(axis=1)

        aborts += int(abort_trial.sum())
        failures += int(failure_trial.sum())

    return ECToyReport(
        failures=failures,
        aborts=aborts,
        trials=trials,
        leakage_bits=z_ec,
        degenerate=degenerate,
        seed=seed,
    )
