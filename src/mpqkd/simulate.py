"""Ground-truth engines: Monte Carlo round sampling, an exact density-matrix
oracle for small N, a sampling-without-replacement tail-bound experiment,
and a desk-scale one-way error-correction protocol.

All randomness flows through a counter-based Philox generator seeded from a
single integer; sub-experiments draw from spawned child streams, so a report
is reproducible bit-for-bit from (seed, parameters) and tallies merged from
batches are order-independent integer sums.

``simulate_rounds`` is defined by ``Generator.random`` and
``Generator.integers(0, 2, dtype=np.uint8)`` draws, but tallies the raw words
behind them, by three identities:

* ``random()`` is ``(next64 >> 11) * 2**-53``, so ``random() < t`` exactly
  when ``next64 < ceil(t * 2**53) << 11``, and for every word when
  ``ceil(t * 2**53) == 2**53``; ``bit_generator.random_raw`` consumes
  ``next64`` as ``random()`` does.
* ``integers(0, 2, k, dtype=np.uint8)`` returns the top bit of each byte,
  low byte first, of ``ceil(k / 4)`` successive ``next_uint32`` words.
  ``next_uint32`` returns the low half of a fresh raw word and then its high
  half, so a draw that starts on a whole raw word reads the little-endian
  bytes of ``ceil(k / 8)`` successive raw words.
* The stream after ``w`` raw words is ``Philox(seed).advance(w // 4)`` with
  ``w % 4`` more words drawn and dropped: each step of the Philox counter
  makes four words, and ``advance`` empties the four-word buffer.

The local model's flags are one C-order sequence per pass.  The global model
draws ``_CHUNK`` rounds' noise flags, then their outcome bits, so ``_CHUNK``
fixes the draw order and is part of the definition of its counts.  Every
chunk and every block starts on a whole raw word: ``_BLOCK % 8 == 0`` and
``_CHUNK % _BLOCK == 0``.  So every chunk but a pass's last draws whole raw
words of outcomes, and the streams of any chunk or block are positioned by
the third identity alone, with no half-word carried between draws.

Every pass is split into contiguous segments of ``_BLOCK``-row blocks, one
per usable CPU at most, and each segment is tallied on its own thread from
streams positioned at its first word.  Tallies are integer sums, so the
counts are the same for any partition, and ``_BLOCK`` changes no count.  Each
thread holds a block's scratch of its own, so the peak memory grows with the
number of usable CPUs.  A global-model chunk is read a block at a time from
two streams, one over its noise words and one over its outcome words.

Each function that uses numpy imports it itself, so ``import mpqkd`` loads
no numpy; it loads on the first Monte Carlo or oracle call.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from .finite_key import Protocol, ProtocolConfig, derive_counts
from .noise import MarginalProbabilities, NoiseModel, NoiseScenario, ObservedStats
from .numerics import LogEps, xi_correction

if TYPE_CHECKING:
    import numpy as np

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
_BLOCK = 1 << 14


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
    import numpy as np
    return np.random.Generator(np.random.Philox(seed_seq))


def _stream(seed_seq: np.random.SeedSequence, word: int) -> np.random.Generator:
    """``seed_seq``'s Philox stream after its first ``word`` raw words, by the
    third identity above."""
    import numpy as np
    bit_gen = np.random.Philox(seed_seq).advance(word // 4)
    bit_gen.random_raw(word % 4)
    return np.random.Generator(bit_gen)


def _chunks(total: int, size: int) -> Iterator[int]:
    """Batch sizes that cover ``total`` items, ``size`` at a time."""
    for start in range(0, total, size):
        yield min(size, total - start)


def _below(stream: np.random.Generator, shape: Tuple[int, ...], threshold: float) -> np.ndarray:
    """``stream.random(shape) < threshold`` by the first identity above, laid
    out column-major so that each Bob's column is contiguous."""
    import numpy as np
    words = stream.bit_generator.random_raw(math.prod(shape)).reshape(shape)
    scaled = math.ceil(threshold * 2.0**53)
    if scaled >= 1 << 53:  # every word is below; 2**64 does not fit a uint64
        return np.ones(shape, dtype=bool, order="F")
    # comparing in the words' order and then reordering the one-byte flags is
    # faster than writing the flags column-major from the eight-byte words
    return np.asfortranarray(words < np.uint64(scaled << 11))


def _bytes(stream: np.random.Generator, count: int) -> np.ndarray:
    """The first ``count`` little-endian bytes of ``stream``'s next
    ``ceil(count / 8)`` raw words; by the second identity above, their top
    bits are ``uint8`` coin flips."""
    import numpy as np
    words = stream.bit_generator.random_raw(-(-count // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:count]


def _tally_columns(flags: np.ndarray, per_column: np.ndarray) -> int:
    """Add each column's count of set flags to ``per_column``; return the
    number of rows with any flag set."""
    import numpy as np
    any_set = np.zeros(len(flags), dtype=bool)
    for col in range(flags.shape[1]):
        per_column[col] += np.count_nonzero(flags[:, col])
        any_set |= flags[:, col]
    return int(np.count_nonzero(any_set))


_Tally = Tuple["np.ndarray", int]  # per-column counts, rows counted


def _tally_local(
    seed_seq: np.random.SeedSequence,
    threshold: float,
    width: int,
    parity: bool,
    lo: int,
    hi: int,
) -> _Tally:
    """Rows ``lo:hi`` of a local-model pass: ``width`` flip flags per row, one
    C-order sequence, read ``_BLOCK`` rows at a time.  Counts each column's
    flips and the rows with any flip, or with ``parity`` only the rows with an
    odd number of flips."""
    import numpy as np
    per_column = np.zeros(width, dtype=np.int64)
    rows_hit = 0
    stream = _stream(seed_seq, lo * width)
    for rows in _chunks(hi - lo, _BLOCK):
        flags = _below(stream, (rows, width), threshold)
        if parity:
            rows_hit += int(np.count_nonzero(np.logical_xor.reduce(flags, axis=1)))
        else:
            rows_hit += _tally_columns(flags, per_column)
    return per_column, rows_hit


def _tally_global(
    seed_seq: np.random.SeedSequence, threshold: float, width: int, total: int, lo: int, hi: int
) -> _Tally:
    """Rows ``lo:hi`` of a global-model pass of ``total`` rounds with ``width``
    outcome bits per round: per column, the noisy rounds whose outcome bit is
    set, and the noisy rounds with any bit set."""
    import numpy as np
    per_column = np.zeros(width, dtype=np.int64)
    rows_hit = 0
    for first in range(lo - lo % _CHUNK, hi, _CHUNK):
        rows = min(_CHUNK, total - first)
        start, stop = max(lo - first, 0), min(hi - first, rows)
        # each earlier chunk is whole, so it drew its noise words and then
        # ``_CHUNK * width / 8`` outcome words; this chunk's follow in that order
        word = first // 8 * (8 + width)
        noise = _stream(seed_seq, word + start)
        outcomes = _stream(seed_seq, word + rows + start * width // 8)
        for size in _chunks(stop - start, _BLOCK):
            noisy = _below(noise, (size,), threshold)
            bits = _bytes(outcomes, size * width).reshape(size, width)
            # noiseless rounds never disagree
            rows_hit += _tally_columns(np.compress(noisy, bits, axis=0) >= 128, per_column)
    return per_column, rows_hit


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tally_pass(tally_rows: Callable[[int, int], _Tally], total: int) -> _Tally:
    """Sum ``tally_rows(lo, hi)`` over contiguous segments of a pass's
    ``_BLOCK``-row blocks, one thread per segment."""
    from concurrent.futures import ThreadPoolExecutor  # not loaded by ``import mpqkd``

    starts = range(0, total, _BLOCK)
    workers = min(_usable_cpus(), len(starts))
    cuts = [starts[len(starts) * k // workers] for k in range(workers)] + [total]
    with ThreadPoolExecutor(workers) as pool:
        tallies = list(pool.map(tally_rows, cuts[:-1], cuts[1:]))
    return sum(t[0] for t in tallies), sum(t[1] for t in tallies)


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
    import numpy as np
    counts = derive_counts(config)
    n_bobs = scenario.parties - 1
    if scenario.parties != config.parties:
        raise ValueError("scenario and config disagree on the party count")
    z_seq, x_seq = np.random.SeedSequence(seed).spawn(2)
    nu = scenario.nu
    six = config.kind is Protocol.N_SIX_STATE
    x_rounds = counts.m_prime if six else counts.m

    if scenario.model is NoiseModel.GLOBAL_DEPOLARIZING:
        # each chunk draws its rounds' noise flags, then their outcome bits
        z_pass = functools.partial(_tally_global, z_seq, nu, n_bobs, counts.m)
        x_pass = functools.partial(_tally_global, x_seq, nu, 1, x_rounds)
    else:
        # one flip flag per (round, Bob), drawn in C order
        z_pass = functools.partial(_tally_local, z_seq, nu / 2.0, n_bobs, False)
        x_pass = functools.partial(_tally_local, x_seq, nu / 2.0, n_bobs, True)
    ab_errors, z_errors = _tally_pass(z_pass, counts.m)
    _, x_errors = _tally_pass(x_pass, x_rounds)

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
    import numpy as np
    dim = 2**parties
    vec = np.zeros(dim)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec)


def _single_qubit_op(op: np.ndarray, qubit: int, parties: int) -> np.ndarray:
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    for batch in _chunks(trials, _BLOCK):
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
    import numpy as np
    rows = [
        positions + (key_bits,) * (radius - wt)
        for wt in range(radius + 1)
        for positions in itertools.combinations(range(key_bits), wt)
    ]
    return np.array(rows, dtype=np.intp).reshape(len(rows), radius)


EC_HASH_LIMIT = 62  # bits of z_EC that the hash columns' uint64 packing holds


def ec_hash_length(parties: int, key_bits: int, radius: int, eps_ec: LogEps) -> int:
    """z_EC = max(ceil(log2 |ball| + log2(N-1) + log2(1/eps_EC)), 1) hash bits."""
    ball = sum(math.comb(key_bits, wt) for wt in range(radius + 1))
    return max(math.ceil(math.log2(ball) + math.log2(parties - 1) + eps_ec.neg_log2), 1)


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
    import numpy as np
    if not 0 <= key_bits <= 20:  # exhaustive enumeration
        raise ValueError(f"key_bits must be in [0, 20], got {key_bits}")
    if not 0 <= radius <= key_bits:
        raise ValueError(f"radius must be in [0, key_bits], got {radius}")
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"q must be in [0, 1/2], got {q}")
    if parties < 2:
        raise ValueError(f"parties must be >= 2, got {parties}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")

    z_ec = ec_hash_length(parties, key_bits, radius, eps_ec)
    if z_ec > EC_HASH_LIMIT:
        raise ValueError(f"hash length z_EC = {z_ec} exceeds the {EC_HASH_LIMIT}-bit packing limit")
    positions = _ball_positions(key_bits, radius)
    ball = len(positions)
    degenerate = z_ec >= key_bits  # the hash reveals at least the whole key

    n_bobs = parties - 1
    rng = _philox(np.random.SeedSequence(seed))

    failures = aborts = 0
    chunk_size = max(1, min(trials, (1 << 21) // max(ball, 1)))
    # offsets per slice of the hash table, about 2**16 hashes (512 KB) each
    slice_rows = max(1, (1 << 16) // chunk_size)
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
        # candidate x^v with v = noise ^ offset survives iff F v = 0,
        # i.e. f(offset) == f(noise); the rows are built and compared a
        # slice of offsets at a time
        n_hits = np.zeros((n_bobs, batch), dtype=np.int64)
        for rows in np.array_split(positions, -(-ball // slice_rows)):
            # from the first slot's row; at radius 0 the table has no slots
            # and the one offset, 0, hashes to 0
            if radius:
                f_offsets = hash_cols[rows[:, 0]]
            else:
                f_offsets = np.zeros((len(rows), batch), dtype=np.uint64)
            for slot in rows.T[1:]:
                f_offsets ^= hash_cols[slot]
            for bob in range(n_bobs):
                n_hits[bob] += np.count_nonzero(f_offsets == f_noise[:, bob], axis=0)
        n_hits = n_hits.T
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
