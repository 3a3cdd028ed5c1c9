"""Time evolution engines: deterministic master equations and diffusive trajectories.

Every time-independent generator is compiled once, at construction, to
the form its ``compiled`` attribute holds: a pair (G, pairs) with
G = -i H_eff and pairs a tuple of (A, B) matrices, so that

    drho/dt = K + K^dag,   K = G rho + sum_(A, B) (A rho) B.

``evolve`` propagates each snapshot interval exactly,
rho(t + Delta) = exp(L Delta) rho(t), then symmetrizes the snapshots and
validates them in one ``check_states`` call on their (T, d, d) stack,
which also gives their spectra.  Up to ``DENSE_PROPAGATOR_MAX_DIM`` it
builds the Liouvillian L once and takes this module's NumPy
scaling-and-squaring Pade ``_expm`` of it; above, it never forms L and
sums a truncated Taylor series with substeps on the d x d matrix rho,
each term one application of the compiled form.  Neither branch loads
SciPy.
``unravel`` propagates pure-state diffusive trajectories whose ensemble
mean converges to the same master equation; trajectory randomness is
keyed by (master_seed, trajectory_index) with a counter-based bit
generator, and reduction happens in fixed blocks of ``TRAJECTORY_BLOCK``
(1024) trajectories so results are bitwise reproducible for any worker
count.  Each Euler-Maruyama step advances a whole block with one matrix
product against the stacked operators (1, dt A, L_1, ..., L_m).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Operator, StateVector, check_states, symmetrize
from .errors import ConvergenceError, PhysicalityError, PositivityError

# evolve of a Caldeira-Leggett generator from a coherent state, 1 BLAS thread
# (2-core Xeon), best of 7 in each of 3-4 runs, ms at d = 8 / 12 / 16 / 20,
# dense _expm against the Taylor branch: t = 0.5 with 10 snapshots
# 1.1-1.8 / 6.0-9.0 / 27-40 / 84-135 against 1.3-2.5 / 1.5-2.9 / 3.1-5.1 / 3.6-6.1;
# t = 5 with 50 snapshots 1.2-1.6 / 5.6-7.7 / 28-46 / 87-140 against
# 7.1-11 / 15-24 / 24-34 / 28-35.  Dense wins a long run through d = 12,
# but the Taylor branch already wins a short one at d = 12.
DENSE_PROPAGATOR_MAX_DIM = 12
# Taylor branch: ~0.2 ms per unit of the bound on ||L||_1 t at d = 40; minutes here
MAX_SPARSE_NORM_TIME = 1e6
_MAX_TAYLOR_TERMS = 90
_TAYLOR_TOL_SQ = 2.0 ** -106  # (2^-53)^2, compared with squared Frobenius norms
TRAJECTORY_BLOCK = 1024  # fixed reduction granularity; never tied to worker count

# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3: the [13/13]
# Pade approximant of exp meets double precision on a 1-norm up to _THETA13;
# _PADE13 holds its coefficients b_0..b_13
_THETA13 = 5.371920351148152
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


@dataclass(frozen=True)
class LindbladSpec:
    """Diagonal-form master equation: Hamiltonian plus (operator, rate) pairs.

    Rates are nonnegative and carry units of inverse time; the generator is
      drho/dt = -i[H, rho] + sum_k kappa_k (L rho L^dag - {L^dag L, rho}/2),
    compiled to G = -iH - (1/2) sum_k kappa_k L^dag L with pairs (L, (kappa_k/2) L^dag).
    Lindblad form is completely positive, hence the tight positivity tolerance.
    """

    positivity_tol = 1e-6  # eigenvalue floor of the snapshots; a class constant, not a field

    hamiltonian: Operator
    lindblad_terms: tuple[tuple[Operator, float], ...] = ()

    def __post_init__(self):
        if not self.hamiltonian.is_hermitian():
            raise ValueError("hamiltonian must be Hermitian within 1e-10")
        terms = []
        for op, rate in self.lindblad_terms:
            if op.dim != self.hamiltonian.dim:
                raise ValueError("Lindblad operator dimension does not match Hamiltonian")
            if rate < 0:
                raise ValueError(f"rates must be nonnegative, got {rate}")
            terms.append((op, float(rate)))
        object.__setattr__(self, "lindblad_terms", tuple(terms))
        # the compiled form, built once; not a field, so eq/repr are unchanged.
        # A rate near the double range overflows it to inf entries, which
        # evolve and unravel each report as one numerical-contract error.
        g = -1j * self.hamiltonian.entries
        with np.errstate(over="ignore", invalid="ignore"):
            for op, rate in terms:
                g -= 0.5 * rate * (op.entries.conj().T @ op.entries)
            pairs = tuple((op.entries, 0.5 * rate * op.entries.conj().T) for op, rate in terms)
        object.__setattr__(self, "compiled", (g, pairs))

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


@dataclass(frozen=True)
class EvolutionResult:
    """Snapshot times (T,), validated read-only states (T, d, d) and their eigenvalues (T, d)."""

    times: np.ndarray
    states: np.ndarray
    spectra: np.ndarray


def compiled_rhs(compiled, rho: np.ndarray) -> np.ndarray:
    """K + K^dag with K = G rho + sum (A rho) B, for ``compiled`` = (G, pairs) and Hermitian rho."""
    g, pairs = compiled
    k = g @ rho
    for a, b in pairs:
        k += (a @ rho) @ b
    return k + k.conj().T


def fixed_step_count(t_final: float, dt: float, store_every: int) -> int:
    """Steps of a fixed-step run, after checking its parameters; 0 when t_final is 0."""
    if not (0.0 < dt < np.inf and 0.0 <= t_final < np.inf):
        raise ValueError(f"need finite dt > 0 and t_final >= 0, got dt={dt}, t_final={t_final}")
    if store_every < 1:
        raise ValueError(f"need store_every >= 1, got {store_every}")
    return max(1, int(round(t_final / dt))) if t_final > 0 else 0


def _rk4_step(rhs, rho: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * dt * k1)
    k3 = rhs(rho + 0.5 * dt * k2)
    k4 = rhs(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def liouvillian(compiled) -> np.ndarray:
    """Dense L with vec(drho/dt) = L vec(rho), vec the row-major flattening.

    vec(A X B) = (A kron B^T) vec(X), so for ``compiled`` = (G, pairs)
    L = G kron 1 + 1 kron conj(G) + sum (A kron B^T + B^dag kron conj(A)).
    """
    g, pairs = compiled
    one = np.eye(g.shape[0])
    out = np.kron(g, one) + np.kron(one, g.conj())
    for a, b in pairs:
        out = out + np.kron(a, b.T) + np.kron(b.conj().T, a.conj())
    return out


def liouvillian_norm_bound(compiled) -> float:
    """2 ||G||_1 + 2 sum ||A||_1 ||B||_inf, an upper bound on ||L||_1 that never forms L.

    Each Kronecker term of ``liouvillian`` has ||X kron Y||_1 = ||X||_1 ||Y||_1,
    and ||B^T||_1 = ||B^dag||_1 = ||B||_inf.
    """
    g, pairs = compiled
    bound = 2.0 * abs(g).sum(axis=0).max()
    for a, b in pairs:
        bound += 2.0 * abs(a).sum(axis=0).max() * abs(b).sum(axis=1).max()
    return float(bound)


def _taylor_propagate(compiled, rho: np.ndarray, h: float, norm: float) -> np.ndarray:
    """exp(L h) rho for Hermitian rho, with ``norm`` >= ||L||_1 finite, without forming L.

    s = ceil(norm h / 2) substeps of tau = h / s each sum the Taylor series
    term_k = (tau / k) L(term_(k-1)) until two successive terms fall below
    2^-53 of the running sum in Frobenius norm (the scheme of
    ``expm_multiply``: Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
    Each L(term) is one product of the stacked [G; A_1; ...] with term and
    one product per pair; every term stays exactly Hermitian.
    """
    g, pairs = compiled
    d = g.shape[0]
    stacked = np.vstack([g, *(a for a, _ in pairs)])
    s = max(1, math.ceil(norm * h / 2.0))
    tau = h / s
    for _ in range(s):
        acc = rho.copy()
        term = rho
        small = False
        # tau ||L||_1 <= 2, so term k is at most 2^k / k! of rho, below 1e-100
        # by k = 90; the cap ends the loop on non-finite terms
        for k in range(1, _MAX_TAYLOR_TERMS + 1):
            prod = stacked @ term
            term = prod[:d]  # becomes K = G term + sum (A term) B, then K + K^dag
            for j, (_, b) in enumerate(pairs, 1):
                term += prod[j * d:(j + 1) * d] @ b
            term += term.conj().T
            term *= tau / k
            acc += term
            was_small = small
            small = np.vdot(term, term).real <= _TAYLOR_TOL_SQ * np.vdot(acc, acc).real
            if small and was_small:
                break
        rho = acc
    return rho


def _expm(a: np.ndarray, norm: float) -> np.ndarray:
    """exp(a) for a square array whose 1-norm ``norm`` is finite.

    A diagonal a (pure dephasing in the Hamiltonian's eigenbasis) takes the
    exact elementwise exponential.  Otherwise scaling and squaring (Higham
    2005): the degree-13 Pade approximant of a / 2^s, with s the fewest
    halvings that bring the norm under theta_13, followed by s squarings.
    Powers are formed only after the scaling, so a finite norm cannot
    overflow them.  The approximant is evaluated as I + 2 (V - U)^-1 U
    rather than (V - U)^-1 (V + U): a zero column of a (a stationary basis
    state) then stays an exact column of I, instead of carrying a rounding
    error that the squarings amplify 2^s-fold.
    """
    diag = a.diagonal()
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    b = _PADE13
    ident = np.eye(a.shape[0])
    s = max(0, int(np.ceil(np.log2(norm / _THETA13))))
    a = a * 2.0 ** -s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    out = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        out = out @ out
    return out


def evolve(
    generator,
    rho0: DensityMatrix,
    t_final: float,
    dt: float,
    store_every: int = 1,
) -> EvolutionResult:
    """Exact propagation of a compiled master-equation generator between snapshots.

    ``generator`` exposes ``compiled`` = (G, pairs), ``dim`` and
    ``positivity_tol``.  Snapshots land at every ``store_every``-th multiple
    of dt and at round(t_final / dt) dt; dt sets only this grid.  The
    snapshots are validated together by one ``check_states`` call with the
    positivity tolerance as eigenvalue floor; a violation raises
    PositivityError naming the first failing time.
    """
    n_steps = fixed_step_count(t_final, dt, store_every)
    if rho0.dim != generator.dim:
        raise ValueError("initial state dimension does not match the generator")
    ptol = generator.positivity_tol
    d = generator.dim
    n_uniform, rest = divmod(n_steps, store_every)
    n_snapshots = 1 + n_uniform + int(rest > 0)
    try:
        states = np.empty((n_snapshots, d, d), dtype=complex)
    except (MemoryError, ValueError):  # too large to allocate, or to address at all
        raise ValueError(f"{n_snapshots:.3g} snapshots of a {d}x{d} state do not fit "
                         "in memory; raise dt or store_every") from None
    states[0] = rho0.entries
    dense = d <= DENSE_PROPAGATOR_MAX_DIM
    # rates near the double range overflow L, or the bound on its norm;
    # that is caught once here
    with np.errstate(over="ignore", invalid="ignore"):
        if dense:
            lv = liouvillian(generator.compiled)
            norm = abs(lv).sum(axis=0).max()  # ||L||_1
        else:
            norm = liouvillian_norm_bound(generator.compiled)
        norm_time = norm * (n_steps * dt)
    if not np.isfinite(norm_time):
        raise ConvergenceError("||L||_1 t overflows a double; the generator is too large "
                               "to propagate")
    if not dense and norm_time > MAX_SPARSE_NORM_TIME:
        raise ConvergenceError(f"||L||_1 t = {norm_time:.3g} is too stiff to propagate")
    rho = symmetrize(rho0.entries)
    done = 1
    # a propagation that overflows leaves non-finite snapshots, which
    # check_states reports as one error instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # (stride, count): the uniform snapshot grid, then a shorter last interval
        for stride, count in ((store_every, n_uniform), (rest, int(rest > 0))):
            h = stride * dt
            if count and dense:
                prop = _expm(h * lv, norm * h)
            for i in range(done, done + count):
                if dense:
                    rho = (prop @ rho.reshape(-1)).reshape(d, d)
                else:
                    rho = _taylor_propagate(generator.compiled, rho, h, norm)
                states[i] = rho
            done += count
        states[1:] = symmetrize(states[1:])
    times = np.minimum(np.arange(len(states)) * store_every, n_steps) * dt
    # rho0 was validated as a DensityMatrix; the snapshots inherit the
    # generator's positivity tolerance, since a non-CP generator
    # transiently dips below the strict floor
    try:
        spectra = check_states(states[1:], -ptol, times[1:])
    except PhysicalityError as exc:
        raise PositivityError(str(exc)) from None
    spectra = np.concatenate([rho0.spectrum[None], spectra])
    for arr in (times, states, spectra):
        arr.setflags(write=False)
    return EvolutionResult(times, states, spectra)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Stochastic run description; all trajectories share dt and t_final."""

    dt: float
    t_final: float
    n_trajectories: int
    master_seed: int

    def __post_init__(self):
        if not (0.0 < self.dt < np.inf and 0.0 < self.t_final < np.inf):
            raise ValueError(
                f"need finite dt > 0 and t_final > 0, got dt={self.dt}, t_final={self.t_final}"
            )
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


@dataclass(frozen=True)
class TrajectoryResult:
    """Snapshot times (T,), validated read-only ensemble means (T, d, d), final states."""

    times: np.ndarray
    ensemble: np.ndarray
    final_states: np.ndarray  # (n_trajectories, dim) unit vectors, index order


def _block_noise(master_seed: int, indices: range, n_steps: int, n_ops: int) -> np.ndarray:
    """Standard normals, shape (len(indices), n_steps, n_ops); trajectory i keyed by (master_seed, i).

    One Philox bit generator is rekeyed per trajectory by resetting its
    state, which yields exactly the stream of a fresh
    ``Philox(key=[master_seed, i])`` without building one per trajectory.
    """
    bitgen = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # zero counter, empty buffer
    key = fresh["state"]["key"]
    noise = np.empty((len(indices), n_steps, n_ops))
    for row, index in zip(noise, indices):
        key[1] = index
        bitgen.state = fresh
        rng.standard_normal(out=row)
    return noise


def _real_form(mat: np.ndarray) -> np.ndarray:
    """Real matrix acting on (Re psi, Im psi) stacked as one vector, as ``mat`` acts on psi."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _unravel_block(
    stacked: np.ndarray,
    rates: np.ndarray,
    psi0: np.ndarray,
    cfg: TrajectoryConfig,
    indices: range,
    sample_steps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for one block of trajectories; returns (snapshot sums, final states).

    With A = -iH - (1/2) sum_mu kappa_mu L_mu^2, e_mu = <psi|L_mu|psi> and
    w_mu = sqrt(kappa_mu) dW_mu, one step is
      psi' = s psi + dt A psi + sum_mu c_mu L_mu psi,
      c_mu = dt kappa_mu e_mu + w_mu,
      s = 1 - sum_mu (dt kappa_mu e_mu^2 / 2 + w_mu e_mu),
    followed by renormalization.  ``stacked`` holds the real forms of
    (1, dt A, L_1, ..., L_m) one above the other, so one matrix product
    gives every term and psi' is their sum weighted by (s, 1, c_1, ..., c_m).
    States are kept as columns (Re psi; Im psi), so every elementwise
    operation runs along the block's trajectories.
    """
    dt, n_steps = cfg.dt, cfg.n_steps
    b, d, m = len(indices), psi0.size, rates.size
    noise = _block_noise(cfg.master_seed, indices, n_steps, m)
    noise *= np.sqrt(dt * rates)
    dt_rates = (dt * rates)[:, None]
    half_dt_rates = 0.5 * dt_rates
    psi = np.repeat(np.concatenate([psi0.real, psi0.imag])[:, None], b, axis=1)
    weights = np.ones((m + 2, b))
    sums = np.empty((sample_steps.size, d, d), dtype=complex)

    def ensemble_sum(psi):
        z = psi[:d] + 1j * psi[d:]
        return np.einsum("ib,jb->ij", z, z.conj())

    pos = 0
    if sample_steps[pos] == 0:
        sums[pos] = ensemble_sum(psi)
        pos += 1
    # a blown-up ensemble turns into inf/nan here silently; the ensemble
    # validation in ``unravel`` reports it as one error
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for step in range(n_steps):
            terms = (stacked @ psi).reshape(m + 2, 2 * d, b)
            # Re <psi|L_mu psi> is the real dot product of the stacked columns
            expect = np.einsum("mkb,kb->mb", terms[2:], psi)
            coef = weights[2:]  # c_mu, written in place
            np.multiply(dt_rates, expect, out=coef)
            coef += noise[:, step].T
            weights[0] = 1.0 - np.einsum("mb,mb->b", coef - half_dt_rates * expect, expect)
            psi = np.einsum("mb,mkb->kb", weights, terms)
            psi /= np.sqrt(np.einsum("kb,kb->b", psi, psi))
            if pos < sample_steps.size and sample_steps[pos] == step + 1:
                sums[pos] = ensemble_sum(psi)
                pos += 1
    return sums, (psi[:d] + 1j * psi[d:]).T


def unravel(
    spec: LindbladSpec,
    psi0: StateVector,
    cfg: TrajectoryConfig,
    store_every: int = 1,
    n_workers: int | None = None,
) -> TrajectoryResult:
    """Diffusive pure-state unraveling of a Lindblad equation with Hermitian operators.

    Euler-Maruyama steps with per-step renormalization; the ensemble
    average over trajectories reproduces ``evolve`` up to O(dt) bias and
    O(1/sqrt(n)) statistics.  Identical master seeds give bitwise
    identical ensembles for any worker count.
    """
    for op, _ in spec.lindblad_terms:
        if not op.is_hermitian():
            raise ValueError("diffusive unraveling is implemented for Hermitian operators only")
    if psi0.dim != spec.dim:
        raise ValueError("initial state dimension does not match the generator")
    if n_workers is None:
        env = os.environ.get("DECOSIM_WORKERS", "1")
        try:
            n_workers = int(env)
        except ValueError:
            raise ValueError(f"DECOSIM_WORKERS must be an integer, got {env!r}") from None
    if n_workers < 1:
        raise ValueError(f"need n_workers >= 1, got {n_workers}")
    if store_every < 1:
        raise ValueError(f"need store_every >= 1, got {store_every}")
    n_steps = cfg.n_steps
    sample_steps = np.unique(
        np.concatenate([np.arange(0, n_steps + 1, store_every), [n_steps]])
    )
    rates = np.array([rate for _, rate in spec.lindblad_terms], dtype=float)
    a = spec.compiled[0]  # -iH - (1/2) sum kappa L^dag L, and L^dag L = L^2 for Hermitian L
    with np.errstate(invalid="ignore"):  # an overflowed a gives NaN, reported after the steps
        stacked = np.vstack(
            [np.eye(2 * spec.dim), _real_form(cfg.dt * a)]
            + [_real_form(op.entries) for op, _ in spec.lindblad_terms]
        )
    blocks = [
        range(lo, min(lo + TRAJECTORY_BLOCK, cfg.n_trajectories))
        for lo in range(0, cfg.n_trajectories, TRAJECTORY_BLOCK)
    ]

    def run(block):
        return _unravel_block(stacked, rates, psi0.amplitudes, cfg, block, sample_steps)

    if n_workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(block) for block in blocks]

    total = np.zeros((sample_steps.size, spec.dim, spec.dim), dtype=complex)
    finals = np.zeros((cfg.n_trajectories, spec.dim), dtype=complex)
    for block, (sums, last) in zip(blocks, results):  # fixed block order
        total += sums
        finals[block.start : block.stop] = last
    total /= cfg.n_trajectories
    times = sample_steps * cfg.dt
    ensemble = symmetrize(total)
    check_states(ensemble, times=times)
    ensemble.setflags(write=False)
    return TrajectoryResult(times, ensemble, finals)
