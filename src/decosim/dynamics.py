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
sums truncated Taylor series on the d x d matrix rho, each term one
application of the compiled form.  One series, a window, reaches
||L||_1 tau = _TAYLOR_THETA (8) and is summed until two successive terms
fall below 2^-53 of its far-end sum; every snapshot inside the window is
read off the same terms, and a snapshot beyond one reach takes equal
substeps.  Neither branch loads SciPy.
``unravel`` propagates pure-state diffusive trajectories whose ensemble
mean converges to the same master equation.  Trajectories run in fixed
blocks of ``TRAJECTORY_BLOCK`` (2048), and block k draws its Wiener
increments from its own stream,
``SFC64(SeedSequence(master_seed, spawn_key=(k,)))``, so results are
bitwise reproducible for any worker count (``n_workers`` threads, 1 by
default) and a full block never depends on the ensemble size.  Each
Euler-Maruyama step advances a whole block with one matrix product
against the stacked operators (L_1, ..., L_m, dt A) and one contraction
for the norm and expectations, and reads its increments from a step-major chunk that
holds one renormalization period: the block's stream fills it when the
period starts, and it is scaled by sqrt(dt kappa) in place, so the
noise memory does not grow with the number of steps.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, EvolutionResult, Operator, StateVector, check_states, symmetrize
from .errors import ConvergenceError, PhysicalityError, PositivityError

# evolve of a Caldeira-Leggett generator from a coherent state, 1 BLAS thread
# (2-core Xeon), best of 7 in each of 3 runs, ms at d = 8 / 12 / 16 / 20,
# dense _expm against the windowed Taylor branch: t = 0.5 with 10 snapshots
# 1.2-1.7 / 8.2-9.7 / 30-37 / 93-132 against 0.8-1.3 / 1.1-1.7 / 1.7-2.3 / 2.4-3.6;
# t = 5 with 50 snapshots 1.5-2.3 / 7.4-11 / 31-33 / 97-128 against
# 4.8-8.1 / 9.4-14 / 12-15 / 15-23.  Dense wins a long run at d = 8 and about
# ties one at d = 12; the Taylor branch wins a short one from d = 8 up.  Above
# d = 9 OpenBLAS threads the LU solve of _expm, whose bits then follow the thread count.
DENSE_PROPAGATOR_MAX_DIM = 9
# Taylor branch: ~0.08 ms per unit of the bound on ||L||_1 t at d = 40, on
# intervals of many substeps; about a minute and a half here
MAX_SPARSE_NORM_TIME = 1e6
# reach of one Taylor expansion, ||L||_1 tau <= _TAYLOR_THETA.  Its terms can grow
# to about e^theta / sqrt(2 pi theta) of rho before they cancel: on a lowering-operator
# ladder (d = 16-32, from the top level) the snapshots err by up to 2.0e-14 at 8
# against 1.1e-13 at 10, next to expm_multiply
_TAYLOR_THETA = 8.0
_MAX_TAYLOR_TERMS = 90
_TAYLOR_TOL_SQ = 2.0 ** -106  # (2^-53)^2, compared with squared Frobenius norms
# bound on the entries of the per-term buffer that adds a term into a window's inner snapshots
_WINDOW_CHUNK_ENTRIES = 2 ** 13
# trajectories per block, each block with its own noise stream: fixes the reduction
# order and the random paths, so it is never tied to the worker count
TRAJECTORY_BLOCK = 2048
# steps between renormalizations of a trajectory, which is carried unnormalized
# in between; this bounds how far its norm grows from 1
_RENORM_EVERY = 32

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


def fixed_step_count(t_final: float, dt: float, store_every: int) -> int:
    """Steps round(t_final / dt) of a fixed-step run, after checking its parameters.

    0 when t_final is 0; a t_final > 0 that rounds to no step is refused, since
    one step would run past it.
    """
    if not (0.0 < dt < np.inf and 0.0 <= t_final < np.inf):
        raise ValueError(f"need finite dt > 0 and t_final >= 0, got dt={dt}, t_final={t_final}")
    if store_every < 1:
        raise ValueError(f"need store_every >= 1, got {store_every}")
    steps = t_final / dt
    if not np.isfinite(steps):
        raise ValueError(f"t_final / dt overflows a double, got dt={dt}, t_final={t_final}")
    n_steps = int(round(steps))
    if t_final > 0 and n_steps == 0:
        raise ValueError(f"t_final rounds to no step of dt, got dt={dt}, t_final={t_final}")
    return n_steps


def snapshot_steps(n_steps: int, store_every: int) -> np.ndarray:
    """Step indices of the snapshots: every ``store_every``-th step from 0, then the last one."""
    return np.append(np.arange(0, n_steps, store_every), n_steps)


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


def _taylor_snapshots(compiled, rho: np.ndarray, out: np.ndarray, steps: np.ndarray,
                      dt: float, norm: float) -> None:
    """out[i] = exp(L steps[i] dt) rho for Hermitian rho, with ``norm`` >= ||L||_1 finite.

    ``steps`` are positive and ascending, and L is never formed.  From the last
    state reached, one window expands to the farthest snapshot within
    reach, norm tau <= _TAYLOR_THETA: it sums P_0 = rho and
    P_k = (tau / k) L(P_(k-1)) until two successive terms fall below 2^-53
    of the far-end sum in Frobenius norm (the scheme of ``expm_multiply``:
    Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  Each snapshot
    of the window, at r = offset / tau, is written as sum_k r^k P_k
    straight into its row of ``out``; the far-end sum starts the next
    window.  A snapshot beyond one reach is the end of
    ceil(norm h / _TAYLOR_THETA) equal substeps, and only it is stored.
    Each L(P) is one product of the stacked [G; A_1; ...] with P and one
    product per pair; every term stays exactly Hermitian.
    """
    g, pairs = compiled
    d = g.shape[0]
    stacked = np.vstack([g, *(a for a, _ in pairs)])
    chunk = max(1, _WINDOW_CHUNK_ENTRIES // (d * d))

    def expand(start, rows, ratios, tau):
        # rows[-1] is the far end; the rows before it sit at ``ratios`` of tau
        rows[:] = start
        far = rows[-1]
        inner = len(ratios)
        if inner:
            weights = np.ones(inner)
            buf = np.empty((min(inner, chunk), d, d), dtype=complex)
        term = far
        small = False
        # tau ||L||_1 <= 8, so term k is at most 8^k / k! of rho, about
        # 1e-57 by k = 90; the cap ends the loop on non-finite terms
        for k in range(1, _MAX_TAYLOR_TERMS + 1):
            prod = stacked @ term
            term = prod[:d]  # becomes K = G term + sum (A term) B, then K + K^dag
            for j, (_, b) in enumerate(pairs, 1):
                term += prod[j * d:(j + 1) * d] @ b
            term += term.conj().T
            term *= tau / k
            far += term
            if inner:
                weights *= ratios
                for lo in range(0, inner, chunk):
                    part = buf[:min(chunk, inner - lo)]
                    np.multiply(weights[lo:lo + chunk, None, None], term, out=part)
                    rows[lo:lo + len(part)] += part
            was_small = small
            small = np.vdot(term, term).real <= _TAYLOR_TOL_SQ * np.vdot(far, far).real
            if small and was_small:
                break

    # snapshots one expansion reaches, in steps of dt
    reach = _TAYLOR_THETA / (norm * dt) if norm * dt > 0 else math.inf
    origin = 0
    i = 0
    while i < len(out):
        j = int(np.searchsorted(steps, origin + reach, side="right"))
        if j > i:
            span = steps[i:j] - origin
            expand(rho, out[i:j], span[:-1] / span[-1], span[-1] * dt)
        else:
            j = i + 1
            h = (steps[i] - origin) * dt
            s = max(1, math.ceil(norm * h / _TAYLOR_THETA))
            for _ in range(s):
                expand(rho, out[i:j], (), h / s)
                rho = out[i]
        rho, origin, i = out[j - 1], steps[j - 1], j


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
    try:
        steps = snapshot_steps(n_steps, store_every)
        states = np.empty((steps.size, d, d), dtype=complex)
    except (MemoryError, ValueError):  # too large to allocate, or to address at all
        raise ValueError(f"{n_steps // store_every + 1:.3g} snapshots of a {d}x{d} state do "
                         "not fit in memory; raise dt or store_every") from None
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
    # a propagation that overflows leaves non-finite snapshots, which
    # check_states reports as one error instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if dense:
            props = {}  # one propagator per distinct interval, in steps
            for i, k in enumerate(np.diff(steps).tolist(), 1):
                if k not in props:
                    props[k] = _expm(k * dt * lv, norm * (k * dt))
                states[i] = rho = (props[k] @ rho.reshape(-1)).reshape(d, d)
        else:
            _taylor_snapshots(generator.compiled, rho, states[1:], steps[1:], dt, norm)
        states[1:] = symmetrize(states[1:])
    # the snapshots inherit the generator's positivity tolerance, since a
    # non-CP generator transiently dips below the strict floor
    try:
        return EvolutionResult.checked(steps * dt, states, -ptol)
    except PhysicalityError as exc:
        raise PositivityError(str(exc)) from None


@dataclass(frozen=True)
class TrajectoryConfig:
    """Stochastic run description; all trajectories share dt and t_final.

    ``n_steps`` is set at construction from ``fixed_step_count``, the step
    rule of ``evolve``; not a field.  t_final = 0 gives no step, and
    ``unravel`` then returns the t = 0 ensemble, the mean of n copies of
    psi0 psi0^dag.
    """

    dt: float
    t_final: float
    n_trajectories: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_steps", fixed_step_count(self.t_final, self.dt, 1))
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        # every block's SeedSequence entropy, refused here rather than by a TypeError or
        # ValueError inside a worker; the upper bound keeps the documented uint64 range
        if not (isinstance(self.master_seed, numbers.Integral) and 0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class TrajectoryResult:
    """Snapshot times (T,), validated ensemble means (T, d, d), final states; all read-only."""

    times: np.ndarray
    ensemble: np.ndarray
    final_states: np.ndarray  # (n_trajectories, dim) unit vectors, index order


def _real_form(mat: np.ndarray) -> np.ndarray:
    """Real matrix acting on (Re psi, Im psi) stacked as one vector, as ``mat`` acts on psi."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _unravel_block(
    ops: np.ndarray,
    rates: np.ndarray,
    psi0: np.ndarray,
    cfg: TrajectoryConfig,
    block: int,
    b: int,
    sample_steps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama for block ``block`` of b trajectories; returns (snapshot sums, final states).

    With A = -iH - (1/2) sum_mu kappa_mu L_mu^2, n = <psi|psi>,
    e_mu = <psi|L_mu|psi> / n and w_mu = sqrt(kappa_mu) dW_mu, one step is
      psi' = s psi + dt A psi + sum_mu c_mu L_mu psi,
      q_mu = dt kappa_mu e_mu / 2,  u_mu = q_mu + w_mu,  c_mu = u_mu + q_mu,
      s = 1 - sum_mu e_mu u_mu.
    The weights depend on psi only through the e_mu, which do not change
    when psi is scaled, so the step is homogeneous of degree 1: a scaled
    psi steps to the same scaled psi'.  The state is therefore carried
    unnormalized and lies on the same ray as one renormalized every step
    (Gisin & Percival, J. Phys. A 25, 5677 (1992)); it is renormalized at
    each snapshot, at the last step and every ``_RENORM_EVERY`` steps.
    States are kept as columns (Re psi; Im psi), so every elementwise
    operation runs along the block's trajectories.  Two buffers of rows
    (psi, L_1 psi, ..., L_m psi, dt A psi) take turns: one matrix product
    against ``ops``, the real forms of (L_1, ..., L_m, dt A), fills rows 1
    and up, one contraction of rows 0..m with psi gives n and the
    <psi|L_mu|psi>, and the rows weighted by (s, c_1, ..., c_m, 1) sum to
    the next buffer's psi.  The block's normals are the first n_steps m b
    of ``SFC64(SeedSequence(master_seed, spawn_key=(block,)))``, in
    (step, mu, trajectory) order.  They are drawn one renormalization
    period at a time into a step-major chunk (steps, m, b) and scaled there
    by sqrt(dt kappa_mu), so every step reads one contiguous (m, b) slab
    and the noise memory is one period, whatever n_steps is.  Drawing
    period by period gives the same numbers as one draw of shape
    (n_steps, m, b).  Every per-step view is bound before the loop.
    """
    dt, n_steps = cfg.dt, cfg.n_steps
    d, m = psi0.size, rates.size
    seeds = np.random.SeedSequence(cfg.master_seed, spawn_key=(block,))
    rng = np.random.Generator(np.random.SFC64(seeds))
    noise_scale = np.sqrt(dt * rates)[:, None]
    chunk = np.empty((min(_RENORM_EVERY, n_steps), m, b))  # sqrt(kappa_mu) dW_mu of one period
    chunk_rows = list(chunk)
    half_dt_rates = (0.5 * dt * rates)[:, None]
    bufs = np.empty((2, m + 2, 2 * d, b))
    bufs[0, 0] = np.concatenate([psi0.real, psi0.imag])[:, None]
    # per buffer: psi, rows 0..m, rows 1 and up seen as one matmul output,
    # all rows, and the other buffer's psi, which the step writes
    views = [(buf[0], buf[: m + 1], buf.reshape(-1, b)[2 * d :], buf, other[0])
             for buf, other in ((bufs[0], bufs[1]), (bufs[1], bufs[0]))]
    dots = np.empty((m + 1, b))  # (n, <psi|L_1|psi>, ..., <psi|L_m|psi>)
    norm, overlaps = dots[0], dots[1:]
    e, q, u, eu = np.empty((4, m, b))
    weights = np.ones((m + 2, b))  # (s, c_1, ..., c_m, 1)
    s, c = weights[0], weights[1 : m + 1]
    ones = np.ones(b)
    sums = np.empty((sample_steps.size, d, d), dtype=complex)
    snapshots = set(sample_steps.tolist())

    def ensemble_sum(psi):
        z = psi[:d] + 1j * psi[d:]
        return np.einsum("ib,jb->ij", z, z.conj())

    pos = 0
    if 0 in snapshots:
        sums[pos] = ensemble_sum(views[0][0])
        pos += 1
    # a blown-up ensemble turns into inf/nan here silently; the ensemble
    # validation in ``unravel`` reports it as one error
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for step in range(1, n_steps + 1):
            k = (step - 1) % _RENORM_EVERY
            if k == 0:
                period = chunk[: n_steps - step + 1]
                rng.standard_normal(out=period)
                period *= noise_scale
            psi, head, products, rows, psi_next = views[(step - 1) & 1]
            np.matmul(ops, psi, out=products)
            np.einsum("mkb,kb->mb", head, psi, out=dots)
            np.divide(overlaps, norm, out=e)
            np.multiply(half_dt_rates, e, out=q)
            np.add(q, chunk_rows[k], out=u)
            np.add(u, q, out=c)
            np.multiply(e, u, out=eu)
            np.add.reduce(eu, axis=0, out=s)
            np.subtract(ones, s, out=s)
            np.einsum("mb,mkb->kb", weights, rows, out=psi_next)
            at_snapshot = step in snapshots
            if at_snapshot or step % _RENORM_EVERY == 0:
                psi_next /= np.sqrt(np.einsum("kb,kb->b", psi_next, psi_next))
                if at_snapshot:
                    sums[pos] = ensemble_sum(psi_next)
                    pos += 1
    psi = views[n_steps & 1][0]
    return sums, (psi[:d] + 1j * psi[d:]).T


def unravel(
    spec: LindbladSpec,
    psi0: StateVector,
    cfg: TrajectoryConfig,
    store_every: int = 1,
    n_workers: int = 1,
) -> TrajectoryResult:
    """Diffusive pure-state unraveling of a Lindblad equation with Hermitian operators.

    Euler-Maruyama steps of the unnormalized state, renormalized at
    every snapshot and every ``_RENORM_EVERY`` steps; the ensemble
    average over trajectories reproduces ``evolve`` up to O(dt) bias and
    O(1/sqrt(n)) statistics.  Trajectories lo .. lo + b - 1 with
    lo = k ``TRAJECTORY_BLOCK`` form block k, whose Wiener increments come
    from ``SFC64(SeedSequence(master_seed, spawn_key=(k,)))``; only the
    last block may be narrower.  Identical master seeds give bitwise
    identical ensembles for any worker count, and the trajectories of a
    full block do not depend on n_trajectories, but those of a partial
    last block depend on its width b.  Each block holds its noise one
    renormalization period at a time, so memory does not grow with the
    number of steps beyond the stored snapshots.  Snapshots land on
    ``evolve``'s grid, every ``store_every``-th step and the last one.
    ``n_workers`` threads run the blocks, one at a time by default.
    """
    for op, _ in spec.lindblad_terms:
        if not op.is_hermitian():
            raise ValueError("diffusive unraveling is implemented for Hermitian operators only")
    if psi0.dim != spec.dim:
        raise ValueError("initial state dimension does not match the generator")
    if n_workers < 1:
        raise ValueError(f"need n_workers >= 1, got {n_workers}")
    if store_every < 1:
        raise ValueError(f"need store_every >= 1, got {store_every}")
    sample_steps = snapshot_steps(cfg.n_steps, store_every)
    rates = np.array([rate for _, rate in spec.lindblad_terms], dtype=float)
    a = spec.compiled[0]  # -iH - (1/2) sum kappa L^dag L, and L^dag L = L^2 for Hermitian L
    with np.errstate(invalid="ignore"):  # an overflowed a gives NaN, reported after the steps
        ops = np.vstack(
            [_real_form(op.entries) for op, _ in spec.lindblad_terms] + [_real_form(cfg.dt * a)]
        )
    # allocated before any block runs, so an ensemble too large for memory is refused at once
    total = np.zeros((sample_steps.size, spec.dim, spec.dim), dtype=complex)
    finals = np.zeros((cfg.n_trajectories, spec.dim), dtype=complex)
    starts = range(0, cfg.n_trajectories, TRAJECTORY_BLOCK)

    def run(lo):
        b = min(TRAJECTORY_BLOCK, cfg.n_trajectories - lo)
        return _unravel_block(ops, rates, psi0.amplitudes, cfg, lo // TRAJECTORY_BLOCK, b,
                              sample_steps)

    if n_workers > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor  # a serial run never loads it

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, starts))
    else:
        results = map(run, starts)
    for lo, (sums, last) in zip(starts, results):  # fixed block order
        total += sums
        finals[lo : lo + len(last)] = last
    total /= cfg.n_trajectories
    times = sample_steps * cfg.dt
    ensemble = symmetrize(total)
    check_states(ensemble, times=times)
    for arr in (times, ensemble, finals):
        arr.setflags(write=False)
    return TrajectoryResult(times, ensemble, finals)
