"""Analytic peak temperature of a synchronous thread rotation (Section IV).

A rotation applies a **periodic** piecewise-constant power pattern: during
epoch ``k`` (length ``tau``) the chip sees the per-core power vector
``P_k``, and the pattern repeats with period ``delta`` epochs.  In
ambient-shifted coordinates one epoch evolves the node temperatures as

    x_{k+1} = E x_k + W P_k,      E = exp(C tau),  W = (I - E) B^{-1}

(paper Eq. 5, ``W`` is the *rotational factor* ``w``).  Because every
eigenvalue of ``C`` is negative, the epoch-boundary temperatures converge to
the unique periodic fixed point

    x_e* = sum_j E^{(e-j) mod delta} (I - E^delta)^{-1} W P_j

which is exactly the paper's Eq. (10) once ``(I - E^delta)^{-1}`` is
expanded in the eigenbasis via the geometric series of Eqs. (8)-(9).  The
peak temperature (Eq. 11) is the maximum core entry over the ``delta``
boundary vectors, plus the ambient offset.

Three implementations are provided and cross-validated in the test suite:

- :func:`rotation_fixed_point` — dense closed form (Horner accumulation +
  one linear solve);
- :class:`PeakTemperatureCalculator` — the paper's Algorithm 1: a
  design-time phase precomputing eigen-space auxiliaries, and an ``O(delta^2
  N + delta N^2)`` run-time phase, suitable for per-scheduling-decision use;
- :func:`brute_force_peak` — transient simulation over many periods
  (ground truth; used for validation only).

Boundary temperatures can slightly undershoot the continuous-time peak
within an epoch; ``within_epoch_samples`` bounds that error by sampling the
exact transient inside each epoch of the converged cycle.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .._lru import LruCache
from ..thermal.matex import ThermalDynamics
from ..thermal.rc_model import gamma

#: Bounds of the Algorithm-1 design-time caches.  The alpha tensors are
#: ``O(delta^2 N)`` each, the beta matrices ``O(N n)``; the peak memo holds
#: plain floats keyed by a power-sequence fingerprint.
_ALPHA_CACHE_SIZE = 64
_BETA_CACHE_SIZE = 64
_PEAK_CACHE_SIZE = 4096
#: Ring response tables (:meth:`PeakTemperatureCalculator.ring_responses`)
#: are ``n_cores x n_cores`` floats per (ring layout, tau): a tau ladder of
#: six intervals, rotation off and one off-ladder interval.
_RESPONSE_CACHE_SIZE = 8
#: Relative error of one float64 ``exp`` call, as NumPy's vectorised
#: implementations guarantee it (4 ulp).
_EXP_ULP_ERROR = 4 * np.finfo(float).eps


def _validate_sequence(
    dynamics: ThermalDynamics, core_power_seq: np.ndarray
) -> np.ndarray:
    seq = np.asarray(core_power_seq, dtype=float)
    if seq.ndim != 2 or seq.shape[1] != dynamics.model.n_cores:
        raise ValueError(
            f"power sequence must have shape (delta, {dynamics.model.n_cores})"
        )
    if seq.shape[0] < 1:
        raise ValueError("power sequence needs at least one epoch")
    if np.any(seq < 0):
        raise ValueError("power must be non-negative")
    return seq


def _digest(seq: np.ndarray) -> bytes:
    """BLAKE2b content digest of a validated power sequence."""
    return hashlib.blake2b(
        np.ascontiguousarray(seq).tobytes(), digest_size=16
    ).digest()


def rotation_fixed_point(
    dynamics: ThermalDynamics,
    core_power_seq: np.ndarray,
    tau_s: float,
    ambient_c: float,
) -> np.ndarray:
    """Epoch-boundary node temperatures of the converged periodic cycle.

    Returns shape ``(delta, N)`` in absolute degrees Celsius; row ``e`` is
    the temperature right after the epoch that applied ``P_e`` (i.e. the
    boundary between epochs ``e`` and ``e+1``).
    """
    seq = _validate_sequence(dynamics, core_power_seq)
    if tau_s <= 0:
        raise ValueError("epoch length tau must be positive")
    delta = seq.shape[0]
    n_nodes = dynamics.model.n_nodes
    e_mat, w_mat = dynamics.propagator(tau_s)

    # Horner accumulation of S = sum_{j=1..delta} E^{delta-j} W P_j
    acc = np.zeros(n_nodes)
    for j in range(delta):
        acc = e_mat @ acc + w_mat @ dynamics.model.expand_power(seq[j])

    # fixed point right after the last epoch of a period
    e_period = dynamics.exp_c(delta * tau_s)
    x_last = np.linalg.solve(np.eye(n_nodes) - e_period, acc)

    # propagate through one period to recover every boundary
    boundaries = np.empty((delta, n_nodes))
    x = x_last
    for e in range(delta):
        x = e_mat @ x + w_mat @ dynamics.model.expand_power(seq[e])
        boundaries[e] = x
    return boundaries + ambient_c


def rotation_peak_temperature(
    dynamics: ThermalDynamics,
    core_power_seq: np.ndarray,
    tau_s: float,
    ambient_c: float,
    within_epoch_samples: int = 4,
) -> float:
    """Peak core temperature of the converged rotation cycle (Eq. 11).

    With ``within_epoch_samples > 0`` the exact transient inside each epoch
    is sampled as well, bounding the boundary-only undershoot.
    """
    seq = _validate_sequence(dynamics, core_power_seq)
    boundaries = rotation_fixed_point(dynamics, seq, tau_s, ambient_c)
    model = dynamics.model
    peak = float(np.max(model.core_temperatures(boundaries)))
    if within_epoch_samples > 0:
        # One batched eigenbasis evaluation over all (epoch, sample, core)
        # triples: one multi-RHS solve against the factored ``B`` yields
        # every epoch's steady state, then
        # T[e, s] = T_ss,e + V diag(e^{lambda t_s}) V^{-1} (start_e - T_ss,e)
        # for the whole grid at once.  The epoch-start
        # temperatures themselves are boundary rows, already in ``peak``.
        delta = seq.shape[0]
        n = model.n_cores
        t_steady = model.steady_rise(seq) + ambient_c  # (d, N)
        starts = boundaries[np.arange(delta) - 1]  # row -1 = state before epoch 0
        coeffs = (starts - t_steady) @ dynamics.eigenvectors_inv.T  # (d, N)
        times = np.linspace(
            tau_s / within_epoch_samples, tau_s, within_epoch_samples
        )
        decay = np.exp(np.outer(times, dynamics.eigenvalues))  # (S, N)
        v_core = dynamics.eigenvectors[:n]  # (n, N)
        temps = np.einsum("sk,ek,ck->esc", decay, coeffs, v_core, optimize=True)
        temps += t_steady[:, None, :n]
        peak = max(peak, float(np.max(temps)))
    return peak


class PeakTemperatureCalculator:
    """Algorithm 1: efficient peak temperature with a design-time phase.

    The design-time phase (construction) fixes the floorplan-derived
    eigendecomposition and precomputes ``V^{-1} W`` once.  Each call to
    :meth:`peak` then evaluates, per epoch pair ``(e, j)``, the diagonal
    factor ``exp(lambda tau ((e-j) mod delta)) / (1 - exp(lambda delta
    tau))`` — the paper's alpha/beta split — at run-time cost
    ``O(delta^2 N + delta N^2)``.

    Unlike :func:`rotation_fixed_point` this never forms or solves an
    ``N x N`` system at run time, which is what makes it viable inside a
    scheduler invoked every epoch.

    ``config_key`` is a hashable fingerprint of every configuration input
    the cached peak values (or their downstream interpretation) depend on
    beyond the power sequence itself — the DTM threshold/hysteresis and
    ambient of the owning :class:`~repro.config.SystemConfig`.  It is
    baked into every memo key so that a ``peak_cache`` *shared between
    calculators* (the cross-tenant :class:`repro.serve.ServeCache` does
    this) can never return a stale hit to a tenant whose thermal
    configuration differs only in ``T_DTM`` or hysteresis.  When omitted
    it defaults to the ambient temperature, which a single private cache
    always agrees on.

    ``peak_cache`` optionally injects that shared memo store; by default
    each calculator owns a private bounded LRU.
    """

    def __init__(
        self,
        dynamics: ThermalDynamics,
        ambient_c: float,
        config_key: Optional[Hashable] = None,
        peak_cache: Optional[LruCache] = None,
    ):
        self.dynamics = dynamics
        self.ambient_c = ambient_c
        #: memo-key component identifying the thermal configuration this
        #: calculator answers for (see the class docstring)
        self.config_key: Hashable = (
            config_key if config_key is not None else (float(ambient_c),)
        )
        self._v = dynamics.eigenvectors
        self._v_core = self._v[: dynamics.model.n_cores]
        self._lambda = dynamics.eigenvalues
        # beta: V^{-1} W restricted to core (power-carrying) columns
        n = dynamics.model.n_cores
        b_inv_cores = dynamics.b_inverse[:, :n]
        self._beta_base = dynamics.eigenvectors_inv @ b_inv_cores  # (N, n)
        # bounded LRU caches; counters surface through :meth:`cache_stats`
        self._tau_cache = LruCache(_BETA_CACHE_SIZE)
        self._alpha_cache = LruCache(_ALPHA_CACHE_SIZE)
        self._peak_cache = (
            peak_cache if peak_cache is not None else LruCache(_PEAK_CACHE_SIZE)
        )
        self._response_cache = LruCache(_RESPONSE_CACHE_SIZE)
        self._batch_calls = 0
        self._batch_candidates = 0

    def _beta(self, tau_s: float) -> np.ndarray:
        """``V^{-1} (I - E) B^{-1}`` on core columns (cached per tau)."""
        cached = self._tau_cache.get(tau_s)
        if cached is None:
            decay = 1.0 - np.exp(self._lambda * tau_s)  # (N,)
            cached = decay[:, None] * self._beta_base
            self._tau_cache[tau_s] = cached
        return cached

    def _alpha(self, tau_s: float, delta: int) -> np.ndarray:
        """Design-time decay tensor: ``alpha[k, e, j] = exp(lambda_k tau
        ((e - j) mod delta)) / (1 - exp(lambda_k delta tau))`` — the paper's
        auxiliary alpha matrices, cached per (tau, delta).

        Mode-major and C-contiguous, shape ``(N, delta, delta)``: one
        ``delta x delta`` matrix per eigenmode, so the stacked matmul of
        :meth:`_stacked_peaks` hands every mode's product to BLAS.
        """
        key = (tau_s, delta)
        cached = self._alpha_cache.get(key)
        if cached is None:
            cached = self._alpha_cache[key] = self._decay_tensor(tau_s, delta)
        return cached

    def _decay_tensor(self, tau_s: float, delta: int) -> np.ndarray:
        """The alpha tensor of :meth:`_alpha`, built afresh."""
        lam_tau = self._lambda * tau_s
        geometric = 1.0 / (1.0 - np.exp(delta * lam_tau))  # (N,)
        epoch_idx = np.arange(delta)
        offsets = (epoch_idx[:, None] - epoch_idx[None, :]) % delta
        alpha = np.exp(np.multiply.outer(lam_tau, offsets))  # (N, d, d)
        alpha *= geometric[:, None, None]
        return alpha

    def boundary_temperatures(
        self, core_power_seq: np.ndarray, tau_s: float
    ) -> np.ndarray:
        """Core temperatures at every epoch boundary of the cycle, shape
        ``(delta, n_cores)``, absolute degrees Celsius."""
        seq = _validate_sequence(self.dynamics, core_power_seq)
        if tau_s <= 0:
            raise ValueError("epoch length tau must be positive")
        delta = seq.shape[0]
        coeffs = self._beta(tau_s) @ seq.T  # (N, delta): c_j in eigenspace
        alpha = self._alpha(tau_s, delta)
        weighted = np.einsum("nej,nj->en", alpha, coeffs)
        temps = weighted @ self._v_core.T  # (delta, n_cores)
        return temps + self.ambient_c

    def peak(
        self,
        core_power_seq: np.ndarray,
        tau_s: float,
        within_epoch_samples: int = 0,
    ) -> float:
        """Peak core temperature of the rotation (Eq. 11).

        The default skips within-epoch sampling: for scheduler use the
        boundary maximum plus the configured headroom ``Delta`` absorbs the
        small undershoot, exactly as the paper's run-time phase does.
        """
        if within_epoch_samples <= 0:
            # boundary-only queries route through the batched/memoized path
            # so scalar and batch evaluation are one and the same code
            return float(self.peak_batch([core_power_seq], [tau_s])[0])
        return rotation_peak_temperature(
            self.dynamics,
            core_power_seq,
            tau_s,
            self.ambient_c,
            within_epoch_samples,
        )

    # -- batched candidate evaluation (run-time phase, vectorized) -----------

    def _fingerprint(
        self,
        seq: np.ndarray,
        tau_s: Optional[float],
        digest: Optional[bytes] = None,
    ) -> Tuple[Hashable, Optional[float], Tuple[int, ...], bytes]:
        """Memo key for a (power sequence, rotation interval) candidate.

        The sequence content is digested (BLAKE2b) rather than stored: ring
        power sequences can reach hundreds of kilobytes at large rotation
        periods, and the memo only needs equality.  ``config_key`` leads
        the tuple so two calculators sharing one memo store (different
        tenants of :class:`repro.serve.ServeCache`) never collide when
        their DTM threshold/hysteresis/ambient configuration differs.
        ``digest`` passes a digest of ``seq`` already taken.
        """
        if digest is None:
            digest = _digest(seq)
        return (
            self.config_key,
            None if tau_s is None else float(tau_s),
            seq.shape,
            digest,
        )

    def peak_batch(
        self,
        core_power_seqs: Sequence[np.ndarray],
        taus_s: Sequence[Optional[float]],
    ) -> np.ndarray:
        """Peak temperature of every ``(power sequence, tau)`` candidate.

        The scheduler's greedy scans (slot choice, interval ladder) generate
        many candidates that share the floorplan's alpha/beta tensors;
        evaluating them through one stacked einsum per ``(tau, delta)`` group
        amortizes those tensors across the whole scan instead of re-walking
        them per candidate.  ``tau = None`` denotes a non-rotating candidate
        and evaluates the steady-state peak of the sequence's first epoch.

        Results are memoized on a content fingerprint of ``(seq, tau)`` —
        across scheduler invocations most candidates repeat (the greedy scan
        re-evaluates the incumbent assignment every epoch), so the memo turns
        the common case into a dictionary lookup.  Each distinct input
        array is validated and digested once per call, however many
        candidates pass it (the tau ladder passes one sequence per rung).

        Returns an array of peaks, same order as the inputs.
        """
        if len(core_power_seqs) != len(taus_s):
            raise ValueError("need one tau per power sequence")
        self._batch_calls += 1
        self._batch_candidates += len(core_power_seqs)
        seqs: List[np.ndarray] = []
        peaks = np.empty(len(core_power_seqs))
        keys: List[Tuple] = []
        # id(raw) -> (raw, validated seq, digest); holding ``raw`` keeps
        # its id from being reused by another object within the call
        checked: Dict[int, Tuple[object, np.ndarray, bytes]] = {}
        # (tau, delta) -> candidate indices needing a fresh evaluation
        pending: Dict[Tuple[float, int], List[int]] = {}
        for i, (raw, tau_s) in enumerate(zip(core_power_seqs, taus_s)):
            entry = checked.get(id(raw))
            if entry is None:
                seq = _validate_sequence(self.dynamics, raw)
                entry = checked[id(raw)] = (raw, seq, _digest(seq))
            _, seq, digest = entry
            if tau_s is not None and tau_s <= 0:
                raise ValueError("epoch length tau must be positive")
            seqs.append(seq)
            key = self._fingerprint(seq, tau_s, digest)
            keys.append(key)
            cached = self._peak_cache.get(key)
            if cached is not None:
                peaks[i] = cached
            elif tau_s is None:
                value = self.steady_peak(seq[0])
                self._peak_cache[key] = value
                peaks[i] = value
            else:
                pending.setdefault((float(tau_s), seq.shape[0]), []).append(i)
        for (tau_s, delta), indices in pending.items():
            batch = np.stack([seqs[i] for i in indices])  # (B, delta, n)
            values = self._stacked_peaks(batch, tau_s)
            for i, value in zip(indices, values):
                peaks[i] = value
                self._peak_cache[keys[i]] = float(value)
        return peaks

    def _stacked_peaks(self, batch: np.ndarray, tau_s: float) -> np.ndarray:
        """Boundary peaks of a ``(B, delta, n)`` stack sharing one tau."""
        alpha = self._alpha(tau_s, batch.shape[1])
        rise = self._stacked_rise(batch, tau_s, alpha)
        return rise.max(axis=(1, 2)) + self.ambient_c

    def _stacked_rise(
        self, batch: np.ndarray, tau_s: float, alpha: np.ndarray
    ) -> np.ndarray:
        """Boundary rise over ambient of a ``(B, delta, n)`` stack sharing
        one tau and its ``(N, delta, delta)`` alpha, shape ``(B, delta,
        n_cores)``.

        A lone candidate's alpha product is taken with a copy beside it:
        with one column BLAS would run its matrix-vector kernel, which
        sums in another order than the matrix-matrix one, and the value
        would depend on how many candidates shared the group.  The other
        two products run per candidate, on operands strided as in any
        stack, so every width gives a candidate the same bits.
        """
        beta = self._beta(tau_s)  # (N, n)
        # stacked matmuls over operands whose matrices are C- or
        # F-contiguous dispatch to BLAS; einsum would run naive loops
        coeffs = beta @ batch.transpose(0, 2, 1)  # (B, N, d)
        width = coeffs.shape[0]
        if width == 1:
            coeffs = np.concatenate((coeffs, coeffs))
        # weighted[n, e, b] = sum_j alpha[n, e, j] * coeffs[b, n, j]
        weighted = alpha @ coeffs.transpose(1, 2, 0)  # (N, d, B)
        return weighted[:, :, :width].transpose(2, 1, 0) @ self._v_core.T

    def boundary_rise(
        self, core_power_seq: np.ndarray, tau_s: Optional[float]
    ) -> np.ndarray:
        """Core rise over ambient at every epoch boundary, ``(delta, n_cores)``,
        evaluated as :meth:`peak_batch` does.

        ``tau = None`` takes every row of the sequence as its own static
        power map and returns each map's steady-state rise.
        """
        seq = _validate_sequence(self.dynamics, core_power_seq)
        if tau_s is None:
            return self.dynamics.model.steady_rise(seq)[:, : seq.shape[1]]
        alpha = self._alpha(tau_s, seq.shape[0])
        return self._stacked_rise(seq[None], tau_s, alpha)[0]

    def ring_responses(
        self, ring_cores: Tuple[Tuple[int, ...], ...], tau_s: Optional[float]
    ) -> np.ndarray:
        """Design-time response table of a ring layout, ``(slots,
        n_cores)``: each ring's ``(size, n_cores)`` table, stacked in ring
        order (the flat slot order of
        :func:`~repro.core.rotation.ring_tracks`).

        Row ``e`` of ring ``r``'s table is the boundary rise after epoch
        ``e`` for 1 W on the ring's slot-0 track, which visits ``cores[e]``
        in epoch ``e``.  Boundary temperatures are linear in the power
        sequence (Eq. 10), and slot ``u``'s track is slot 0's shifted by
        ``u`` epochs, so its response is the table shifted too: ``R_u[e] =
        R_0[(e + u) mod size]``.  Without rotation (``tau = None``) row
        ``u`` is the steady rise for 1 W on ``cores[u]``.  Cached per
        (layout, tau); read-only.  The alpha tensors of the ring sizes are
        built afresh, so the tables add no alpha-cache entry.
        """
        key = (ring_cores, tau_s)
        cached = self._response_cache.get(key)
        if cached is None:
            unit = np.eye(self.dynamics.model.n_cores)
            tracks = [unit[list(cores)] for cores in ring_cores]
            if tau_s is None:
                tables = [self.boundary_rise(track, None) for track in tracks]
            else:
                tables = [
                    self._stacked_rise(
                        track[None], tau_s, self._decay_tensor(tau_s, len(track))
                    )[0]
                    for track in tracks
                ]
            cached = np.concatenate(tables)
            cached.flags.writeable = False
            self._response_cache[key] = cached
        return cached

    def forward_error_bound(
        self, core_power_seq: np.ndarray, tau_s: Optional[float]
    ) -> float:
        """Proven bound [degC] on the rounding error of every entry of
        :meth:`boundary_rise` (and so of every :meth:`peak_batch` value).

        The reference is real arithmetic on the stored ``beta`` and ``V``
        and the exact alpha.  The three products chain ``n + delta + N``
        roundings, so they err by at most ``gamma_{n+delta+N} |V||alpha||
        beta||P|`` (Higham, Sec. 3.5).  Each stored alpha entry is off by a
        relative ``rho_k`` (:meth:`_alpha_rounding`), which adds ``|V|
        rho|alpha||beta||P|``.  Without rotation the bound is the LU
        solve's (:meth:`RCThermalModel.steady_rise_error_bound`).  The
        1 % slack covers the bound's own evaluation.
        """
        seq = _validate_sequence(self.dynamics, core_power_seq)
        if tau_s is None:
            return self.dynamics.model.steady_rise_error_bound(seq)
        delta, n_cores = seq.shape
        coeffs = np.abs(self._beta(tau_s)) @ np.abs(seq).T  # (N, d)
        weighted = np.einsum("nej,nj->ne", self._alpha(tau_s, delta), coeffs)
        v_abs = np.abs(self._v_core)
        rounding = gamma(n_cores + delta + self._lambda.shape[0])
        chained = rounding * float(np.max(v_abs @ weighted))
        stored = float(
            np.max(v_abs @ (self._alpha_rounding(tau_s, delta)[:, None] * weighted))
        )
        return 1.01 * (chained + stored)

    def _alpha_rounding(self, tau_s: float, delta: int) -> np.ndarray:
        """Relative error bound, per mode, of the stored alpha entries.

        The exponent ``lambda tau o`` (``o < delta``) carries two roundings,
        which move ``exp`` by a relative ``2 u |lambda tau o|``, plus
        ``exp``'s own error.  The geometric factor ``1 / (1 - exp(lambda
        delta tau))`` amplifies the error of its ``exp`` by ``e^{-p} / (1 -
        e^{-p})``, ``p = delta |lambda| tau`` (cancellation for slow
        modes).  The subtraction, division and product round three times.
        """
        u = np.finfo(float).eps / 2
        period = delta * np.abs(self._lambda) * tau_s
        exp_error = _EXP_ULP_ERROR + 2.01 * u * period
        decay = np.exp(-period)
        return exp_error + exp_error * decay / -np.expm1(-period) + 3 * u

    def cache_stats(self) -> Dict[str, int]:
        """Counters of the Algorithm-1 caches and batch evaluator.

        Keys: ``{alpha_cache, beta_cache, peak_cache}.{hits, misses,
        evictions, size}`` plus ``batch.calls`` / ``batch.candidates``.
        High ``peak_cache`` hit rates mean the greedy scans mostly re-visit
        known candidates; ``batch.candidates / batch.calls`` is the mean
        stacking width the einsum path gets to amortize over.
        """
        stats: Dict[str, int] = {}
        stats.update(self._alpha_cache.stats("alpha_cache"))
        stats.update(self._tau_cache.stats("beta_cache"))
        stats.update(self._peak_cache.stats("peak_cache"))
        stats["batch.calls"] = self._batch_calls
        stats["batch.candidates"] = self._batch_candidates
        return stats

    def steady_peak(self, core_power_w: np.ndarray) -> float:
        """Peak steady-state core temperature without rotation.

        Equivalent to a one-epoch rotation with ``tau -> infinity``; used by
        the scheduler when rotation is switched off.
        """
        temps = self.dynamics.model.steady_state(core_power_w, self.ambient_c)
        return float(np.max(self.dynamics.model.core_temperatures(temps)))


def brute_force_peak(
    dynamics: ThermalDynamics,
    core_power_seq: np.ndarray,
    tau_s: float,
    ambient_c: float,
    n_periods: int = 200,
    initial_temps_c: Optional[np.ndarray] = None,
    samples_per_epoch: int = 4,
) -> Tuple[float, np.ndarray]:
    """Ground-truth peak by transient simulation over ``n_periods`` periods.

    Returns ``(peak_of_final_period, boundary_temps_of_final_period)``.
    Exact piecewise-constant stepping, so the only approximation relative to
    the closed form is the finite period count.
    """
    seq = _validate_sequence(dynamics, core_power_seq)
    delta = seq.shape[0]
    model = dynamics.model
    temps = (
        model.ambient_vector(ambient_c)
        if initial_temps_c is None
        else np.asarray(initial_temps_c, dtype=float).copy()
    )
    for _ in range(n_periods - 1):
        for e in range(delta):
            temps = dynamics.step(temps, seq[e], ambient_c, tau_s)
    peak = -np.inf
    boundaries = np.empty((delta, model.n_nodes))
    for e in range(delta):
        if samples_per_epoch > 0:
            peak = max(
                peak,
                dynamics.peak_during_step(
                    temps, seq[e], ambient_c, tau_s, samples_per_epoch
                ),
            )
        temps = dynamics.step(temps, seq[e], ambient_c, tau_s)
        peak = max(peak, float(np.max(model.core_temperatures(temps))))
        boundaries[e] = temps
    return peak, boundaries
