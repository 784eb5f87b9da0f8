"""MatEx-style transient thermal solver.

The paper computes transient temperatures with *MatEx* (Pagani et al., DATE
2015): instead of numerically integrating the ODE system of Eq. (2), the
matrix exponential is evaluated analytically through the eigendecomposition
of ``C = -A^{-1} B``.  For piecewise-constant power the solution

    T(t0 + tau) = T_steady + exp(C tau) (T(t0) - T_steady)        (Eq. 4)

is **exact** — no integration error, any step size.

``C`` itself is not symmetric, but it is similar to the symmetric
negative-definite matrix ``-A^{-1/2} B A^{-1/2}``; we therefore
eigendecompose that symmetrized matrix with the numerically stable
:func:`scipy.linalg.eigh` and map the eigenvectors back.  All eigenvalues
are real and strictly negative, which is what makes the paper's geometric
series (Eqs. 8-9) converge.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from .._lru import LruCache
from .rc_model import RCThermalModel

#: Bounds of the per-``tau`` auxiliary caches.  A healthy simulation uses a
#: handful of step sizes; a scheduler that jitters ``tau`` must not grow
#: these without limit.  Dense ``N x N`` matrices are capped tighter than
#: the ``O(N)`` decay vectors.
_EXP_CACHE_SIZE = 64
_PROP_CACHE_SIZE = 64
_DECAY_CACHE_SIZE = 256


class ThermalDynamics:
    """Eigendecomposition cache and exact transient stepping for a model.

    Construction performs the one-time ``O(N^3)`` work (the paper's
    "design-time phase"); every subsequent query is cheap.

    Parameters
    ----------
    model:
        The RC network to operate on.
    """

    def __init__(self, model: RCThermalModel):
        self.model = model
        cap = model.capacitance_vector
        sqrt_cap = np.sqrt(cap)
        b = model.b_matrix
        # symmetrized system matrix S = A^{-1/2} B A^{-1/2}
        sym = b / np.outer(sqrt_cap, sqrt_cap)
        mu, q = scipy.linalg.eigh(sym)
        if np.any(mu <= 1e-9 * np.max(mu)):
            raise ValueError(
                "conductance matrix is not positive definite; is some part of "
                "the network disconnected from ambient?"
            )
        #: eigenvalues of C = -A^{-1}B (all strictly negative)
        self.eigenvalues = -mu
        #: eigenvectors of C (columns), V in the paper's notation
        self.eigenvectors = q / sqrt_cap[:, None]
        #: inverse eigenvector matrix, V^{-1} = Q^T A^{1/2}
        self.eigenvectors_inv = q.T * sqrt_cap[None, :]
        self._b_inv = np.linalg.inv(b)
        #: ``V^{-1} B^{-1}`` restricted to the power-carrying (core) columns:
        #: the steady-state eigen-coefficients of a core power map are one
        #: ``(N, n) @ (n,)`` product away (no linear solve at run time).
        self._vinv_binv_cores = self.eigenvectors_inv @ self._b_inv[:, : model.n_cores]
        # bounded LRU caches (observability: the interval engine publishes
        # their hit/miss/eviction counters as ``thermal.*_cache.*`` gauges)
        self._exp_cache = LruCache(_EXP_CACHE_SIZE)
        self._prop_cache = LruCache(_PROP_CACHE_SIZE)
        self._decay_cache = LruCache(_DECAY_CACHE_SIZE)

    # -- spectral queries ---------------------------------------------------

    @property
    def b_inverse(self) -> np.ndarray:
        """``B^{-1}`` (cached, do not mutate)."""
        return self._b_inv

    @property
    def steady_projection(self) -> np.ndarray:
        """``V^{-1} B^{-1}`` on the core columns, the matrix
        :meth:`steady_coeffs` applies (cached, do not mutate)."""
        return self._vinv_binv_cores

    @property
    def slowest_time_constant_s(self) -> float:
        """``1/|lambda_max|``: the slowest thermal time constant."""
        return float(1.0 / np.min(np.abs(self.eigenvalues)))

    def exp_c(self, tau_s: float) -> np.ndarray:
        """``exp(C tau)`` via the eigendecomposition (cached per ``tau``)."""
        if tau_s < 0:
            raise ValueError("tau must be non-negative")
        cached = self._exp_cache.get(tau_s)
        if cached is None:
            diag = np.exp(self.eigenvalues * tau_s)
            cached = (self.eigenvectors * diag[None, :]) @ self.eigenvectors_inv
            self._exp_cache[tau_s] = cached
        return cached

    def decay_vector(self, tau_s: float) -> np.ndarray:
        """``exp(lambda tau)`` per eigenvalue (cached per ``tau``).

        The ``O(N)`` diagonal of ``exp(C tau)`` in the eigenbasis — the only
        per-step factor the eigenbasis-resident fast path needs (where the
        dense path needs the full ``N x N`` :meth:`exp_c`).
        """
        if tau_s < 0:
            raise ValueError("tau must be non-negative")
        cached = self._decay_cache.get(tau_s)
        if cached is None:
            cached = np.exp(self.eigenvalues * tau_s)
            cached.flags.writeable = False
            self._decay_cache[tau_s] = cached
        return cached

    def steady_coeffs(self, core_power_w: np.ndarray) -> np.ndarray:
        """Eigen-coefficients of the ambient-shifted steady state.

        ``V^{-1} B^{-1} P`` for a per-core power map ``P`` — the spectral
        image of ``steady_state(...) - ambient``, at ``O(N n)`` cost with no
        linear solve.
        """
        core_power_w = np.asarray(core_power_w, dtype=float)
        if core_power_w.shape != (self.model.n_cores,):
            raise ValueError(
                f"expected {self.model.n_cores} core powers, "
                f"got shape {core_power_w.shape}"
            )
        return self._vinv_binv_cores @ core_power_w

    def steady_coeffs_batch(self, core_power_w: np.ndarray) -> np.ndarray:
        """Steady-state eigen-coefficients for a stack of power maps.

        ``core_power_w`` has shape ``(S, n_cores)``; the result has shape
        ``(S, n_nodes)`` with row ``i`` equal to ``steady_coeffs(P[i])``.

        Each row is computed by the *same* GEMV kernel the scalar path uses,
        so every row is byte-identical to an independent
        :meth:`steady_coeffs` call — the property the batched engine's
        byte-identity guarantee rests on.  One GEMM over the stack
        (``P @ M.T``) would accumulate in a different order, with row
        results that vary with the batch size.
        """
        stacked = np.asarray(core_power_w, dtype=float)
        if stacked.ndim != 2 or stacked.shape[1] != self.model.n_cores:
            raise ValueError(
                f"expected (S, {self.model.n_cores}) stacked core powers, "
                f"got shape {stacked.shape}"
            )
        out = np.empty((stacked.shape[0], self.model.n_nodes))
        for i in range(stacked.shape[0]):
            np.matmul(self._vinv_binv_cores, stacked[i], out=out[i])
        return out

    def propagator(self, tau_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """The pair ``(E, W)`` with ``E = exp(C tau)``, ``W = (I - E) B^{-1}``.

        ``W`` is the paper's *rotational factor* ``w`` (Eq. 5): one epoch of
        constant node power ``P`` starting from ambient-shifted temperature
        ``T`` ends at ``E T + W P``.
        """
        cached = self._prop_cache.get(tau_s)
        if cached is None:
            e = self.exp_c(tau_s)
            w = (np.eye(self.model.n_nodes) - e) @ self._b_inv
            cached = (e, w)
            self._prop_cache[tau_s] = cached
        return cached

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters of the per-``tau`` auxiliary caches.

        Keys: ``{exp_cache, propagator_cache, decay_cache}.{hits, misses,
        evictions, size}``.  A healthy interval simulation re-uses a handful
        of step sizes, so hit rates should approach 1 as the run progresses;
        non-zero eviction counts mean the scheduler is jittering ``tau``
        across more than the cache capacity.
        """
        stats: Dict[str, int] = {}
        stats.update(self._exp_cache.stats("exp_cache"))
        stats.update(self._prop_cache.stats("propagator_cache"))
        stats.update(self._decay_cache.stats("decay_cache"))
        return stats

    # -- exact transient stepping --------------------------------------------

    def step(
        self,
        temps_c: np.ndarray,
        core_power_w: np.ndarray,
        ambient_c: float,
        tau_s: float,
    ) -> np.ndarray:
        """Advance node temperatures by ``tau_s`` under constant core power.

        Exact for piecewise-constant power (Eq. 4).  ``temps_c`` is the full
        node temperature vector in absolute degrees Celsius.

        This is the **dense reference path** (one steady-state solve
        against the factored ``B`` plus a dense ``O(N^2)`` product with
        ``exp(C tau)`` per call); the
        interval engine's hot loop uses the eigenbasis-resident
        :class:`repro.thermal.spectral_state.SpectralThermalState` instead
        and is validated against this method to ``<= 1e-9`` degC.
        """
        t_steady = self.model.steady_state(core_power_w, ambient_c)
        e = self.exp_c(tau_s)
        return t_steady + e @ (np.asarray(temps_c, dtype=float) - t_steady)

    def step_spectral(
        self,
        temps_c: np.ndarray,
        core_power_w: np.ndarray,
        ambient_c: float,
        tau_s: float,
    ) -> np.ndarray:
        """One exact step evaluated through the eigenbasis (no solve).

        Mathematically identical to :meth:`step` but costs two ``O(N^2)``
        projections plus ``O(N n)`` work, with no steady-state solve and
        no ``exp(C tau)`` matrix.  The violation predictor of PCMig and
        the async-migration baseline
        (:class:`~repro.sched.pcmig.ViolationPredictor`) steps through
        here only for a prediction its certified screen cannot settle.
        Callers that step *repeatedly* should hold a
        :class:`~repro.thermal.spectral_state.SpectralThermalState` instead,
        which amortizes both projections away entirely.
        """
        coeffs = self.eigenvectors_inv @ (
            np.asarray(temps_c, dtype=float) - ambient_c
        )
        steady = self.steady_coeffs(core_power_w)
        coeffs = steady + self.decay_vector(tau_s) * (coeffs - steady)
        return ambient_c + self.eigenvectors @ coeffs

    def transient(
        self,
        temps_c: np.ndarray,
        core_power_w: np.ndarray,
        ambient_c: float,
        duration_s: float,
        n_samples: int,
        t_steady: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the transient under constant power at ``n_samples`` times.

        Returns ``(times, node_temps)`` where ``times`` has shape
        ``(n_samples,)`` (uniformly spaced in ``(0, duration]``) and
        ``node_temps`` has shape ``(n_samples, N)``.  Each sample is computed
        exactly from the initial condition; there is no error accumulation.

        ``t_steady`` optionally supplies the precomputed steady state of
        ``(core_power_w, ambient_c)`` so callers that already solved it
        (e.g. :meth:`peak_during_step` inside a rotation-cycle scan) do not
        pay the linear solve twice.
        """
        if n_samples < 1:
            raise ValueError("need at least one sample")
        times = np.linspace(duration_s / n_samples, duration_s, n_samples)
        if t_steady is None:
            t_steady = self.model.steady_state(core_power_w, ambient_c)
        delta = np.asarray(temps_c, dtype=float) - t_steady
        # project the initial offset once, then scale per-sample in the
        # eigenbasis: T(t) = T_ss + V diag(e^{lambda t}) V^{-1} delta
        coeffs = self.eigenvectors_inv @ delta
        decay = np.exp(np.outer(times, self.eigenvalues))  # (S, N)
        temps = t_steady[None, :] + (decay * coeffs[None, :]) @ self.eigenvectors.T
        return times, temps

    def peak_during_step(
        self,
        temps_c: np.ndarray,
        core_power_w: np.ndarray,
        ambient_c: float,
        tau_s: float,
        n_samples: int = 8,
        t_steady: Optional[np.ndarray] = None,
    ) -> float:
        """Maximum core temperature reached at any time within one step.

        Boundary temperatures alone can miss an intra-epoch overshoot when a
        mode decays non-monotonically in combination; sampling bounds that
        error.  For the exact interior maximum use
        :meth:`analytic_peak_during_step`.  ``t_steady`` threads a
        precomputed steady state through to :meth:`transient`, avoiding a
        second identical solve.
        """
        _, temps = self.transient(
            temps_c, core_power_w, ambient_c, tau_s, n_samples, t_steady
        )
        start_peak = float(np.max(self.model.core_temperatures(np.asarray(temps_c))))
        return max(start_peak, float(np.max(self.model.core_temperatures(temps))))

    def analytic_peak_during_step(
        self,
        temps_c: np.ndarray,
        core_power_w: np.ndarray,
        ambient_c: float,
        tau_s: float,
        coarse_samples: int = 16,
        bisect_iters: int = 50,
    ) -> float:
        """Exact maximum core temperature within one constant-power step.

        MatEx-style peak detection: each core's trajectory is a sum of
        decaying exponentials,

            ``T_i(t) = T_ss,i + sum_k V_ik e^{lambda_k t} c_k``,

        whose interior extrema are roots of the (analytic) derivative.
        Roots are bracketed on a coarse grid and refined by bisection, so
        multi-modal trajectories are handled — not just the single-root
        case MatEx's Newton iteration assumes.
        """
        if tau_s <= 0:
            raise ValueError("tau must be positive")
        model = self.model
        n = model.n_cores
        t_ss = model.steady_state(core_power_w, ambient_c)
        coeffs = self.eigenvectors_inv @ (
            np.asarray(temps_c, dtype=float) - t_ss
        )
        v_core = self.eigenvectors[:n]  # (n, N)
        lam = self.eigenvalues

        times = np.linspace(0.0, tau_s, coarse_samples + 1)
        decay = np.exp(np.outer(lam, times)) * coeffs[:, None]  # (N, S+1)
        temps_grid = t_ss[:n, None] + v_core @ decay  # (n, S+1)
        deriv_grid = v_core @ (lam[:, None] * decay)  # (n, S+1)

        peak = float(np.max(temps_grid))  # includes both endpoints

        # refine every sign change of the derivative (+ -> -: a maximum)
        sign_change = (deriv_grid[:, :-1] > 0) & (deriv_grid[:, 1:] <= 0)
        cores, segments = np.nonzero(sign_change)
        for core, segment in zip(cores, segments):
            lo, hi = times[segment], times[segment + 1]
            row = v_core[core]
            for _ in range(bisect_iters):
                mid = 0.5 * (lo + hi)
                d_mid = float(row @ (lam * np.exp(lam * mid) * coeffs))
                if d_mid > 0:
                    lo = mid
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
            value = float(t_ss[core] + row @ (np.exp(lam * t_star) * coeffs))
            peak = max(peak, value)
        return peak
