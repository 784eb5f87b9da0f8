"""Transport-free service core: validation, tau selection, degradation."""

import numpy as np
import pytest

from repro.core.hotpotato import DEFAULT_TAU_LADDER_S
from repro.serve import ServeConfig, ThermalService

#: 2x2 tenant overrides — every test tenant uses the small floorplan
SMALL = {"mesh_width": 2, "mesh_height": 2}


@pytest.fixture()
def service():
    return ThermalService(ServeConfig())


@pytest.fixture()
def tenant(service):
    service.create_tenant("t0", SMALL)
    return service.tenant("t0")


class TestTenantRegistry:
    def test_create_and_info(self, service):
        info = service.create_tenant("alpha", dict(SMALL, dtm_threshold_c=75.0))
        assert info["tenant"] == "alpha"
        assert info["n_cores"] == 4
        assert info["dtm_threshold_c"] == 75.0
        assert info["mode"] == "normal"

    def test_duplicate_name_rejected(self, service):
        service.create_tenant("dup", SMALL)
        with pytest.raises(ValueError, match="already exists"):
            service.create_tenant("dup", SMALL)

    def test_unknown_config_key_rejected(self, service):
        with pytest.raises(ValueError, match="unknown config keys"):
            service.create_tenant("bad", {"volts": 3})

    def test_capacity_enforced(self):
        service = ThermalService(ServeConfig(max_tenants=1))
        service.create_tenant("one", SMALL)
        with pytest.raises(ValueError, match="capacity"):
            service.create_tenant("two", SMALL)

    def test_delete(self, service):
        service.create_tenant("gone", SMALL)
        service.delete_tenant("gone")
        with pytest.raises(KeyError):
            service.tenant("gone")

    def test_same_config_tenants_share_calculator(self, service):
        service.create_tenant("a", SMALL)
        service.create_tenant("b", SMALL)
        a, b = service.tenant("a"), service.tenant("b")
        assert a.calculator is b.calculator
        assert a.fingerprint == b.fingerprint


class TestCandidateParsing:
    def test_single_power_vector(self, service, tenant):
        seqs, taus = service.parse_candidates(tenant, {"power": [1.0] * 4})
        assert len(seqs) == 1 and seqs[0].shape == (1, 4)
        assert taus == [None]

    def test_power_seq_with_tau(self, service, tenant):
        payload = {"power_seq": [[1.0] * 4, [0.5] * 4], "tau_s": 0.001}
        seqs, taus = service.parse_candidates(tenant, payload)
        assert seqs[0].shape == (2, 4)
        assert taus == [0.001]

    def test_candidate_array(self, service, tenant):
        payload = {
            "candidates": [
                {"power": [1.0] * 4},
                {"power_seq": [[1.0] * 4, [0.2] * 4], "tau_s": 0.002},
            ]
        }
        seqs, taus = service.parse_candidates(tenant, payload)
        assert len(seqs) == 2
        assert taus == [None, 0.002]

    def test_wrong_length_rejected(self, service, tenant):
        with pytest.raises(ValueError, match="n_cores"):
            service.parse_candidates(tenant, {"power": [1.0] * 7})

    def test_negative_power_rejected(self, service, tenant):
        with pytest.raises(ValueError, match="non-negative"):
            service.parse_candidates(tenant, {"power": [1.0, -1.0, 1.0, 1.0]})

    def test_missing_power_rejected(self, service, tenant):
        with pytest.raises(ValueError, match="power"):
            service.parse_candidates(tenant, {"tau_s": 0.001})


class TestTauSelection:
    def test_ladder_matches_default(self, service, tenant):
        seq = [[2.0] * 4, [0.1] * 4]
        seqs, taus = service.ladder_candidates(tenant, {"power_seq": seq})
        assert taus[0] is None
        assert taus[1:] == sorted(DEFAULT_TAU_LADDER_S, reverse=True)
        # rotation-off candidate is evaluated on the first epoch only
        assert seqs[0].shape == (1, 4)

    def test_single_epoch_never_rotates(self, service, tenant):
        seqs, taus = service.ladder_candidates(tenant, {"power": [1.0] * 4})
        assert all(tau is None for tau in taus)

    def test_selects_slowest_sustainable(self, service, tenant):
        taus = [None, 0.004, 0.002, 0.001]
        # target = 70 - 1 = 69; first (slowest) peak at/below target wins
        peaks = [75.0, 70.0, 68.5, 68.0]
        result = service.tau_payload(tenant, peaks, taus)
        assert result["tau_s"] == 0.002
        assert result["sustainable"] is True
        assert len(result["ladder"]) == 4

    def test_falls_back_to_best_achievable(self, service, tenant):
        taus = [None, 0.004, 0.002]
        peaks = [90.0, 85.2, 85.0]  # nothing sustainable
        result = service.tau_payload(tenant, peaks, taus)
        # slowest within 0.5 degC of the best achievable peak
        assert result["tau_s"] == 0.004
        assert result["sustainable"] is False

    def test_peak_payload_sustainability(self, service, tenant):
        body = service.peak_payload(tenant, [68.0], [None], single=True)
        assert body["sustainable"] is True
        assert body["headroom_c"] == pytest.approx(2.0)
        body = service.peak_payload(tenant, [69.5], [None], single=True)
        assert body["sustainable"] is False


class TestDegradationLadder:
    def test_failure_path_to_safe_park(self, service, tenant):
        config = service.config
        mode = service.record_simulate_failure(tenant, now_s=100.0)
        assert mode == "degraded"
        # degraded blocks simulate but not the analytic endpoints
        assert service.blocked_for(tenant, "simulate", 100.0) == pytest.approx(
            config.retry_after_s
        )
        assert service.blocked_for(tenant, "peak", 100.0) is None
        service.record_simulate_failure(tenant, now_s=100.0)
        mode = service.record_simulate_failure(tenant, now_s=100.0)
        assert mode == "safe-park"
        # safe-park blocks everything
        assert service.blocked_for(tenant, "peak", 100.0) == pytest.approx(
            config.park_retry_after_s
        )

    def test_cooldown_expiry_admits_requests(self, service, tenant):
        service.record_simulate_failure(tenant, now_s=0.0)
        after = service.config.retry_after_s + 0.1
        assert service.blocked_for(tenant, "simulate", after) is None

    def test_success_resets(self, service, tenant):
        service.record_simulate_failure(tenant, now_s=0.0)
        service.record_simulate_success(tenant)
        assert tenant.mode == "normal"
        assert tenant.failures == 0
        assert service.blocked_for(tenant, "simulate", 0.0) is None

    def test_transitions_counted(self, service, tenant):
        service.record_simulate_failure(tenant, now_s=0.0)
        service.record_simulate_success(tenant)
        gauges = service.gauges()
        assert gauges["serve.degradation.to_degraded"] == 1.0
        assert gauges["serve.degradation.to_normal"] == 1.0


class TestSimulate:
    def test_bounded_horizon_summary(self, service, tenant):
        summary = service.simulate(
            tenant,
            {
                "max_time_s": 0.005,
                "workload": {"kind": "homogeneous", "seed": 3},
            },
        )
        assert summary["scheduler"] == "hotpotato"
        assert summary["horizon_s"] == pytest.approx(0.005)
        assert summary["tasks_submitted"] >= 1

    def test_horizon_clamped(self, service, tenant):
        summary = service.simulate(
            tenant,
            {"max_time_s": 999.0, "workload": {"kind": "homogeneous"}},
        )
        assert summary["horizon_s"] == service.config.simulate_max_time_s

    def test_deterministic_across_calls(self, service, tenant):
        payload = {
            "max_time_s": 0.005,
            "scheduler": "pcmig",
            "workload": {"kind": "mixed", "n_tasks": 2, "seed": 7},
        }
        first = service.simulate(tenant, payload)
        second = service.simulate(tenant, payload)
        assert first == second

    def test_unknown_scheduler_rejected(self, service, tenant):
        with pytest.raises(ValueError, match="unknown scheduler"):
            service.simulate(
                tenant, {"scheduler": "fcfs", "workload": {"kind": "mixed"}}
            )

    def test_unknown_workload_kind_rejected(self, service, tenant):
        with pytest.raises(ValueError, match="workload kind"):
            service.simulate(tenant, {"workload": {"kind": "adversarial"}})

    @pytest.mark.parametrize(
        "workload, message",
        [
            ({"seed": True}, "workload seed must be an integer"),
            ({"seed": -1}, "workload seed must be at least 0"),
            ({"kind": "mixed", "n_tasks": True}, "n_tasks must be an integer"),
            ({"kind": "mixed", "n_tasks": 0}, "n_tasks must be at least 1"),
        ],
    )
    def test_workload_integers_rejected_by_field(
        self, service, tenant, workload, message
    ):
        with pytest.raises(ValueError, match=message):
            service._workload_specs(tenant, workload)
