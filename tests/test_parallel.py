"""The deterministic parallel experiment runner (``repro.parallel``).

The load-bearing property: a parallel sweep is *byte-identical* to a serial
one — per-cell seeds are pure functions of cell identity, collation is
ordered, and pool failures degrade to the serial path.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import config
from repro.parallel import (
    Cell,
    CellTimeoutError,
    RetryPolicy,
    SweepCheckpoint,
    canonical_key,
    derive_seed,
    run_cells,
)
from repro.sched.fixed_rotation import FixedRotationScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


def _square(x):
    return x * x


def _boom():
    raise RuntimeError("cell exploded")


def _sum_array(values, offset):
    return float(np.sum(values)) + offset


def _simulate(seed, config_obj, model, max_time_s):
    """Module-level simulation cell (process pools must pickle it)."""
    task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=seed)
    sim = IntervalSimulator(
        config_obj,
        FixedRotationScheduler(tau_s=0.5e-3),
        [task],
        ctx=SimContext(config_obj, model),
    )
    result = sim.run(max_time_s=max_time_s)
    return {
        "makespan_s": result.makespan_s,
        "response_s": result.mean_response_time_s,
        "migrations": result.migration_count,
    }


class TestDeriveSeed:
    def test_is_deterministic(self):
        assert derive_seed(42, "canneal", 0.5) == derive_seed(42, "canneal", 0.5)

    def test_distinguishes_parts_and_base(self):
        seeds = {
            derive_seed(42, "canneal", 0.5),
            derive_seed(42, "canneal", 1.0),
            derive_seed(42, "dedup", 0.5),
            derive_seed(43, "canneal", 0.5),
        }
        assert len(seeds) == 4

    def test_fits_in_32_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(7, i) < 2**32


class TestRunCells:
    def test_serial_collates_in_order(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(5)]
        results = run_cells(cells, jobs=1)
        assert list(results) == [0, 1, 2, 3, 4]
        assert results == {i: i * i for i in range(5)}

    def test_parallel_collates_in_order(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(6)]
        results = run_cells(cells, jobs=3)
        assert list(results) == list(range(6))
        assert results == {i: i * i for i in range(6)}

    def test_duplicate_keys_rejected(self):
        cells = [Cell(key="a", fn=_square, kwargs={"x": 1})] * 2
        with pytest.raises(ValueError, match="unique"):
            run_cells(cells, jobs=1)

    def test_cell_exception_propagates_serially(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_cells([Cell(key=0, fn=_boom)], jobs=1)

    def test_single_cell_skips_the_pool(self):
        results = run_cells([Cell(key="only", fn=_square, kwargs={"x": 9})], jobs=8)
        assert results == {"only": 81}

    def test_pool_sweep_with_large_array_kwarg(self):
        big = np.arange(200_000, dtype=np.float64)  # 1.6 MB, pickled per task
        cells = [
            Cell(key=i, fn=_sum_array, kwargs={"values": big, "offset": float(i)})
            for i in range(4)
        ]
        results = run_cells(cells, jobs=2)
        assert results == {i: float(np.sum(big)) + i for i in range(4)}


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def cfg(self):
        return config.motivational()

    @pytest.fixture(scope="class")
    def model(self, cfg):
        return SimContext(cfg).thermal_model

    def _cells(self, cfg, model):
        return [
            Cell(
                key=("blackscholes", i),
                fn=_simulate,
                kwargs=dict(
                    seed=derive_seed(42, "blackscholes", i),
                    config_obj=cfg,
                    model=model,
                    max_time_s=0.2,  # long enough for the task to finish
                ),
            )
            for i in range(4)
        ]

    def test_jobs4_identical_to_serial(self, cfg, model):
        serial = run_cells(self._cells(cfg, model), jobs=1)
        parallel = run_cells(self._cells(cfg, model), jobs=4)
        assert list(serial) == list(parallel)
        for key in serial:
            # byte-identical metrics, not merely approximately equal
            assert serial[key] == parallel[key], key

    def test_repeated_serial_runs_identical(self, cfg, model):
        a = run_cells(self._cells(cfg, model), jobs=1)
        b = run_cells(self._cells(cfg, model), jobs=1)
        assert a == b


# -- retry / timeout / checkpoint (the repro.faults hardening layer) -------------


def _flaky(counter_path, succeed_on):
    """Fail until attempt ``succeed_on``; a tmp file counts real invocations."""
    path = Path(counter_path)
    attempt = int(path.read_text()) + 1 if path.exists() else 1
    path.write_text(str(attempt))
    if attempt < succeed_on:
        raise RuntimeError(f"flaky attempt {attempt}")
    return attempt


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _count_and_square(counter_path, x):
    path = Path(counter_path)
    path.write_text(str(int(path.read_text()) + 1 if path.exists() else 1))
    return x * x


def _enc(x):
    return {"payload": x}


def _dec(d):
    return d["payload"]


class TestRetryPolicy:
    def test_delay_is_pure_and_deterministic(self):
        policy = RetryPolicy(retries=3, seed=7)
        assert policy.delay_s("cell", 1) == policy.delay_s("cell", 1)
        assert policy.delay_s("cell", 1) != policy.delay_s("cell", 2)
        assert policy.delay_s("cell", 1) != policy.delay_s("other", 1)

    def test_delay_bounded_by_capped_exponential(self):
        policy = RetryPolicy(retries=8, backoff_base_s=0.05, backoff_cap_s=0.4)
        for attempt in range(1, 9):
            bound = min(0.4, 0.05 * 2 ** (attempt - 1))
            delay = policy.delay_s(("k", attempt), attempt)
            assert 0.0 <= delay <= bound

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay_s("k", 0)

    def test_seed_changes_schedule(self):
        a = RetryPolicy(seed=1).delay_s("k", 1)
        b = RetryPolicy(seed=2).delay_s("k", 1)
        assert a != b


class TestRetryExecution:
    def test_serial_retry_recovers_flaky_cell(self, tmp_path):
        counter = tmp_path / "attempts"
        cells = [
            Cell(
                key="flaky",
                fn=_flaky,
                kwargs={"counter_path": str(counter), "succeed_on": 3},
            )
        ]
        policy = RetryPolicy(retries=2, backoff_base_s=1e-4)
        assert run_cells(cells, jobs=1, retry=policy) == {"flaky": 3}
        assert counter.read_text() == "3"

    def test_exhausted_retries_propagate(self, tmp_path):
        counter = tmp_path / "attempts"
        cells = [
            Cell(
                key="flaky",
                fn=_flaky,
                kwargs={"counter_path": str(counter), "succeed_on": 5},
            )
        ]
        policy = RetryPolicy(retries=1, backoff_base_s=1e-4)
        with pytest.raises(RuntimeError, match="flaky attempt 2"):
            run_cells(cells, jobs=1, retry=policy)

    def test_pool_retry_recovers_flaky_cell(self, tmp_path):
        counter = tmp_path / "attempts"
        cells = [
            Cell(
                key="flaky",
                fn=_flaky,
                kwargs={"counter_path": str(counter), "succeed_on": 2},
            ),
            Cell(key="ok", fn=_square, kwargs={"x": 3}),
        ]
        policy = RetryPolicy(retries=1, backoff_base_s=1e-4)
        results = run_cells(cells, jobs=2, retry=policy)
        assert results == {"flaky": 2, "ok": 9}


class TestTimeout:
    def test_pool_timeout_raises_cell_timeout(self):
        cells = [
            Cell(key="hang", fn=_sleep_then_return, kwargs={"seconds": 60, "value": 1}),
            Cell(key="fast", fn=_square, kwargs={"x": 2}),
        ]
        with pytest.raises(CellTimeoutError):
            run_cells(cells, jobs=2, timeout_s=0.5)

    def test_fast_cells_unaffected_by_generous_timeout(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(4)]
        assert run_cells(cells, jobs=2, timeout_s=30.0) == {
            i: i * i for i in range(4)
        }


def _checkpointed(path, key, result):
    """A checkpoint file holding one finished cell."""
    checkpoint = SweepCheckpoint(path)
    checkpoint.append(key, result)
    checkpoint.close()


class TestSweepCheckpoint:
    def test_load_missing_file_is_empty(self, tmp_path):
        assert SweepCheckpoint(tmp_path / "none.jsonl").load() == {}

    def test_append_load_roundtrip(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.append(("a", 1), {"v": 1.5})
        ckpt.append(("b", 2), {"v": 2.5})
        assert ckpt.load() == {
            canonical_key(("a", 1)): {"v": 1.5},
            canonical_key(("b", 2)): {"v": 2.5},
        }

    def test_torn_tail_tolerated(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.append("good", {"v": 1})
        with ckpt.path.open("a") as handle:
            handle.write('{"key": "torn", "res')  # kill mid-write
        assert ckpt.load() == {canonical_key("good"): {"v": 1}}

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        """A resumed sweep appends after the torn tail; a second resume
        must still load every record (the fragment is cut on load)."""
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.append("good", {"v": 1})
        with ckpt.path.open("a") as handle:
            handle.write('{"key": "torn", "res')
        ckpt.load()
        ckpt.append("next", {"v": 2})
        assert ckpt.load() == {
            canonical_key("good"): {"v": 1},
            canonical_key("next"): {"v": 2},
        }

    def test_corrupt_middle_line_rejected(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.append("a", 1)
        with ckpt.path.open("a") as handle:
            handle.write("GARBAGE\n")
        ckpt.append("b", 2)
        with pytest.raises(ValueError, match=r"c\.jsonl:3: undecodable"):
            ckpt.load()

    def test_non_object_record_rejected(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.path.write_text('[1, 2]\n{"key": "\\"a\\"", "result": 1}\n')
        with pytest.raises(ValueError, match=r"c\.jsonl:1: expected an object"):
            ckpt.load()

    def test_record_without_key_rejected(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl")
        ckpt.append("a", 1)
        with ckpt.path.open("a") as handle:
            handle.write('{"kind": "cell", "result": 2}\n')
        with pytest.raises(ValueError, match=r"c\.jsonl:3: missing fields.*'key'"):
            ckpt.load()

    def test_finalize_is_order_canonical(self, tmp_path):
        a = SweepCheckpoint(tmp_path / "a.jsonl")
        b = SweepCheckpoint(tmp_path / "b.jsonl")
        a.append("x", 1)
        a.append("y", 2)
        b.append("y", 2)  # completion order differs
        b.append("x", 1)
        order = [("x", 1), ("y", 2)]
        a.finalize(order)
        b.finalize(order)
        assert a.path.read_bytes() == b.path.read_bytes()


class TestRunCellsCheckpointing:
    def _cells(self, counter):
        return [
            Cell(
                key=i,
                fn=_count_and_square,
                kwargs={"counter_path": str(counter), "x": i},
            )
            for i in range(3)
        ]

    def test_checkpoint_written_and_finalized(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        results = run_cells(self._cells(tmp_path / "n1"), checkpoint_path=path)
        assert results == {0: 0, 1: 1, 2: 4}
        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {"kind": "header", "n": 3, "version": 1}
        assert [json.loads(l)["key"] for l in lines] == ["0", "1", "2"]

    def test_resume_skips_done_cells(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        counter = tmp_path / "n2"
        run_cells(self._cells(counter), checkpoint_path=path)
        assert counter.read_text() == "3"
        # resume: nothing recomputed, same collation
        results = run_cells(
            self._cells(counter), checkpoint_path=path, resume=True
        )
        assert counter.read_text() == "3"
        assert results == {0: 0, 1: 1, 2: 4}

    def test_partial_checkpoint_resumes_only_missing(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        counter = tmp_path / "n3"
        _checkpointed(path, 1, 1)  # cell 1 already done
        results = run_cells(
            self._cells(counter), checkpoint_path=path, resume=True
        )
        assert counter.read_text() == "2"  # only cells 0 and 2 ran
        assert results == {0: 0, 1: 1, 2: 4}
        # finalized file is in submission order despite the odd history
        lines = path.read_text().splitlines()[1:]
        assert [json.loads(l)["key"] for l in lines] == ["0", "1", "2"]

    def test_without_resume_existing_checkpoint_is_discarded(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _checkpointed(path, 1, 999)  # stale result
        results = run_cells(self._cells(tmp_path / "n4"), checkpoint_path=path)
        assert results[1] == 1  # recomputed, stale value gone

    def test_fresh_results_pass_through_encode_decode(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = [Cell(key="k", fn=_square, kwargs={"x": 4})]
        results = run_cells(
            cells, checkpoint_path=path, encode=_enc, decode=_dec
        )
        assert results == {"k": 16}
        stored = json.loads(path.read_text().splitlines()[1])
        assert stored["result"] == {"payload": 16}

    def test_parallel_checkpoint_matches_serial(self, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        pool_path = tmp_path / "pool.jsonl"
        cells = lambda: [
            Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(5)
        ]
        a = run_cells(cells(), jobs=1, checkpoint_path=serial_path)
        b = run_cells(cells(), jobs=3, checkpoint_path=pool_path)
        assert a == b
        assert serial_path.read_bytes() == pool_path.read_bytes()


class TestResolvePolicy:
    """The ``jobs`` worker count maps to serial or fork."""

    def test_explicit_jobs_keep_old_semantics(self):
        from repro.parallel import _resolve_policy

        assert _resolve_policy(1, 4) == ("serial", 1)
        assert _resolve_policy(3, 4) == ("fork", 3)
        assert _resolve_policy(3, 1) == ("serial", 1)

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([Cell(key=0, fn=_square, kwargs={"x": 2})], jobs="fast")

    @pytest.mark.parametrize("jobs", ["auto", "2", True, False, 2.0, None])
    def test_non_int_jobs_rejected(self, jobs, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _checkpointed(path, 0, 4)
        cells = [Cell(key=0, fn=_square, kwargs={"x": 2})]
        with pytest.raises(ValueError, match="jobs"):
            run_cells(cells, jobs=jobs, checkpoint_path=path)
        # rejected before the stale checkpoint is discarded
        assert path.exists()
