"""Determinism: the whole stack — simulator, network, GCS, replication,
reconfiguration, fault injection — must be a pure function of the seed.

Two chaos runs with the same ``ChaosConfig`` must produce byte-identical
trace event sequences, the same fault schedule, and equal metrics.  This
is what makes every bug report in this repo reproducible ("seed N
fails") and what the audit's committed golden record
(``AUDIT_golden.json``) builds on.

The seeds below are pinned, not sampled: each exercises a different
fault mix at moderate intensity, and a regression in any shared-state /
iteration-order hazard (dict ordering, set iteration, RNG sharing)
shows up as a trace diff with a precise first divergence point.
"""

import pytest

from repro.faults import ChaosConfig, ChaosEngine

PINNED_SEEDS = (3, 11, 42)


def run_chaos(seed: int) -> "ChaosReport":
    config = ChaosConfig(
        seed=seed,
        intensity=0.6,
        n_sites=4,
        db_size=40,
        duration=1.5,
        arrival_rate=60.0,
    )
    return ChaosEngine(config).run()


def trace_lines(report) -> str:
    assert report.tracer is not None
    return "\n".join(str(e) for e in report.tracer.events)


class TestChaosDeterminism:
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_same_seed_same_run(self, seed):
        first = run_chaos(seed)
        second = run_chaos(seed)
        # The fault schedule itself (what chaos injected, when).
        assert first.events == second.events
        # The full interleaved trace, byte for byte.  Comparing the
        # joined strings (not the lists) makes a failure render as a
        # readable unified diff with the first divergent line.
        assert trace_lines(first) == trace_lines(second)
        # Aggregate metrics, including events_processed — a catch-all
        # for any divergence the tracer does not capture.
        assert first.metrics == second.metrics
        assert first.ok and second.ok

    def test_different_seeds_differ(self):
        """Guard against the trivial failure mode where the trace is
        identical because nothing seed-dependent is recorded at all."""
        traces = {trace_lines(run_chaos(seed)) for seed in PINNED_SEEDS}
        assert len(traces) == len(PINNED_SEEDS)
