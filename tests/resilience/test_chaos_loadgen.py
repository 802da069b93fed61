"""Load-generator chaos mode: the server survives hostile traffic."""

import pytest

from repro.core.ldme import LDME
from repro.graph.generators import web_host_graph
from repro.serve import ChaosConfig, ServerConfig, ServerThread, run_load


@pytest.fixture(scope="module")
def summary():
    graph = web_host_graph(num_hosts=4, host_size=8, seed=1)
    return LDME(k=4, iterations=5, seed=0).summarize(graph)


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop_every=-1)
        assert not ChaosConfig().enabled
        assert ChaosConfig(drop_every=5).enabled


class TestChaosLoad:
    def test_queries_complete_under_chaos(self, summary):
        """Forced reconnects + garbage frames mid-load: every query still
        completes, the server stays up, and chaos events are counted."""
        config = ServerConfig()
        with ServerThread(summary, config) as handle:
            report = run_load(
                "127.0.0.1", handle.port,
                num_queries=120, concurrency=3, seed=0,
                chaos=ChaosConfig(drop_every=10, junk_every=15),
            )
            assert report.errors == 0
            assert sum(report.op_counts.values()) == 120
            assert report.chaos_drops > 0
            assert report.chaos_junk > 0
            # Server observed and survived the garbage frames.
            stats = handle.server.stats()
            assert stats["metrics"]["counters"].get(
                "errors_bad_frame", 0
            ) >= 1
            assert "chaos" in report.format()

    def test_no_chaos_reports_zero(self, summary):
        config = ServerConfig()
        with ServerThread(summary, config) as handle:
            report = run_load(
                "127.0.0.1", handle.port,
                num_queries=40, concurrency=2, seed=0,
            )
            assert report.chaos_drops == 0
            assert report.chaos_junk == 0
            assert "chaos" not in report.format()
