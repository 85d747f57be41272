"""Coverage of :class:`repro.evaluation.reporting.ProgressReporter`.

The reporter sits on every sweep's hot path (runner, CLI, benches) and its
wall-clock timer now feeds user-facing throughput lines, so its contract —
tick/finish output, zero-item edge case, TTY vs pipe behaviour, elapsed
timing, the decile throttling and quiet mode — is pinned here.
"""

import io
import time

from repro.evaluation.reporting import ProgressReporter


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestProgressReporterOutput:
    def test_tick_and_finish_sequence_on_pipe(self):
        sink = io.StringIO()
        reporter = ProgressReporter("sweep", stream=sink)
        reporter.start(2)
        reporter.update(1, 2)
        reporter.update(2, 2)
        reporter.finish("2 configs")
        lines = sink.getvalue().splitlines()
        assert lines[0] == "sweep: 0/2"
        assert "sweep: 1/2" in lines
        assert "sweep: 2/2" in lines
        assert lines[-1] == "sweep: done — 2 configs"

    def test_finish_without_summary(self):
        sink = io.StringIO()
        reporter = ProgressReporter("job", stream=sink)
        reporter.start(1)
        reporter.finish()
        assert sink.getvalue().splitlines()[-1] == "job: done"

    def test_zero_items_start_then_finish(self):
        """An empty sweep (empty grid) must not divide or crash."""
        sink = io.StringIO()
        reporter = ProgressReporter("empty", stream=sink)
        reporter.start(0)
        reporter.update(0, 0)
        reporter.finish("0 configs")
        lines = sink.getvalue().splitlines()
        assert lines[0] == "empty: 0/0"
        assert lines[-1] == "empty: done — 0 configs"

    def test_tty_rewrites_in_place(self):
        sink = _TtyStream()
        reporter = ProgressReporter("tty", stream=sink)
        reporter.start(2)
        reporter.update(1, 2)
        reporter.finish()
        output = sink.getvalue()
        # Carriage-return + erase-line rewrites; only the final line ends in \n.
        assert output.count("\r\x1b[2K") == 3
        assert output.endswith("tty: done\n")
        assert output.count("\n") == 1


class TestProgressReporterTiming:
    def test_elapsed_is_zero_before_start(self):
        assert ProgressReporter("t", stream=io.StringIO()).elapsed_seconds == 0.0

    def test_elapsed_runs_after_start_and_freezes_at_finish(self):
        reporter = ProgressReporter("t", stream=io.StringIO())
        reporter.start(1)
        time.sleep(0.02)
        running = reporter.elapsed_seconds
        assert running >= 0.02
        reporter.finish()
        frozen = reporter.elapsed_seconds
        assert frozen >= running
        time.sleep(0.02)
        assert reporter.elapsed_seconds == frozen

    def test_restart_resets_the_timer(self):
        reporter = ProgressReporter("t", stream=io.StringIO())
        reporter.start(1)
        time.sleep(0.02)
        reporter.finish()
        first = reporter.elapsed_seconds
        reporter.start(1)
        assert reporter.elapsed_seconds < first

    def test_quiet_reporter_still_times(self):
        reporter = ProgressReporter("t", quiet=True)
        reporter.start(1)
        time.sleep(0.01)
        reporter.finish()
        assert reporter.elapsed_seconds >= 0.01


class TestProgressReporterThrottling:
    def test_non_tty_prints_deciles_only(self):
        sink = io.StringIO()
        reporter = ProgressReporter("sweep", stream=sink)
        reporter.start(100)
        for done in range(1, 101):
            reporter.update(done, 100)
        reporter.finish("ok")
        lines = sink.getvalue().splitlines()
        assert len(lines) <= 15  # ~1 line per decile, not per update
        assert any("100/100" in line for line in lines)

    def test_quiet_swallows_everything(self):
        reporter = ProgressReporter("sweep", quiet=True)
        reporter.start(10)
        reporter.update(5, 10)
        reporter.finish()  # must not touch stderr or raise

    def test_track_yields_in_order_and_reports_each_completion(self):
        sink = io.StringIO()
        reporter = ProgressReporter("grid", stream=sink)
        assert [config * 2 for config in reporter.track([1, 2, 3])] == [2, 4, 6]
        lines = sink.getvalue().splitlines()
        assert lines == ["grid: 0/3", "grid: 1/3", "grid: 2/3", "grid: 3/3", "grid: done — 3 configs"]
