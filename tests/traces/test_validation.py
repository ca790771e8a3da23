"""Trace fidelity validation."""


from repro.traces import validate_trace
from repro.traces.model import IOKind, IORequest
from repro.traces.validation import Check, ValidationReport
from tests.oracle import columns_of


class TestCheck:
    def test_pass_within_band(self):
        assert Check("x", 0.5, 0.4, 0.6).passed

    def test_fail_outside_band(self):
        assert not Check("x", 0.7, 0.4, 0.6).passed

    def test_boundaries_inclusive(self):
        assert Check("x", 0.4, 0.4, 0.6).passed
        assert Check("x", 0.6, 0.4, 0.6).passed


class TestReport:
    def test_rows_shape(self):
        report = ValidationReport(
            [Check("a", 0.5, 0.0, 1.0), Check("b", 2.0, 0.0, 1.0)]
        )
        rows = report.rows()
        assert rows[0][-1] == "ok"
        assert rows[1][-1] == "FAIL"
        assert not report.passed
        assert len(report.failures()) == 1


class TestSyntheticTracePasses:
    def test_generator_output_passes_all_checks(self, tiny_trace):
        """The calibrated generator must satisfy its own target bands."""
        report = validate_trace(tiny_trace, days=8)
        assert report.passed, [c.name for c in report.failures()]

    def test_days_inferred(self, tiny_trace):
        report = validate_trace(tiny_trace)
        assert report.passed, [c.name for c in report.failures()]


class TestUnfaithfulTraceFails:
    def test_uniform_workload_flunks_skew(self):
        """A skew-free trace must fail the O1 checks."""
        requests = [
            IORequest(
                issue_time=float(i * 17 % 86400) + (i % 3) * 86400,
                completion_time=float(i * 17 % 86400) + (i % 3) * 86400 + 0.01,
                server_id=0,
                volume_id=0,
                block_offset=(i % 500) * 16,
                block_count=8,
                kind=IOKind.READ,
            )
            for i in range(3000)
        ]
        requests.sort(key=lambda r: r.issue_time)
        report = validate_trace(columns_of(requests), days=3)
        assert not report.passed
        failing = {c.name for c in report.failures()}
        assert any(name.startswith("O1") for name in failing)

    def test_write_only_trace_flunks_mix(self):
        requests = [
            IORequest(
                issue_time=float(i),
                completion_time=float(i) + 0.01,
                server_id=0,
                volume_id=0,
                block_offset=i * 16,
                block_count=8,
                kind=IOKind.WRITE,
            )
            for i in range(200)
        ]
        report = validate_trace(columns_of(requests), days=1)
        assert any(
            c.name == "mix: read fraction of blocks" and not c.passed
            for c in report.checks
        )
