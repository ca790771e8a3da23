"""Trace data model: packed addresses, requests, block expansion."""

import pytest
from hypothesis import given, strategies as st

from repro.traces.model import (
    IOKind,
    IORequest,
    Trace,
    pack_address,
    server_of_address,
    unpack_address,
    volume_of_address,
    MAX_BLOCK_OFFSET,
    MAX_VOLUME_ID,
)


def make_request(**overrides):
    defaults = dict(
        issue_time=10.0,
        completion_time=10.5,
        server_id=3,
        volume_id=1,
        block_offset=100,
        block_count=4,
        kind=IOKind.READ,
    )
    defaults.update(overrides)
    return IORequest(**defaults)


class TestPackedAddresses:
    def test_roundtrip(self):
        address = pack_address(5, 2, 12345)
        assert unpack_address(address) == (5, 2, 12345)

    def test_accessors(self):
        address = pack_address(12, 3, 999)
        assert server_of_address(address) == 12
        assert volume_of_address(address) == 3

    def test_consecutive_blocks_are_consecutive_addresses(self):
        base = pack_address(1, 1, 50)
        assert pack_address(1, 1, 51) == base + 1

    def test_different_servers_never_collide(self):
        a = pack_address(1, 0, 0)
        b = pack_address(2, 0, 0)
        assert a != b

    def test_limits_enforced(self):
        with pytest.raises(ValueError):
            pack_address(0, MAX_VOLUME_ID + 1, 0)
        with pytest.raises(ValueError):
            pack_address(0, 0, MAX_BLOCK_OFFSET + 1)
        with pytest.raises(ValueError):
            pack_address(-1, 0, 0)

    @given(
        st.integers(min_value=0, max_value=2**15),
        st.integers(min_value=0, max_value=MAX_VOLUME_ID),
        st.integers(min_value=0, max_value=MAX_BLOCK_OFFSET),
    )
    def test_roundtrip_property(self, server, volume, offset):
        assert unpack_address(pack_address(server, volume, offset)) == (
            server,
            volume,
            offset,
        )


class TestIORequest:
    def test_byte_count(self):
        assert make_request(block_count=8).byte_count == 4096

    def test_kind_flags(self):
        assert make_request(kind=IOKind.READ).is_read
        assert make_request(kind=IOKind.WRITE).is_write

    def test_rejects_nonpositive_block_count(self):
        with pytest.raises(ValueError):
            make_request(block_count=0)

    def test_rejects_completion_before_issue(self):
        with pytest.raises(ValueError):
            make_request(completion_time=9.0)

    def test_addresses_are_contiguous(self):
        request = make_request(block_count=3)
        addresses = list(request.addresses())
        assert addresses == [addresses[0], addresses[0] + 1, addresses[0] + 2]

    def test_addresses_match_server_volume(self):
        request = make_request(server_id=7, volume_id=2)
        for address in request.addresses():
            assert server_of_address(address) == 7
            assert volume_of_address(address) == 2


class TestBlockExpansion:
    def test_one_access_per_block(self):
        request = make_request(block_count=5)
        assert len(list(request.block_accesses())) == 5

    def test_completion_times_linearly_interpolated(self):
        # Section 4's interpolation rule for multi-block requests.
        request = make_request(
            issue_time=0.0, completion_time=4.0, block_count=4
        )
        completions = [a.completion_time for a in request.block_accesses()]
        assert completions == [1.0, 2.0, 3.0, 4.0]

    def test_last_block_completes_at_request_completion(self):
        request = make_request(block_count=7)
        last = list(request.block_accesses())[-1]
        assert last.completion_time == pytest.approx(request.completion_time)

    def test_single_block_request(self):
        request = make_request(block_count=1)
        (access,) = request.block_accesses()
        assert access.completion_time == pytest.approx(request.completion_time)
        assert access.time == request.issue_time

    def test_access_inherits_kind_and_origin(self):
        request = make_request(kind=IOKind.WRITE, server_id=4, volume_id=0)
        for access in request.block_accesses():
            assert access.is_write
            assert access.server_id == 4
            assert access.volume_id == 0


class TestTrace:
    def test_validate_accepts_sorted(self):
        trace = Trace([make_request(issue_time=1.0, completion_time=1.1),
                       make_request(issue_time=2.0, completion_time=2.1)])
        trace.validate()

    def test_validate_rejects_unsorted(self):
        trace = Trace([make_request(issue_time=2.0, completion_time=2.1),
                       make_request(issue_time=1.0, completion_time=1.1)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_total_blocks(self):
        trace = Trace([make_request(block_count=3), make_request(block_count=5)])
        assert trace.total_blocks() == 8

    def test_duration_empty(self):
        assert Trace([]).duration == 0.0
