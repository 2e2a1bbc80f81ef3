"""Unit tests for address mapping and message flit accounting."""

import pytest

from repro.common.addresses import AddressMap
from repro.common.messages import CONTROL_FLITS, Message
from repro.common.types import MsgKind
from repro.errors import ConfigError


class TestAddressMap:
    def test_block_alignment(self):
        am = AddressMap(block_bytes=128, n_l2_banks=8)
        assert am.block_of(0) == 0
        assert am.block_of(127) == 0
        assert am.block_of(128) == 128
        assert am.block_of(0x12345) == (0x12345 // 128) * 128

    def test_bank_interleaving(self):
        am = AddressMap(block_bytes=128, n_l2_banks=4)
        banks = [am.bank_of(i * 128) for i in range(8)]
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_same_block(self):
        am = AddressMap()
        assert am.same_block(0, 127)
        assert not am.same_block(127, 128)

    def test_addresses_in_same_block_map_to_same_bank(self):
        am = AddressMap(block_bytes=128, n_l2_banks=8)
        for base in (0, 128, 4096, 999 * 128):
            assert am.bank_of(base) == am.bank_of(base + 127)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigError):
            AddressMap(block_bytes=100)

    def test_rejects_nonpositive_banks(self):
        with pytest.raises(ConfigError):
            AddressMap(n_l2_banks=0)


class TestMessageFlits:
    def test_control_message_size(self):
        msg = Message(MsgKind.GETS, 0, ("core", 0), ("l2", 0))
        assert msg.flits(block_bytes=128, flit_bytes=4) == CONTROL_FLITS

    def test_data_message_includes_block(self):
        msg = Message(MsgKind.DATA, 0, ("l2", 0), ("core", 0))
        assert msg.flits(128, 4) == CONTROL_FLITS + 32

    def test_renew_is_control_only(self):
        msg = Message(MsgKind.RENEW, 0, ("l2", 0), ("core", 0))
        assert msg.flits(128, 4) == CONTROL_FLITS

    def test_write_carries_data(self):
        msg = Message(MsgKind.WRITE, 0, ("core", 0), ("l2", 0))
        assert msg.flits(128, 4) > CONTROL_FLITS

    def test_unique_ids(self):
        a = Message(MsgKind.ACK, 0, ("l2", 0), ("core", 0))
        b = Message(MsgKind.ACK, 0, ("l2", 0), ("core", 0))
        assert a.msg_id != b.msg_id

    @pytest.mark.parametrize("kind,carries", [
        (MsgKind.GETS, False), (MsgKind.ACK, False), (MsgKind.INV, False),
        (MsgKind.INV_ACK, False), (MsgKind.DATA, True), (MsgKind.WRITE, True),
        (MsgKind.ATOMIC, True), (MsgKind.GETX, True),
    ])
    def test_carries_data_matrix(self, kind, carries):
        assert kind.carries_data is carries
