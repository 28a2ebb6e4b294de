"""Ethereum gas schedule (post-Berlin constants).

The paper's headline cost claim (Section III) is that keeping the
membership *tree off-chain* and only an ordered list of public keys
on-chain makes registration and deletion **constant** in gas, versus
**logarithmic** (tree-depth many storage writes) for the original RLN
design — "optimizing gas consumption by an order of magnitude". To
reproduce that claim with the same mechanism as mainnet, contract
execution in :mod:`repro.eth` is metered with the real constants from
EIP-2929 (cold/warm access) and EIP-2200/EIP-3529 (SSTORE pricing and
refund caps).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GasSchedule:
    """Cost constants, in gas units."""

    tx_base: int = 21_000
    calldata_zero_byte: int = 4
    calldata_nonzero_byte: int = 16
    sstore_set: int = 20_000  # zero -> non-zero
    sstore_update: int = 2_900  # non-zero -> non-zero (cold slot, EIP-2929)
    sstore_clear_refund: int = 4_800  # EIP-3529 refund for non-zero -> zero
    sload_cold: int = 2_100
    sload_warm: int = 100
    log_base: int = 375
    log_topic: int = 375
    log_data_byte: int = 8
    #: One zk-friendly hash (Poseidon/MiMC) evaluated *in the EVM*.
    #: keccak is 3 orders of magnitude cheaper, but the membership tree
    #: must use the circuit hash or membership proofs would not verify;
    #: ~50k gas matches deployed Semaphore/Tornado-style Poseidon
    #: libraries and is the dominant cost of on-chain tree updates.
    poseidon_hash: int = 50_000
    call_value_transfer: int = 9_000
    #: Max fraction of used gas refundable (EIP-3529: 1/5).
    max_refund_quotient: int = 5

    def calldata_cost(self, data_bytes: int, zero_fraction: float = 0.3) -> int:
        """Approximate calldata gas for ``data_bytes`` bytes of payload."""
        zeros = int(data_bytes * zero_fraction)
        nonzeros = data_bytes - zeros
        return zeros * self.calldata_zero_byte + nonzeros * self.calldata_nonzero_byte

    def log_cost(self, topics: int, data_bytes: int) -> int:
        return (
            self.log_base
            + topics * self.log_topic
            + data_bytes * self.log_data_byte
        )


#: The schedule used unless a test overrides it.
DEFAULT_GAS_SCHEDULE = GasSchedule()


class GasMeter:
    """Accumulates gas and refunds for one transaction."""

    def __init__(self, schedule: GasSchedule = DEFAULT_GAS_SCHEDULE) -> None:
        self.schedule = schedule
        self.used = 0
        self.refund = 0
        self._warm_slots: set = set()

    def charge(self, amount: int) -> None:
        self.used += amount

    def charge_sload(self, slot) -> None:
        if slot in self._warm_slots:
            self.charge(self.schedule.sload_warm)
        else:
            self._warm_slots.add(slot)
            self.charge(self.schedule.sload_cold)

    def charge_sstore(self, slot, was_zero: bool, now_zero: bool) -> None:
        if was_zero and not now_zero:
            self.charge(self.schedule.sstore_set)
        else:
            self.charge(self.schedule.sstore_update)
            if not was_zero and now_zero:
                self.refund += self.schedule.sstore_clear_refund
        self._warm_slots.add(slot)

    def finalize(self) -> int:
        """Total gas after capping refunds (EIP-3529)."""
        capped_refund = min(
            self.refund, self.used // self.schedule.max_refund_quotient
        )
        return self.used - capped_refund
