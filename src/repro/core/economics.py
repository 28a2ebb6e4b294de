"""Economic accounting for staking and slashing.

The paper's incentive claim (Sections I and IV): spammers are
*financially punished* — part of their stake is burnt — and "those who
find spammers are rewarded", with the guarantee enforced
cryptographically (the reporter needs the reconstructed secret key,
which only a genuine double-signal reveals). This module turns chain
state into a readable report so tests and benchmarks can assert the
flow of funds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..eth.chain import Blockchain
from ..eth.contracts import MembershipContractBase
from .peer import WakuRlnRelayPeer


@dataclass(frozen=True)
class PeerLedger:
    """Net position of one peer."""

    node_id: str
    balance: int
    staked: bool
    net_flow: int  # balance - initial endowment


@dataclass(frozen=True)
class EconomicsReport:
    """System-wide view of stake flows after a simulation."""

    stake_wei: int
    burn_fraction: float
    total_burnt: int
    contract_balance: int
    ledgers: List[PeerLedger]

    def ledger(self, node_id: str) -> PeerLedger:
        for entry in self.ledgers:
            if entry.node_id == node_id:
                return entry
        raise KeyError(node_id)

    def attackers_net_loss(self, attacker_ids: List[str]) -> int:
        """Total wei lost by the given peers (positive = lost money)."""
        return -sum(self.ledger(a).net_flow for a in attacker_ids)


def build_report(
    chain: Blockchain,
    contract: MembershipContractBase,
    peers: List[WakuRlnRelayPeer],
    initial_balances: Dict[str, int],
) -> EconomicsReport:
    """Snapshot the current flow of funds."""
    ledgers = []
    for peer in peers:
        balance = chain.get_account(peer.account).balance
        ledgers.append(
            PeerLedger(
                node_id=peer.node_id,
                balance=balance,
                staked=peer.is_registered,
                net_flow=balance - initial_balances[peer.node_id],
            )
        )
    return EconomicsReport(
        stake_wei=contract.stake_wei,
        burn_fraction=contract.burn_fraction,
        total_burnt=chain.burnt_wei,
        contract_balance=contract.balance,
        ledgers=ledgers,
    )
