"""Tests for the DPrio lottery case study (App. C)."""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
from repro.core.errors import ChoreographyRuntimeError
from repro.protocols.dprio import DEFAULT_FIELD, CommitmentError, LotteryOutcome, lottery
from repro.runtime.central import CentralOp, run_centralized

SERVERS = ["sv1", "sv2", "sv3"]
CLIENTS = ["c1", "c2", "c3", "c4"]
ANALYST = "analyst"
CENSUS = [ANALYST] + SERVERS + CLIENTS
SECRETS = {"c1": 101, "c2": 202, "c3": 303, "c4": 404}


def run_lottery(seed=0, servers=SERVERS, clients=CLIENTS, secrets=SECRETS, timeout=30.0, **kwargs):
    census = [ANALYST] + list(servers) + list(clients)

    def chor(op):
        return lottery(
            op, servers, clients, ANALYST, client_secrets=secrets, seed=seed, **kwargs
        )

    with ChoreoEngine(census, timeout=timeout) as engine:
        return engine.run(chor)


class TestLotteryCorrectness:
    def test_analyst_reconstructs_exactly_one_client_secret(self):
        result = run_lottery(seed=1)
        outcome = result.value_at(ANALYST)
        assert isinstance(outcome, LotteryOutcome)
        assert outcome.value in SECRETS.values()
        assert outcome.field == DEFAULT_FIELD

    def test_only_the_analyst_learns_the_outcome(self):
        result = run_lottery(seed=1)
        for location in SERVERS + CLIENTS:
            assert result.value_at(location) is None

    def test_different_seeds_can_choose_different_clients(self):
        winners = {run_lottery(seed=seed).value_at(ANALYST).value for seed in range(8)}
        assert len(winners) > 1
        assert winners <= set(SECRETS.values())

    def test_deterministic_per_seed(self):
        assert (
            run_lottery(seed=3).value_at(ANALYST).value
            == run_lottery(seed=3).value_at(ANALYST).value
        )

    @pytest.mark.parametrize("n_servers,n_clients", [(2, 2), (2, 5), (4, 3)])
    def test_census_polymorphism_over_group_sizes(self, n_servers, n_clients):
        servers = [f"s{i}" for i in range(n_servers)]
        clients = [f"c{i}" for i in range(n_clients)]
        secrets = {client: 1000 + index for index, client in enumerate(clients)}
        result = run_lottery(seed=2, servers=servers, clients=clients, secrets=secrets)
        assert result.value_at(ANALYST).value in secrets.values()

    def test_random_secrets_when_none_supplied(self):
        result = run_lottery(seed=5, secrets=None)
        outcome = result.value_at(ANALYST)
        assert 0 <= outcome.value < DEFAULT_FIELD

    def test_centralized_run_matches_projected_run(self):
        projected = run_lottery(seed=4).value_at(ANALYST)
        central = run_centralized(
            lambda op: lottery(op, SERVERS, CLIENTS, ANALYST, client_secrets=SECRETS, seed=4),
            CENSUS,
        )
        assert central.peek() == projected


#: (servers, clients) group sizes the analyst-traffic shape is checked over.
GROUP_SIZES = [(SERVERS, CLIENTS)] + [
    ([f"s{i}" for i in range(n_servers)], [f"c{i}" for i in range(n_clients)])
    for n_servers, n_clients in [(2, 2), (3, 8), (5, 8)]
]


class TestLotterySecurityShape:
    @pytest.mark.parametrize("servers,clients", GROUP_SIZES)
    def test_analyst_hears_one_share_per_server_and_nothing_from_clients(
        self, servers, clients
    ):
        secrets = {client: 100 + index for index, client in enumerate(clients)}
        result = run_lottery(seed=7, servers=servers, clients=clients, secrets=secrets)
        assert result.value_at(ANALYST).value in secrets.values()
        for client in clients:
            assert result.stats.messages.get((client, ANALYST), 0) == 0
        for server in servers:
            assert result.stats.messages.get((server, ANALYST), 0) == 1
        assert result.stats.messages_received_by(ANALYST) == len(servers)

    def test_each_client_sends_one_share_per_server(self):
        result = run_lottery(seed=1)
        for client in CLIENTS:
            assert result.stats.messages_sent_by(client) == len(SERVERS)

    def test_commit_before_reveal_ordering(self):
        """Servers exchange 3 rounds of server↔server traffic: commitments,
        salts, and openings — i.e. 3·s·(s−1) messages among servers."""
        result = run_lottery(seed=1)
        server_to_server = sum(
            count
            for (src, dst), count in result.stats.snapshot().items()
            if src in SERVERS and dst in SERVERS
        )
        s = len(SERVERS)
        assert server_to_server == 3 * s * (s - 1)

    def test_cheating_server_is_detected(self):
        with pytest.raises(ChoreographyRuntimeError) as err:
            run_lottery(seed=1, cheating_server="sv2", timeout=2.0)
        assert isinstance(err.value.original, CommitmentError)

    def test_honest_run_raises_nothing_even_with_adversarial_seed_sweep(self):
        for seed in range(5):
            run_lottery(seed=seed)


class TestLotteryFairness:
    @pytest.mark.parametrize("n_clients,runs,max_share", [(3, 30, 0.7), (4, 60, 0.5)])
    def test_winner_distribution_is_roughly_uniform(self, n_clients, runs, max_share):
        """With at least one honest server the chosen index is uniform; over
        many seeds every client should win at least once and no client should
        dominate."""
        clients = [f"c{i}" for i in range(1, n_clients + 1)]
        secrets = {client: index for index, client in enumerate(clients, start=1)}
        wins = {value: 0 for value in secrets.values()}
        for seed in range(runs):
            outcome = run_centralized(
                lambda op, _seed=seed: lottery(
                    op, ["s1", "s2"], clients, ANALYST, client_secrets=secrets, seed=_seed
                ),
                [ANALYST, "s1", "s2"] + clients,
            )
            wins[outcome.peek().value] += 1
        assert all(count > 0 for count in wins.values())
        assert max(wins.values()) < max_share * runs
