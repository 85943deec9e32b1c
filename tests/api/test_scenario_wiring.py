"""One scenario spec drives all three execution layers (protocol / service / network)."""

import pytest

from repro.api.config import ServiceConfig
from repro.api.service import MessagingService
from repro.attacks import AttackScenario, ScenarioSchedule, get_scenario
from repro.exceptions import ConfigurationError, NetworkError
from repro.network.routing import RoutingTable
from repro.network.sessions import SessionParameters, SessionRequest, run_session
from repro.network.topology import line_topology
from repro.protocol.config import ProtocolConfig
from repro.protocol.runner import UADIQSDCProtocol

MESSAGE = "1011001110001111"

SCENARIO = AttackScenario("man_in_the_middle")


def protocol_config(seed=5, scenario=None):
    return ProtocolConfig.default(
        len(MESSAGE), seed=seed, check_pairs_per_round=32, identity_pairs=4
    ).with_scenario(scenario)


class TestProtocolLayer:
    def test_scenario_config_builds_attack(self):
        result = UADIQSDCProtocol(protocol_config(scenario=SCENARIO)).run(MESSAGE)
        assert not result.success
        assert result.metadata["attack"] == "man_in_the_middle(random_pure)"

    def test_scenario_accepts_preset_names_and_dicts(self):
        by_name = UADIQSDCProtocol(protocol_config(scenario="mitm_full")).run(MESSAGE)
        by_dict = UADIQSDCProtocol(
            protocol_config(scenario=SCENARIO.to_dict())
        ).run(MESSAGE)
        assert by_name.metadata["attack"] == by_dict.metadata["attack"]

    def test_explicit_attack_object_wins(self):
        from repro.attacks import InterceptResendAttack

        protocol = UADIQSDCProtocol(
            protocol_config(scenario=SCENARIO), attack=InterceptResendAttack(rng=0)
        )
        result = protocol.run(MESSAGE)
        assert result.metadata["attack"].startswith("intercept_resend")

    def test_honest_sessions_unchanged_by_feature(self):
        # A scenario-less config must behave exactly as before the engine
        # existed (no extra RNG draws on the honest path).
        baseline = UADIQSDCProtocol(protocol_config()).run(MESSAGE)
        again = UADIQSDCProtocol(protocol_config()).run(MESSAGE)
        assert baseline.success and again.success
        assert baseline.chsh_round1.value == again.chsh_round1.value
        assert "scenario" not in baseline.metadata

    def test_invalid_scenario_rejected_at_validation(self):
        with pytest.raises(ConfigurationError, match="invalid scenario"):
            protocol_config(scenario="no_such_preset").validate()


class TestServiceLayer:
    def test_with_scenario_aborts_delivery(self):
        config = (
            ServiceConfig.ideal(seed=9)
            .with_session(check_pairs_per_round=32)
            .with_retries(0)
            .with_scenario(SCENARIO)
        )
        report = MessagingService(config).send("hi")
        assert not report.success
        honest = MessagingService(
            ServiceConfig.ideal(seed=9).with_session(check_pairs_per_round=32).with_retries(0)
        ).send("hi")
        assert honest.success

    def test_describe_includes_scenario_label(self):
        config = ServiceConfig.ideal().with_scenario(SCENARIO)
        assert "man_in_the_middle" in config.describe()["scenario"]
        assert "scenario" not in ServiceConfig.ideal().describe()

    def test_scenario_and_attack_factory_mutually_exclusive(self):
        config = ServiceConfig.ideal().with_scenario(SCENARIO).with_attack_factory(
            lambda index, attempt, rng: None
        )
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            config.validate()

    def test_scenario_deterministic_per_seed(self):
        config = (
            ServiceConfig.ideal(seed=31)
            .with_session(check_pairs_per_round=32)
            .with_scenario(AttackScenario("intercept_resend", strength=0.5))
        )
        first = MessagingService(config).send("hello")
        second = MessagingService(config).send("hello")
        assert first.success == second.success
        assert [r.delivered for r in first.fragments] == [
            r.delivered for r in second.fragments
        ]


class TestNetworkLayer:
    def make_route(self, nodes=3):
        topology = line_topology(nodes, qubit_capacity=None)
        names = topology.node_names
        route = RoutingTable(topology).route(names[0], names[-1])
        return topology, names, route

    def test_relay_scenario_attacks_multi_hop_routes(self):
        topology, names, route = self.make_route()
        request = SessionRequest(
            0, names[0], names[-1], 8, 0.0, scenario="relay_intercept_resend"
        )
        outcome = run_session(topology, route, request, SessionParameters(), seed=5)
        assert outcome.status == "aborted"
        attacked_hops = [r for r in outcome.hop_reports if r.attack is not None]
        assert attacked_hops, "relay scenario must attack some hop"

    def test_relay_scenario_spares_direct_routes(self):
        topology, names, route = self.make_route(nodes=2)
        request = SessionRequest(
            0, names[0], names[1], 8, 0.0, scenario="relay_intercept_resend"
        )
        outcome = run_session(topology, route, request, SessionParameters(), seed=5)
        assert all(r.attack is None for r in outcome.hop_reports)

    def test_source_scenario_attacks_first_hop_only(self):
        topology, names, route = self.make_route()
        request = SessionRequest(
            0, names[0], names[-1], 8, 0.0,
            scenario=AttackScenario("source_tamper", strength=0.0),
        )
        outcome = run_session(topology, route, request, SessionParameters(), seed=5)
        assert outcome.hop_reports[0].attack is not None
        assert all(r.attack is None for r in outcome.hop_reports[1:])

    def test_compromised_node_takes_precedence(self):
        topology, names, route = self.make_route()
        topology.compromise(
            names[1], get_scenario("intercept_resend_full").attack_factory()
        )
        request = SessionRequest(
            0, names[0], names[-1], 8, 0.0, scenario="classical_passive"
        )
        outcome = run_session(topology, route, request, SessionParameters(), seed=5)
        assert outcome.hop_reports[0].attack.startswith("intercept_resend")

    def test_honest_request_unchanged(self):
        topology, names, route = self.make_route()
        request = SessionRequest(0, names[0], names[-1], 8, 0.0)
        baseline = run_session(topology, route, request, SessionParameters(), seed=5)
        again = run_session(topology, route, request, SessionParameters(), seed=5)
        assert baseline.status == "delivered"
        assert baseline.summary() == again.summary()

    def test_invalid_request_scenario_rejected(self):
        with pytest.raises(NetworkError, match="invalid session scenario"):
            SessionRequest(0, "a", "b", 8, 0.0, scenario="nope")

    def test_network_service_scenario_rides_requests(self):
        topology = line_topology(3, qubit_capacity=None)
        names = topology.node_names
        config = ServiceConfig.networked(
            topology, source=names[0], target=names[-1], seed=13
        ).with_scenario(ScenarioSchedule((AttackScenario(
            "intercept_resend", target_layer="relay"),))).with_retries(0)
        report = MessagingService(config).send("hi")
        assert not report.success
        honest = MessagingService(
            ServiceConfig.networked(
                topology, source=names[0], target=names[-1], seed=13
            ).with_retries(0)
        ).send("hi")
        assert honest.success
