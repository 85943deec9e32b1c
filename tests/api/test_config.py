"""ServiceConfig tests: presets, fluent builder, validation, lazy exports."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import repro
from repro.api import BACKEND_NAMES, MessagingService, ServiceConfig
from repro.channel.quantum_channel import IdentityChainChannel, NoiselessChannel
from repro.exceptions import ConfigurationError
from repro.network import line_topology
from repro.protocol import Identity, SessionParameters
from repro.quantum.channels import phase_damping_channel


class TestPresets:
    def test_paper_default(self):
        config = ServiceConfig.paper_default(seed=3).validate()
        assert config.backend == "local"
        assert isinstance(config.channel, IdentityChainChannel)
        assert config.session.identity_pairs == 8
        assert config.session.check_pairs_per_round == 256
        assert config.seed == 3

    def test_ideal(self):
        config = ServiceConfig.ideal().validate()
        assert isinstance(config.channel, NoiselessChannel)

    def test_noisy_nisq(self):
        config = ServiceConfig.noisy_nisq(eta=20).validate()
        assert "eta=20" in config.channel.name

    def test_networked(self):
        topology = line_topology(3)
        config = ServiceConfig.networked(topology, source="n0", target="n2").validate()
        assert config.backend == "network"
        assert config.topology is topology
        assert (config.source, config.target) == ("n0", "n2")

    @pytest.mark.parametrize(
        "preset, pairs",
        [
            (ServiceConfig.paper_default, (8, 256)),
            (ServiceConfig.ideal, (8, 128)),
            (ServiceConfig.noisy_nisq, (8, 128)),
            (lambda: ServiceConfig.networked(line_topology(3)), (2, 32)),
        ],
        ids=["paper_default", "ideal", "noisy_nisq", "networked"],
    )
    def test_preset_sessions(self, preset, pairs):
        session = preset().session
        assert (session.identity_pairs, session.check_pairs_per_round) == pairs
        assert session.num_check_bits is None
        assert (session.authentication_tolerance, session.check_bit_tolerance) == (
            0.25,
            0.15,
        )

    def test_networked_session_survives_a_backend_switch(self):
        config = ServiceConfig.networked(line_topology(3)).with_backend("local")
        assert config.session == SessionParameters()
        assert config.protocol_config(8, seed=0).check_pairs_per_round == 32


class TestFluentBuilder:
    def test_withers_return_new_objects(self):
        base = ServiceConfig.paper_default()
        modified = base.with_fragment_bits(8)
        assert base.fragment_bits == 64 and modified.fragment_bits == 8
        assert modified is not base

    def test_chaining(self):
        config = (
            ServiceConfig.ideal()
            .with_backend("batch")
            .with_seed(11)
            .with_retries(0)
            .with_framing(False)
            .with_executor("serial", max_workers=2)
            .with_session(identity_pairs=2, check_pairs_per_round=32)
            .with_session(check_bit_tolerance=0.2)
        )
        assert config.backend == "batch"
        assert config.seed == 11 and config.max_retries == 0
        assert not config.framing
        assert (config.executor, config.max_workers) == ("serial", 2)
        assert config.session == SessionParameters(
            identity_pairs=2, check_pairs_per_round=32, check_bit_tolerance=0.2
        )
        assert config.session.authentication_tolerance == 0.25  # untouched

    def test_with_session_rejects_unknown_names_and_bad_values(self):
        config = ServiceConfig.paper_default()
        with pytest.raises(ConfigurationError, match="identity_pair"):
            config.with_session(identity_pair=2)
        with pytest.raises(ConfigurationError, match="check_bit_tolerance"):
            config.with_session(check_bit_tolerance=1.0)

    def test_one_field_holds_the_session(self):
        # The five tunables live on `session`; the six single-link fields
        # and the service fields make up the rest.
        names = [field.name for field in fields(ServiceConfig)]
        assert len(names) == 21
        assert "session" in names
        assert not set(names) & {field.name for field in fields(SessionParameters)}

    def test_with_network_partial_update(self):
        topology = line_topology(3)
        config = ServiceConfig.networked(topology, source="n0")
        updated = config.with_network(target="n2")
        assert updated.topology is topology and updated.source == "n0"
        assert updated.target == "n2"


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig.paper_default().with_backend("cloud").validate()
        assert set(BACKEND_NAMES) == {"local", "batch", "network"}

    def test_bad_fragment_bits(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig.paper_default().with_fragment_bits(0).validate()

    def test_negative_retries(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig.paper_default().with_retries(-1).validate()

    @pytest.mark.parametrize("retries", [math.nan, math.inf, 1.5, -1])
    def test_non_integer_retries_fail_at_construction(self, retries):
        config = ServiceConfig.ideal(seed=1).with_retries(retries)
        with pytest.raises(ConfigurationError):
            MessagingService(config)

    def test_numpy_integer_retries_pass(self):
        assert ServiceConfig.ideal(seed=1).with_retries(np.int64(3)).validate()

    def test_bad_executor(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig.paper_default().with_executor("process").validate()

    def test_network_requires_topology(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig.paper_default().with_backend("network").validate()

    def test_network_rejects_attack_factory(self):
        config = ServiceConfig.networked(line_topology(3)).with_attack_factory(
            lambda index, attempt, rng: None
        )
        with pytest.raises(ConfigurationError):
            config.validate()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("channel", IdentityChainChannel(eta=700)),
            ("distribution_channel", NoiselessChannel()),
            ("memory_decoherence", phase_damping_channel(0.1)),
            ("memory_hold_time", 1.0),
            ("alice_identity", Identity.from_string("1101" * 4, owner="alice")),
            ("bob_identity", Identity.from_string("0110" * 4, owner="bob")),
        ],
    )
    def test_network_rejects_per_fragment_fields(self, name, value):
        # The network backend runs every hop on its link's channel and its
        # sender's memory, so these fields would change nothing but the report.
        config = ServiceConfig.networked(
            line_topology(3), source="n0", target="n2", seed=5
        ).validate()
        with pytest.raises(ConfigurationError, match=rf"ignores {name}: .*links"):
            replace(config, **{name: value}).validate()

    def test_network_names_the_first_ignored_field(self):
        config = (
            ServiceConfig.networked(line_topology(3), source="n0", target="n2", seed=5)
            .with_executor("serial")
            .with_session(identity_pairs=4, check_pairs_per_round=512)
            .with_channel(IdentityChainChannel(eta=700))
            .with_memory(phase_damping_channel(0.1), 1.0)
        )
        with pytest.raises(ConfigurationError, match="ignores channel:"):
            MessagingService(config)

    def test_identity_mismatch_caught(self):
        identity = Identity.from_string("1101", owner="alice")  # 2 pairs
        config = ServiceConfig.paper_default().with_identities(identity, None)
        with pytest.raises(ConfigurationError):
            config.validate()  # identity_pairs is still 8


class TestProtocolConfigMapping:
    def test_fields_map_one_to_one(self):
        config = ServiceConfig.noisy_nisq(eta=30).with_session(
            identity_pairs=4,
            check_pairs_per_round=48,
            authentication_tolerance=0.3,
            check_bit_tolerance=0.1,
        )
        protocol = config.protocol_config(message_length=10, seed=77)
        assert protocol.message_length == 10
        assert protocol.identity_pairs == 4
        assert protocol.check_pairs_per_round == 48
        assert protocol.authentication_tolerance == 0.3
        assert protocol.check_bit_tolerance == 0.1
        assert protocol.channel is config.channel
        assert protocol.seed == 77
        protocol.validate()

    def test_check_bits_parity_rule(self):
        config = ServiceConfig.paper_default()
        for length in range(1, 40):
            protocol = config.protocol_config(message_length=length, seed=0)
            assert (protocol.message_length + protocol.num_check_bits) % 2 == 0

    def test_explicit_check_bits_respected(self):
        protocol = ServiceConfig.paper_default().with_session(
            num_check_bits=6
        ).protocol_config(message_length=10, seed=0)
        assert protocol.num_check_bits == 6

    def test_explicit_check_bits_parity_bumped_on_odd_fragments(self):
        # n + c must be even; an explicit count is adjusted upward by one on
        # odd-length fragments (documented; SessionParameters.protocol_config
        # builds fragment and hop sessions alike).
        protocol = ServiceConfig.paper_default().with_session(
            num_check_bits=6
        ).protocol_config(message_length=11, seed=0)
        assert protocol.num_check_bits == 7

    def test_check_bit_rule_shared_across_layers(self):
        from repro.network import SessionParameters
        from repro.protocol import ProtocolConfig

        service = ServiceConfig.paper_default()
        network = SessionParameters()
        for length in (1, 4, 7, 8, 16, 33):
            expected = ProtocolConfig.default_check_bits(length)
            assert service.protocol_config(length, seed=0).num_check_bits == expected
            hop = network.protocol_config(length, NoiselessChannel(), 0)
            assert hop.num_check_bits == expected
            assert network.pairs_per_hop(length) == hop.total_pairs
            assert ProtocolConfig.default(length).num_check_bits == expected


class TestPackageSurface:
    def test_lazy_exports(self):
        from repro import (  # noqa: F401 — the import *is* the test
            DeliveryReport,
            MessagingService,
            ProtocolConfig,
            ProtocolResult,
            ServiceConfig,
            UADIQSDCProtocol,
        )

        assert repro.MessagingService is MessagingService

    def test_all_documents_the_stable_surface(self):
        for name in (
            "MessagingService",
            "ServiceConfig",
            "DeliveryReport",
            "ProtocolConfig",
            "UADIQSDCProtocol",
            "ProtocolResult",
            "ReproError",
            "__version__",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_dir_includes_lazy_names(self):
        assert "MessagingService" in dir(repro)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing

    def test_historical_import_paths_still_work(self):
        from repro.protocol import ProtocolConfig, UADIQSDCProtocol  # noqa: F401
        from repro.protocol.config import ProtocolConfig as PC  # noqa: F401
        from repro.protocol.runner import UADIQSDCProtocol as UP  # noqa: F401
        from repro.exceptions import ProtocolAbort, ReproError  # noqa: F401
        from repro.network import SessionParameters, simulate_network  # noqa: F401
        from repro.experiments import run_end_to_end  # noqa: F401
