"""Tests for the repro.api facade, FlowOptions, and the top-level surface."""

import warnings

import pytest

from repro import telemetry
from repro.api import (
    FlowOptions,
    batch,
    fingerprint,
    load_circuit,
    save_circuit,
    verify,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()
    yield
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()


class TestFlowOptions:
    def test_defaults(self):
        opts = FlowOptions()
        assert opts.verify is True
        assert opts.jobs == 1
        assert opts.map_style == "aoi"
        assert opts.trace is False

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            FlowOptions(None)  # no positional arguments

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="tracing"):
            FlowOptions(tracing=True)

    def test_frozen(self):
        opts = FlowOptions()
        with pytest.raises(Exception):
            opts.seed = 5

    def test_replace(self):
        opts = FlowOptions(seed=1)
        changed = opts.replace(jobs=4)
        assert changed.seed == 1 and changed.jobs == 4
        assert opts.jobs == 1  # original untouched
        with pytest.raises(TypeError):
            opts.replace(bogus=1)


class TestFacade:
    def test_fingerprint(self, fig1_circuit):
        result = fingerprint(fig1_circuit)
        assert result.verification is not None
        assert result.verification.equivalent

    def test_fingerprint_keyword_overrides(self, fig1_circuit):
        result = fingerprint(fig1_circuit, verify=False)
        assert result.verification is None

    def test_verify(self, fig1_circuit):
        report = verify(fig1_circuit, fig1_circuit)
        assert report.equivalent and report.proven

    def test_batch(self, fig1_circuit):
        result = batch(fig1_circuit, 2)
        assert result.n_copies == 2
        assert result.n_mismatch == 0

    def test_trace_option_scopes_telemetry(self, fig1_circuit):
        assert not telemetry.tracing_enabled()
        fingerprint(fig1_circuit, FlowOptions(trace=True, metrics=True))
        # The scope restored the global flags but kept the recording.
        assert not telemetry.tracing_enabled()
        roots = telemetry.get_tracer().drain()
        names = {n.name for r in roots for n in r.walk()}
        assert "fingerprint.flow" in names

    def test_load_save_round_trip(self, tmp_path, fig1_circuit):
        path_v = str(tmp_path / "c.v")
        save_circuit(fig1_circuit, path_v)
        reloaded = load_circuit(path_v)
        assert reloaded.n_gates == fig1_circuit.n_gates

        path_blif = str(tmp_path / "c.blif")
        save_circuit(fig1_circuit, path_blif)
        mapped = load_circuit(path_blif)
        assert mapped.n_gates > 0

    def test_load_unknown_extension(self):
        from repro.errors import DesignLoadError

        with pytest.raises(DesignLoadError):
            load_circuit("x.json")
        with pytest.raises(DesignLoadError):
            save_circuit(None, "x.json")


class TestTopLevelSurface:
    """2.0 removed the lazy compatibility layer and the pre-facade shims."""

    def test_removed_top_level_name_raises(self):
        import repro

        assert not hasattr(repro, "__getattr__")
        with pytest.raises(AttributeError):
            repro.parse_blif

    def test_removed_shims_are_gone(self):
        import repro.flows

        for name in ("fingerprint_flow", "run_batch", "verify_equivalence"):
            assert not hasattr(repro.flows, name), name

    def test_top_level_unknown_name_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_symbol

    def test_facade_names_do_not_warn(self):
        import repro

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert callable(repro.fingerprint)
            assert callable(repro.batch)
            assert callable(repro.verify)


class TestCampaignFacade:
    def test_circuit_input_serialized_and_resumable(self, tmp_path, fig1_circuit):
        """An in-memory Circuit becomes a db: source, so a later resume in
        a fresh process can reload it from the DB alone."""
        from repro.api import campaign, campaign_resume, campaign_status

        db = str(tmp_path / "api.db")
        summary = campaign(fig1_circuit, db, n_copies=2, seed=0)
        assert summary.complete and summary.clean
        status = campaign_status(db)
        assert status["designs"] == {fig1_circuit.name: f"db:{fig1_circuit.name}"}
        # resume re-resolves the design purely from the DB text
        again = campaign_resume(db)
        assert again.executed == 0

    def test_path_input(self, tmp_path, fig1_circuit):
        from repro.api import campaign, save_circuit

        path = str(tmp_path / "d.v")
        save_circuit(fig1_circuit, path)
        db = str(tmp_path / "p.db")
        summary = campaign(path, db, n_copies=2)
        assert summary.counts == {"done": 2}

    def test_report_facade(self, tmp_path, fig1_circuit):
        import os

        from repro.api import campaign, campaign_report

        db = str(tmp_path / "r.db")
        campaign(fig1_circuit, db, n_copies=2)
        out = str(tmp_path / "out")
        report = campaign_report(db, out_dir=out)
        assert report["totals"]["clean"] is True
        assert os.path.exists(os.path.join(out, "report.json"))
        assert os.path.exists(os.path.join(out, "report.html"))

    def test_options_passthrough(self, tmp_path, fig1_circuit):
        from repro.api import campaign
        from repro.campaign import CampaignOptions

        db = str(tmp_path / "o.db")
        summary = campaign(
            fig1_circuit, db, n_copies=3,
            options=CampaignOptions(jobs=1, max_jobs=1),
        )
        assert summary.executed == 1
        assert summary.interrupted
