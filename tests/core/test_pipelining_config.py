"""Pipelining-mode plumbing through DesignPoint, sweeps, and services.

The datapath's loop-pipelining discipline is one three-way
``pipelining`` mode plus an ``ii`` knob, with no other spelling; these
tests guard that contract at every layer that copies, keys or
serializes a design.
"""

import pytest

from repro.core.calibrate import _combo_key, design_class
from repro.core.config import DesignPoint
from repro.core.export import CSV_FIELDS
from repro.core.sweep import ii_design_space
from repro.errors import ConfigError


class TestDesignPointFields:
    def test_default_is_barriers_auto(self):
        d = DesignPoint()
        assert d.pipelining == "barriers"
        assert d.ii == "auto"

    def test_legacy_boolean_spelling_is_gone(self):
        with pytest.raises(TypeError):
            DesignPoint(loop_pipelining=True)
        with pytest.raises(TypeError):
            DesignPoint().replace(loop_pipelining=True)
        assert not hasattr(DesignPoint(), "loop_pipelining")

    def test_accelerator_takes_no_round_barriers(self):
        from repro.aladdin.accelerator import Accelerator
        from tests.conftest import make_linear_trace
        with pytest.raises(TypeError):
            Accelerator(make_linear_trace(4), 1, 1, round_barriers=False)

    def test_ii_canonicalized_for_non_modulo(self):
        # An II on a non-modulo design is meaningless: canonicalize so
        # equal designs hash equal.
        assert DesignPoint(ii=7).ii == "auto"
        assert DesignPoint(pipelining="off", ii=7).ii == "auto"
        assert DesignPoint(pipelining="modulo", ii=7).ii == 7

    def test_invalid_pipelining_rejected(self):
        with pytest.raises(ConfigError, match="pipelining"):
            DesignPoint(pipelining="sideways")

    def test_invalid_ii_rejected(self):
        for bad in (0, -3, True, "fast"):
            with pytest.raises(ConfigError, match="ii"):
                DesignPoint(pipelining="modulo", ii=bad)


class TestKeys:
    def test_key_embeds_mode_and_ii(self):
        assert ("barriers", "auto") in DesignPoint().key()
        assert ("off", "auto") in DesignPoint(pipelining="off").key()
        assert ("modulo", 4) in \
            DesignPoint(pipelining="modulo", ii=4).key()
        cache = DesignPoint(mem_interface="cache", pipelining="off")
        assert ("off", "auto") in cache.key()

    def test_every_mode_and_ii_keys_distinctly(self):
        designs = [DesignPoint(pipelining="barriers"),
                   DesignPoint(pipelining="off"),
                   DesignPoint(pipelining="modulo"),
                   DesignPoint(pipelining="modulo", ii=4)]
        assert len({d.key() for d in designs}) == len(designs)


class TestReplace:
    def test_replace_mode_drops_stale_ii(self):
        d = DesignPoint(pipelining="modulo", ii=2)
        back = d.replace(pipelining="off")
        assert back.pipelining == "off"
        assert back.ii == "auto"

    def test_replace_unrelated_field_keeps_mode(self):
        d = DesignPoint(pipelining="modulo", ii=2)
        wider = d.replace(lanes=8)
        assert wider.pipelining == "modulo"
        assert wider.ii == 2

    def test_replace_pipelining_directly(self):
        d = DesignPoint().replace(pipelining="modulo", ii=3)
        assert (d.pipelining, d.ii) == ("modulo", 3)


class TestSweepAxis:
    def test_ii_design_space_has_anchors_and_modulo_points(self):
        pts = ii_design_space()
        modes = [(p.pipelining, p.ii) for p in pts]
        assert ("barriers", "auto") in modes
        assert ("off", "auto") in modes
        assert ("modulo", "auto") in modes
        assert ("modulo", 4) in modes

    def test_ii_design_space_dedupes_by_key(self):
        pts = ii_design_space(iis=("auto", 2, 2, "auto"))
        keys = [p.key() for p in pts]
        assert len(keys) == len(set(keys))

    def test_base_design_threads_through(self):
        base = DesignPoint(lanes=8, partitions=8)
        pts = ii_design_space(base_design=base, iis=(1,))
        assert all(p.lanes == 8 for p in pts)


class TestExportFields:
    def test_csv_fields_include_modes(self):
        assert "pipelining" in CSV_FIELDS
        assert "ii" in CSV_FIELDS
        assert "loop_pipelining" not in CSV_FIELDS

    def test_design_record_round_trips_modes(self):
        rec = DesignPoint(pipelining="modulo", ii=4).to_record()
        assert rec["pipelining"] == "modulo"
        assert rec["ii"] == 4
        assert "loop_pipelining" not in rec


class TestCalibrationClasses:
    def test_class_names_carry_the_mode(self):
        assert design_class(DesignPoint()) == "dma:p1t1b0:barriers"
        assert design_class(DesignPoint(pipelining="off")) == \
            "dma:p1t1b0:off"
        assert design_class(DesignPoint(mem_interface="cache",
                                        pipelining="modulo")) == \
            "cache:l64:modulo"

    def test_combo_keys_carry_the_mode(self):
        assert _combo_key(4, 4, 1, "barriers", "auto") == \
            "4x4x1:barriers:auto"
        assert _combo_key(2, 2, 2, "modulo", "4") == "2x2x2:modulo:4"


class TestServeAndCli:
    def test_httpd_rejects_legacy_spelling(self):
        with pytest.raises(ConfigError, match="unknown design field"):
            DesignPoint.from_record({"lanes": 2, "loop_pipelining": True})
        modern = DesignPoint.from_record(
            {"lanes": 2, "pipelining": "modulo", "ii": 4})
        assert (modern.pipelining, modern.ii) == ("modulo", 4)

    def test_cli_ii_parser(self):
        from repro.cli import _ii_value
        assert _ii_value("auto") == "auto"
        assert _ii_value("8") == 8
        with pytest.raises(Exception):
            _ii_value("0")
        with pytest.raises(Exception):
            _ii_value("fast")

    def test_cli_design_args(self):
        from repro.cli import build_parser, design_from_args
        parser = build_parser()
        args = parser.parse_args(
            ["run", "aes-aes", "--pipelining", "modulo", "--ii", "4"])
        d = design_from_args(args)
        assert (d.pipelining, d.ii) == ("modulo", 4)
